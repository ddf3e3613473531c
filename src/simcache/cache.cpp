#include "simcache/cache.hpp"

namespace f3d::simcache {

namespace {
int log2_exact(std::uint64_t v) {
  int s = 0;
  while ((1ULL << s) < v) ++s;
  F3D_CHECK_MSG((1ULL << s) == v, "size must be a power of two");
  return s;
}
}  // namespace

CacheModel::CacheModel(std::uint64_t capacity, std::uint32_t line_size,
                       std::uint32_t associativity, bool classify_misses)
    : capacity_(capacity),
      line_size_(line_size),
      assoc_(associativity),
      classify_(classify_misses) {
  F3D_CHECK(capacity > 0 && line_size > 0 && associativity > 0);
  const std::uint64_t lines = capacity / line_size;
  F3D_CHECK_MSG(lines * line_size == capacity, "capacity % line_size != 0");
  F3D_CHECK_MSG(lines % associativity == 0, "lines % associativity != 0");
  num_sets_ = static_cast<std::uint32_t>(lines / associativity);
  // Sets must be a power of two for simple index extraction.
  log2_exact(num_sets_);
  line_shift_ = log2_exact(line_size);
  tags_.assign(static_cast<std::size_t>(num_sets_) * assoc_, 0);
  lru_.assign(tags_.size(), 0);
}

bool CacheModel::access(std::uint64_t addr) {
  const std::uint64_t line = addr >> line_shift_;
  const std::uint32_t set = static_cast<std::uint32_t>(line & (num_sets_ - 1));
  const std::uint64_t tag = line + 1;  // +1 so 0 means invalid
  std::uint64_t* t = &tags_[static_cast<std::size_t>(set) * assoc_];
  std::uint64_t* u = &lru_[static_cast<std::size_t>(set) * assoc_];
  ++clock_;
  bool hit = false;
  std::uint32_t victim = 0;
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    if (t[w] == tag) {
      u[w] = clock_;
      ++hits_;
      hit = true;
      break;
    }
    if (u[w] < u[victim]) victim = w;
  }
  if (!hit) {
    t[victim] = tag;
    u[victim] = clock_;
    ++misses_;
  }

  if (classify_) {
    // Shadow fully-associative LRU of the same capacity.
    const std::uint64_t num_lines = capacity_ / line_size_;
    bool fa_hit = false;
    auto it = fa_pos_.find(line);
    if (it != fa_pos_.end()) {
      fa_lru_.erase(it->second);
      fa_lru_.push_front(line);
      it->second = fa_lru_.begin();
      fa_hit = true;
    } else {
      fa_lru_.push_front(line);
      fa_pos_[line] = fa_lru_.begin();
      if (fa_lru_.size() > num_lines) {
        fa_pos_.erase(fa_lru_.back());
        fa_lru_.pop_back();
      }
    }
    if (!hit) {
      if (seen_.insert(line).second)
        ++compulsory_;
      else if (fa_hit)
        ++conflict_;
      else
        ++capacity_m_;
    } else {
      seen_.insert(line);
    }
  }
  return hit;
}

void CacheModel::flush() {
  std::fill(tags_.begin(), tags_.end(), 0);
  std::fill(lru_.begin(), lru_.end(), 0);
  seen_.clear();
  fa_lru_.clear();
  fa_pos_.clear();
  reset_counters();
}

MemoryTracer::MemoryTracer() : MemoryTracer(Config{}) {}

MemoryTracer::MemoryTracer(const Config& cfg)
    : l1_(cfg.l1_capacity, cfg.l1_line, cfg.l1_assoc),
      l2_(cfg.l2_capacity, cfg.l2_line, cfg.l2_assoc),
      tlb_(static_cast<std::uint64_t>(cfg.tlb_entries) * cfg.page_size,
           cfg.page_size, cfg.tlb_entries) {}

void MemoryTracer::touch(const void* ptr, std::size_t bytes) {
  const std::uint64_t addr = reinterpret_cast<std::uint64_t>(ptr);
  const std::uint64_t last = addr + (bytes ? bytes - 1 : 0);
  // Walk the smallest line granularity; feed each level its own lines.
  const std::uint64_t l1_line = l1_.line_size();
  for (std::uint64_t a = addr & ~(l1_line - 1); a <= last; a += l1_line) {
    if (!l1_.access(a)) l2_.access(a);
    tlb_.access(a);
  }
}

void MemoryTracer::reset_counters() {
  l1_.reset_counters();
  l2_.reset_counters();
  tlb_.reset_counters();
}

void MemoryTracer::flush() {
  l1_.flush();
  l2_.flush();
  tlb_.flush();
}

}  // namespace f3d::simcache
