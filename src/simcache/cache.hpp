#pragma once
// Trace-driven memory-hierarchy simulator — the stand-in for the R10000
// hardware counters of the paper's Figure 3. Models set-associative LRU
// caches and a TLB; instrumented kernels feed it the addresses the real
// kernels touch, so miss counts respond to data layout exactly the way
// the hardware counters did.

#include <cstdint>
#include <list>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"

namespace f3d::simcache {

/// Set-associative LRU cache (also used as a TLB with line = page size).
///
/// Optionally classifies misses with the classical 3C taxonomy, the
/// decomposition behind the paper's Eq. 1/2 (which bound the *conflict*
/// misses a layout causes):
///  * compulsory — line never seen before;
///  * capacity   — would also miss in a fully associative LRU cache of
///                 the same capacity;
///  * conflict   — hits in the fully associative model, misses here
///                 (set-mapping artifact).
class CacheModel {
public:
  /// capacity and line_size in bytes; associativity in ways (use
  /// num_lines for fully associative). classify_misses enables the 3C
  /// bookkeeping (adds a shadow fully-associative simulation).
  CacheModel(std::uint64_t capacity, std::uint32_t line_size,
             std::uint32_t associativity, bool classify_misses = false);

  /// Touch one line-aligned address; returns true on hit.
  bool access(std::uint64_t addr);

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t accesses() const { return hits_ + misses_; }
  [[nodiscard]] std::uint32_t line_size() const { return line_size_; }
  [[nodiscard]] std::uint64_t capacity() const { return capacity_; }

  // 3C counters (zero unless classify_misses was set).
  [[nodiscard]] std::uint64_t compulsory_misses() const { return compulsory_; }
  [[nodiscard]] std::uint64_t capacity_misses() const { return capacity_m_; }
  [[nodiscard]] std::uint64_t conflict_misses() const { return conflict_; }

  void reset_counters() {
    hits_ = misses_ = compulsory_ = capacity_m_ = conflict_ = 0;
  }
  /// Also invalidate contents (cold restart).
  void flush();

private:
  std::uint64_t capacity_;
  std::uint32_t line_size_;
  std::uint32_t assoc_;
  std::uint32_t num_sets_;
  int line_shift_;
  bool classify_;
  std::uint64_t hits_ = 0, misses_ = 0;
  std::uint64_t compulsory_ = 0, capacity_m_ = 0, conflict_ = 0;
  // tags_[set*assoc + way]; lru_[same] = last-use stamp; 0 tag = invalid
  // (we store tag+1).
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint64_t> lru_;
  std::uint64_t clock_ = 0;
  // 3C bookkeeping: lines ever touched, plus a shadow fully-associative
  // LRU of identical capacity (ordered-set emulation).
  std::set<std::uint64_t> seen_;
  std::list<std::uint64_t> fa_lru_;  ///< front = most recent line
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> fa_pos_;
};

/// The three-level hierarchy the Figure 3 experiment models: L1 + L2
/// data caches and a TLB. Every byte range touched is walked line by line
/// through all three.
class MemoryTracer {
public:
  struct Config {
    // R10000-like defaults (SGI Origin 2000 node, as in the paper).
    std::uint64_t l1_capacity = 32 * 1024;
    std::uint32_t l1_line = 32;
    std::uint32_t l1_assoc = 2;
    std::uint64_t l2_capacity = 4 * 1024 * 1024;
    std::uint32_t l2_line = 128;
    std::uint32_t l2_assoc = 2;
    std::uint32_t tlb_entries = 64;
    std::uint32_t page_size = 4096;
  };

  MemoryTracer();  ///< R10000-like defaults
  explicit MemoryTracer(const Config& cfg);

  /// Record an access of `bytes` bytes at `ptr`.
  void touch(const void* ptr, std::size_t bytes);

  [[nodiscard]] const CacheModel& l1() const { return l1_; }
  [[nodiscard]] const CacheModel& l2() const { return l2_; }
  [[nodiscard]] const CacheModel& tlb() const { return tlb_; }

  void reset_counters();
  void flush();

private:
  CacheModel l1_, l2_, tlb_;
};

/// No-op tracer: lets the traced kernels be instantiated at zero cost for
/// plain timing runs (policy-based design; see DESIGN.md §4.2).
struct NullTracer {
  void touch(const void*, std::size_t) {}
};

}  // namespace f3d::simcache
