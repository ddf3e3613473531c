#include "resilience/checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/crc32.hpp"
#include "obs/obs.hpp"

namespace f3d::resilience {

namespace {

// Magic is version-free; the version is a field so a mismatch is
// distinguishable from "not a checkpoint at all".
constexpr char kMagic[8] = {'F', '3', 'D', 'C', 'K', 'P', 'T', 'v'};

void put_bytes(std::string& buf, const void* p, std::size_t n) {
  if (n == 0) return;  // empty vectors hand over a null data()
  buf.append(static_cast<const char*>(p), n);
}
template <class T>
void put(std::string& buf, T v) {
  put_bytes(buf, &v, sizeof(T));
}
void put_string(std::string& buf, const std::string& s) {
  put<std::int64_t>(buf, static_cast<std::int64_t>(s.size()));
  put_bytes(buf, s.data(), s.size());
}

struct Reader {
  const char* p;
  const char* end;
  bool ok = true;

  bool take(void* out, std::size_t n) {
    if (!ok || static_cast<std::size_t>(end - p) < n) return ok = false;
    if (n > 0) std::memcpy(out, p, n);  // out may be a null data() at n=0
    p += n;
    return true;
  }
  [[nodiscard]] std::size_t remaining() const {
    return static_cast<std::size_t>(end - p);
  }
  template <class T>
  T get() {
    T v{};
    take(&v, sizeof(T));
    return v;
  }
  std::string get_string() {
    const auto n = get<std::int64_t>();
    if (!ok || n < 0 || remaining() < static_cast<std::size_t>(n))
      return ok = false, std::string{};
    std::string s(p, static_cast<std::size_t>(n));
    p += n;
    return s;
  }
};

std::string encode_payload(const PtcCheckpoint& ck) {
  std::string buf;
  buf.reserve(128 + ck.x.size() * sizeof(double));
  put<std::int64_t>(buf, ck.step);
  put<std::int64_t>(buf, static_cast<std::int64_t>(ck.x.size()));
  put_bytes(buf, ck.x.data(), ck.x.size() * sizeof(double));
  put(buf, ck.rnorm);
  put(buf, ck.r0);
  put(buf, ck.cfl_relax);
  put(buf, ck.function_evaluations);
  put(buf, ck.total_linear_iterations);
  put(buf, ck.gmres_restart);
  put(buf, ck.krylov);
  put<std::int8_t>(buf, ck.injector ? 1 : 0);
  if (ck.injector) {
    const FaultInjector::State& inj = *ck.injector;
    put(buf, inj.seed);
    put<std::int32_t>(buf, kNumFaultSites);
    for (int i = 0; i < kNumFaultSites; ++i) {
      put(buf, inj.draws[static_cast<std::size_t>(i)]);
      put(buf, inj.fires[static_cast<std::size_t>(i)]);
      put(buf, inj.magnitudes[static_cast<std::size_t>(i)]);
    }
  }
  const auto& events = ck.log.events();
  put<std::int64_t>(buf, static_cast<std::int64_t>(events.size()));
  for (const auto& e : events) {
    put<std::int32_t>(buf, e.step);
    put<std::int32_t>(buf, static_cast<std::int32_t>(e.action));
    put_string(buf, e.detail);
  }
  return buf;
}

std::optional<PtcCheckpoint> decode_payload(Reader& rd) {
  PtcCheckpoint ck;
  ck.step = rd.get<std::int64_t>();
  const auto n = rd.get<std::int64_t>();
  // Validate the length against the bytes left before allocating: a
  // CRC-valid payload may still claim an absurd length.
  if (!rd.ok || n < 0 ||
      static_cast<std::uint64_t>(n) > rd.remaining() / sizeof(double))
    return std::nullopt;
  ck.x.resize(static_cast<std::size_t>(n));
  rd.take(ck.x.data(), ck.x.size() * sizeof(double));
  ck.rnorm = rd.get<double>();
  ck.r0 = rd.get<double>();
  ck.cfl_relax = rd.get<double>();
  ck.function_evaluations = rd.get<std::int64_t>();
  ck.total_linear_iterations = rd.get<std::int64_t>();
  ck.gmres_restart = rd.get<std::int32_t>();
  ck.krylov = rd.get<std::int32_t>();
  if (rd.get<std::int8_t>() != 0) {
    FaultInjector::State& inj = ck.injector.emplace();
    inj.seed = rd.get<std::uint64_t>();
    // A checkpoint from a build with a different site set cannot replay
    // the same draw streams: reject rather than resume divergently.
    if (rd.get<std::int32_t>() != kNumFaultSites) return std::nullopt;
    for (int i = 0; i < kNumFaultSites; ++i) {
      inj.draws[static_cast<std::size_t>(i)] = rd.get<int>();
      inj.fires[static_cast<std::size_t>(i)] = rd.get<int>();
      inj.magnitudes[static_cast<std::size_t>(i)] = rd.get<double>();
    }
  }
  const auto nev = rd.get<std::int64_t>();
  if (!rd.ok || nev < 0) return std::nullopt;
  std::vector<RecoveryEvent> events;
  for (std::int64_t i = 0; i < nev; ++i) {
    const int step = rd.get<std::int32_t>();
    const int action = rd.get<std::int32_t>();
    std::string detail = rd.get_string();
    if (!rd.ok || action < 0 || action >= kNumRecoveryActions)
      return std::nullopt;
    events.push_back(
        {step, static_cast<RecoveryAction>(action), std::move(detail)});
  }
  ck.log = RecoveryLog(std::move(events));
  return ck;
}

}  // namespace

std::string encode_checkpoint(const PtcCheckpoint& ck) {
  const std::string payload = encode_payload(ck);
  std::string buf;
  buf.reserve(sizeof(kMagic) + 16 + payload.size());
  put_bytes(buf, kMagic, sizeof(kMagic));
  put<std::uint32_t>(buf, kCheckpointFormatVersion);
  put<std::uint32_t>(buf, crc32(payload.data(), payload.size()));
  put<std::int64_t>(buf, static_cast<std::int64_t>(payload.size()));
  buf += payload;
  return buf;
}

std::optional<PtcCheckpoint> decode_checkpoint(const std::string& bytes) {
  Reader rd{bytes.data(), bytes.data() + bytes.size()};
  char magic[sizeof(kMagic)];
  if (!rd.take(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    return std::nullopt;
  if (rd.get<std::uint32_t>() != kCheckpointFormatVersion) return std::nullopt;
  const std::uint32_t crc = rd.get<std::uint32_t>();
  const auto payload_size = rd.get<std::int64_t>();
  if (!rd.ok || payload_size < 0 ||
      static_cast<std::size_t>(rd.end - rd.p) !=
          static_cast<std::size_t>(payload_size))
    return std::nullopt;
  if (crc32(rd.p, static_cast<std::size_t>(payload_size)) != crc)
    return std::nullopt;
  return decode_payload(rd);
}

bool save_checkpoint(const std::string& path, const PtcCheckpoint& ck) {
  const std::string buf = encode_checkpoint(ck);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    // Flush inside the check, not in the destructor: a full disk or I/O
    // error on close must fail the save, never leave a short tmp behind
    // to be renamed over a good checkpoint.
    out.flush();
    if (!out) return false;
  }
  // Keep the previous verified checkpoint as <path>.prev before the new
  // one takes its place: if the new file is later torn or bit-rotted on
  // disk (the CRC rejects it at load), restore falls back one generation
  // instead of losing the run. Failure to rotate is not fatal — the first
  // save has no predecessor.
  std::rename(path.c_str(), (path + ".prev").c_str());
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::optional<PtcCheckpoint> load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string buf((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  return decode_checkpoint(buf);
}

std::optional<PtcCheckpoint> load_checkpoint_with_fallback(
    const std::string& path, std::string* loaded_from) {
  if (auto ck = load_checkpoint(path)) {
    if (loaded_from != nullptr) *loaded_from = path;
    return ck;
  }
  // Primary missing, truncated, or corrupt (the CRC frame rejects torn
  // writes): fall back to the previous verified generation.
  const std::string prev = path + ".prev";
  if (auto ck = load_checkpoint(prev)) {
    obs::Registry::global().count("resilience.checkpoint_fallbacks");
    if (loaded_from != nullptr) *loaded_from = prev;
    return ck;
  }
  return std::nullopt;
}

}  // namespace f3d::resilience
