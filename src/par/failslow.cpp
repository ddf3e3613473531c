#include "par/failslow.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace f3d::par {

namespace {

// Consistency factor making MAD estimate the standard deviation of a
// normal distribution.
constexpr double kMadToSigma = 1.4826;

static_assert(kDetectorWindow >= 1 && kDetectorWindow < 64,
              "the suspicion history is a 64-bit mask");
static_assert(kDetectorConfirm >= 1 && kDetectorConfirm <= kDetectorWindow,
              "a rank must be confirmable within the window");
constexpr std::uint64_t kWindowMask = (1ULL << kDetectorWindow) - 1;

}  // namespace

const char* slow_mitigation_name(SlowMitigation m) {
  switch (m) {
    case SlowMitigation::kNone: return "none";
    case SlowMitigation::kRetry: return "retry";
    case SlowMitigation::kRepartition: return "repartition";
    case SlowMitigation::kQuarantine: return "quarantine";
  }
  return "unknown";
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0;
  const auto mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  double m = v[mid];
  if (v.size() % 2 == 0) {
    // Lower middle is the max of the left half after nth_element.
    const double lo =
        *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
    m = 0.5 * (lo + m);
  }
  return m;
}

double mad_of(const std::vector<double>& v, double center) {
  if (v.empty()) return 0;
  std::vector<double> dev;
  dev.reserve(v.size());
  for (double x : v) dev.push_back(std::abs(x - center));
  return median_of(std::move(dev));
}

double hash01(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  // SplitMix64-style finalizer over a simple combination of the keys.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (a + 1) +
                    0xd1342543de82ef95ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

SlowRankDetector::SlowRankDetector(int nranks, double mad_floor_frac)
    : mad_floor_frac_(mad_floor_frac) {
  F3D_CHECK_MSG(nranks >= 1, "SlowRankDetector needs at least one rank");
  F3D_CHECK_MSG(mad_floor_frac >= 0,
                "SlowRankDetector mad_floor_frac must be non-negative");
  ranks_.resize(static_cast<std::size_t>(nranks));
}

std::vector<int> SlowRankDetector::observe(
    int step, const std::vector<double>& rank_step_seconds,
    const std::vector<std::uint8_t>* alive) {
  const int n = nranks();
  F3D_CHECK_MSG(static_cast<int>(rank_step_seconds.size()) == n,
                "SlowRankDetector::observe: telemetry size != nranks");
  if (alive != nullptr)
    F3D_CHECK_MSG(static_cast<int>(alive->size()) == n,
                  "SlowRankDetector::observe: alive size != nranks");

  auto active = [&](int r) {
    const auto& st = ranks_[static_cast<std::size_t>(r)];
    if (st.health == RankHealth::kQuarantined) return false;
    return alive == nullptr || (*alive)[static_cast<std::size_t>(r)] != 0;
  };

  std::vector<double> sample;
  sample.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r)
    if (active(r)) sample.push_back(rank_step_seconds[static_cast<std::size_t>(r)]);
  std::vector<int> confirmed;
  if (sample.size() < 3) return confirmed;  // no robust baseline

  const double med = median_of(sample);
  const double mad = mad_of(sample, med);
  const double sigma =
      kMadToSigma * std::max(mad, mad_floor_frac_ * std::abs(med));

  auto& registry = obs::Registry::global();
  for (int r = 0; r < n; ++r) {
    auto& st = ranks_[static_cast<std::size_t>(r)];
    if (!active(r)) {
      st.last_z = 0;
      continue;
    }
    const double x = rank_step_seconds[static_cast<std::size_t>(r)];
    const double z = sigma > 0 ? (x - med) / sigma : 0;
    st.last_z = z;
    const bool suspect = z > kDetectorZThreshold;
    st.mask = ((st.mask << 1) | (suspect ? 1ULL : 0ULL)) & kWindowMask;
    if (suspect) {
      ++suspected_events_;
      registry.count("par.slow_suspected");
      if (st.first_suspect_step < 0) st.first_suspect_step = step;
    } else if (st.mask == 0) {
      st.first_suspect_step = -1;  // suspicion run fully aged out
    }
    const int hits = std::popcount(st.mask);
    if (st.health != RankHealth::kConfirmedSlow) {
      if (hits >= kDetectorConfirm) {
        st.health = RankHealth::kConfirmedSlow;
        st.confirm_latency = step - st.first_suspect_step + 1;
        ++confirmed_ranks_;
        registry.count("par.slow_confirmed");
        registry.set_gauge("par.slow_detect_latency_steps",
                           static_cast<double>(st.confirm_latency));
        confirmed.push_back(r);
      } else {
        st.health =
            st.mask != 0 ? RankHealth::kSuspected : RankHealth::kHealthy;
      }
    }
  }
  return confirmed;
}

RankHealth SlowRankDetector::health(int rank) const {
  F3D_CHECK(rank >= 0 && rank < nranks());
  return ranks_[static_cast<std::size_t>(rank)].health;
}

double SlowRankDetector::last_z(int rank) const {
  F3D_CHECK(rank >= 0 && rank < nranks());
  return ranks_[static_cast<std::size_t>(rank)].last_z;
}

int SlowRankDetector::detect_latency(int rank) const {
  F3D_CHECK(rank >= 0 && rank < nranks());
  return ranks_[static_cast<std::size_t>(rank)].confirm_latency;
}

void SlowRankDetector::quarantine(int rank) {
  F3D_CHECK(rank >= 0 && rank < nranks());
  auto& st = ranks_[static_cast<std::size_t>(rank)];
  st.health = RankHealth::kQuarantined;
  st.mask = 0;
}

void SlowRankDetector::reset(int rank) {
  F3D_CHECK(rank >= 0 && rank < nranks());
  auto& st = ranks_[static_cast<std::size_t>(rank)];
  const int latency = st.confirm_latency;
  st = RankState{};
  st.confirm_latency = latency;  // keep the detection record
}

}  // namespace f3d::par
