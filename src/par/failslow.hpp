#pragma once
// Fail-slow tolerance for the virtual parallel machine: the outlier
// detector that turns per-rank step-time telemetry into slow-rank
// verdicts, and the mitigation-ladder vocabulary the campaign driver
// (par::simulate_campaign) and bench_failslow share.
//
// A fail-slow rank degrades without dying — thermal throttle, a sick
// NIC, OS noise — so there is no hard failure event to react to, only a
// statistical signature in the telemetry. The detector is deliberately
// robust rather than clever: per step it computes the median and MAD of
// the alive ranks' busy times and flags any rank whose robust z-score
//
//   z_r = (x_r - median) / (1.4826 * max(MAD, mad_floor_frac * median))
//
// exceeds kDetectorZThreshold; a rank is *confirmed* slow once it was
// flagged on kDetectorConfirm of the last kDetectorWindow steps.
// Median/MAD (not mean/stddev) keeps the baseline itself immune to the
// straggler it is hunting, and the MAD floor keeps a near-degenerate
// spread (every rank identical up to jitter) from amplifying benign noise
// into a detection. The false-positive bound: noise bounded by +/-b
// (relative) moves any sample at most 2b from the sample median, so with
// mad_floor_frac >= b the clean z-score never exceeds 2b / (1.4826 * b)
// ~= 1.35 — far under the threshold of 4, for ANY noise amplitude. The
// campaign driver floors the sigma at the machine's own jitter amplitude
// for exactly this reason; that is the clean-campaign
// zero-false-positive guarantee the tier-1 tests pin down.

#include <cstdint>
#include <vector>

namespace f3d::par {

/// How far up the mitigation ladder a campaign is allowed to climb once
/// the detector confirms a slow rank. Each rung includes the ones below.
enum class SlowMitigation {
  kNone = 0,        ///< detect and log only (the control arm)
  kRetry,           ///< halo timeout + capped-backoff re-post on the
                    ///< fallback path (CommReliability::halo_timeout_us)
  kRepartition,     ///< + shift load off the slow rank in proportion to
                    ///< its measured speed (part::repartition_for_imbalance)
  kQuarantine,      ///< + migrate the confirmed-slow rank to a spare and
                    ///< retune the checkpoint interval (Young/Daly) for
                    ///< the observed fail-slow escalation rate
};
[[nodiscard]] const char* slow_mitigation_name(SlowMitigation m);

/// Detector verdict for one rank.
enum class RankHealth {
  kHealthy = 0,
  kSuspected,      ///< outlier on >= 1 of the last kDetectorWindow steps
  kConfirmedSlow,  ///< outlier on >= kDetectorConfirm of those steps
  kQuarantined,    ///< confirmed and migrated off; ignored until reset
};

// Detector thresholds (see the z-score above): the z-score that makes a
// rank suspected, the sliding window in steps, and the suspected steps
// within it that confirm a rank slow.
inline constexpr double kDetectorZThreshold = 4.0;
inline constexpr int kDetectorWindow = 8;
inline constexpr int kDetectorConfirm = 3;
/// Default floor on the robust sigma, as a fraction of the step median;
/// suits sub-1% noise.
inline constexpr double kDetectorMadFloorFrac = 0.005;

/// Sliding-window median/MAD outlier detector over per-rank step times.
/// Deterministic and thread-count independent: verdicts depend only on
/// the observed time vectors, never on iteration order or wall clock.
///
/// Tallies into obs::Registry::global():
///   counter `par.slow_suspected`  — one per (rank, step) outlier flag
///   counter `par.slow_confirmed`  — one per rank crossing the confirm bar
///   gauge   `par.slow_detect_latency_steps` — steps from a rank's first
///           suspicion to its confirmation (last confirmation wins)
class SlowRankDetector {
 public:
  /// `mad_floor_frac` floors the robust sigma, as a fraction of the step
  /// median. This is the false-positive guard: benign noise bounded by
  /// +/-`b` (relative) can never produce |z| > 2b / (1.4826 *
  /// mad_floor_frac), so set the floor at (or above) the expected noise
  /// amplitude and clean z stays under ~1.35. The campaign driver raises
  /// it to the machine's jitter.
  explicit SlowRankDetector(int nranks,
                            double mad_floor_frac = kDetectorMadFloorFrac);

  /// Fold one step's telemetry in. `rank_step_seconds` holds one entry
  /// per rank; ranks that are dead or quarantined still occupy a slot
  /// (pass any value — they are excluded via `alive`, or pass nullptr
  /// for all-alive). Returns the ranks newly *confirmed* slow this step,
  /// ascending.
  std::vector<int> observe(int step,
                           const std::vector<double>& rank_step_seconds,
                           const std::vector<std::uint8_t>* alive = nullptr);

  [[nodiscard]] RankHealth health(int rank) const;
  /// Robust z-score of the rank at the last observed step (diagnostics).
  [[nodiscard]] double last_z(int rank) const;
  /// Steps from first suspicion to confirmation for a confirmed rank
  /// (-1 if never confirmed).
  [[nodiscard]] int detect_latency(int rank) const;

  /// Mark a confirmed rank as migrated off; observe() ignores it.
  void quarantine(int rank);
  /// A fresh processor took the logical rank over (spare migration):
  /// clear its history and start it healthy.
  void reset(int rank);

  [[nodiscard]] int suspected_events() const { return suspected_events_; }
  [[nodiscard]] int confirmed_ranks() const { return confirmed_ranks_; }
  [[nodiscard]] int nranks() const { return static_cast<int>(ranks_.size()); }

 private:
  struct RankState {
    std::uint64_t mask = 0;  ///< bit i = suspected on the i-th last step
    RankHealth health = RankHealth::kHealthy;
    int first_suspect_step = -1;  ///< of the current suspicion run
    int confirm_latency = -1;
    double last_z = 0;
  };
  double mad_floor_frac_;
  std::vector<RankState> ranks_;
  int suspected_events_ = 0;
  int confirmed_ranks_ = 0;
};

/// Median of `v` (by value: the copy is sorted). Empty input returns 0.
[[nodiscard]] double median_of(std::vector<double> v);
/// Median absolute deviation of `v` around `center`.
[[nodiscard]] double mad_of(const std::vector<double>& v, double center);

/// Deterministic hash of (seed, a, b) to a uniform in [0, 1) — the
/// benign-noise generator for synthesized telemetry. A pure function:
/// consumes no PRNG draws, so it cannot perturb fault-injection streams.
[[nodiscard]] double hash01(std::uint64_t seed, std::uint64_t a,
                            std::uint64_t b);

}  // namespace f3d::par
