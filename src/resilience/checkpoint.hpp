#pragma once
// Checkpoint/restart for the psi-NKS driver: exactly what ptc_solve
// resumes to continue a killed run bit-identically — the state vector
// (raw IEEE-754 bytes, no text round-trip), the continuation state (step
// index, residual norms, CFL relaxation), the escalation state of the
// recovery ladder, the fault injector's stream position, and the
// recovery log so far. Writes are atomic (temp file + rename) so a kill
// during a checkpoint leaves the previous one intact.
//
// Format (version 4): an 8-byte magic, a little-endian format version, a
// CRC32 over the payload, and the payload length — so a truncated or
// bit-flipped checkpoint is rejected with nullopt instead of being
// deserialized into garbage. encode/decode expose the same format as an
// in-memory byte string for the diskless buddy checkpointing of
// resilience/buddy.hpp.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "resilience/faults.hpp"
#include "resilience/recovery.hpp"

namespace f3d::resilience {

struct PtcCheckpoint {
  // Outer-loop position. Every step before `step` was accepted, so it is
  // also the accepted-step count.
  std::int64_t step = 0;  ///< next pseudo-timestep to execute
  std::vector<double> x;  ///< state vector, bit-exact

  // Continuation state (SER law inputs).
  double rnorm = 0;      ///< steady residual norm at the checkpoint
  double r0 = 0;         ///< initial residual norm of the original run
  double cfl_relax = 1;  ///< recovery ladder's CFL backtrack multiplier

  // Result counters carried across the restart.
  std::int64_t function_evaluations = 0;
  std::int64_t total_linear_iterations = 0;

  // Recovery-ladder escalation state.
  std::int32_t gmres_restart = 0;  ///< escalated restart length (0 = unset)
  std::int32_t krylov = 0;         ///< active Krylov method (PtcOptions::Krylov)

  // Fault injector stream position (reproducible campaigns), when one was
  // registered. The state carries every site's draw/fire counts and armed
  // magnitude — including the kRank straggler severity and the kRankFail
  // per-rank process — so kill/resume with parallel faults armed stays
  // bit-identical.
  std::optional<FaultInjector::State> injector;

  RecoveryLog log;
};

/// Current on-disk/in-memory format version (see header comment).
inline constexpr std::uint32_t kCheckpointFormatVersion = 4;

/// Serialize to a self-validating byte string (magic + version + CRC32 +
/// payload) — the exact bytes save_checkpoint writes to disk.
std::string encode_checkpoint(const PtcCheckpoint& ck);

/// Inverse of encode_checkpoint. Returns nullopt if the bytes are not a
/// checkpoint, are a different format version, are truncated, or fail the
/// CRC — corruption is always rejected, never deserialized.
std::optional<PtcCheckpoint> decode_checkpoint(const std::string& bytes);

/// Serialize to `path` failure-atomically: write `path + ".tmp"`, flush
/// and check every byte, rotate any existing primary to `path + ".prev"`,
/// then atomically rename the temp into place. A crash or full disk at
/// any point leaves either the new checkpoint, the old one, or both the
/// old one and a rejected partial — never a silently-corrupt primary
/// with no fallback. Returns false on any I/O failure.
bool save_checkpoint(const std::string& path, const PtcCheckpoint& ck);

/// Returns nullopt if the file is missing, truncated, corrupt (CRC
/// mismatch), or not a checkpoint of the current format version.
std::optional<PtcCheckpoint> load_checkpoint(const std::string& path);

/// load_checkpoint on the primary, falling back to the previous verified
/// generation (`path + ".prev"`, kept by save_checkpoint) when the
/// primary is missing or fails validation — e.g. a torn write discovered
/// at restore time. `loaded_from`, if given, receives the path actually
/// restored. Counts obs `resilience.checkpoint_fallbacks` on fallback.
std::optional<PtcCheckpoint> load_checkpoint_with_fallback(
    const std::string& path, std::string* loaded_from = nullptr);

}  // namespace f3d::resilience
