#pragma once
// Buddy (diskless neighbor) checkpointing: every rank keeps its
// checkpoint payload in its own memory and mirrors it to the next alive
// rank on a ring, so a fail-stop rank loss is survivable without any
// disk I/O — the survivor hands the dead rank's last state back to its
// replacement (spare-rank policy) or to the ranks absorbing its
// subdomain (shrink-and-repartition). Every stored copy is framed with a
// CRC32 so a corrupted copy is detected and skipped rather than
// restored. Only the simultaneous loss of a rank and its buddy (before a
// re-mirror) loses state — the classic double-failure window of diskless
// checkpointing, which simulate_campaign reports as an unrecoverable
// campaign.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace f3d::resilience {

class BuddyStore {
public:
  explicit BuddyStore(int ranks);

  [[nodiscard]] int ranks() const { return ranks_; }
  [[nodiscard]] bool alive(int rank) const;

  /// Next alive rank after `rank` on the ring (the mirror target);
  /// -1 when no other rank is alive.
  [[nodiscard]] int buddy_of(int rank) const;

  /// Keep `payload` as `rank`'s checkpoint: one copy locally, one on the
  /// buddy. Replaces any previous copies. Returns false if `rank` is dead
  /// or no buddy exists (the local copy is still kept in that case).
  bool store(int rank, const std::string& payload);

  /// Fail-stop loss of `rank`: everything physically held on it — its own
  /// copy and any buddy copies it kept for others — is gone.
  void fail_rank(int rank);

  /// A replacement (spare) took over the logical rank: the slot is alive
  /// again but holds no data until the next store().
  void revive_rank(int rank);

  /// `rank`'s payload from any surviving, CRC-valid copy (local copy
  /// first, then the buddy copy). nullopt = state lost or corrupt.
  [[nodiscard]] std::optional<std::string> retrieve(int rank) const;

  /// Surviving copies of `rank`'s payload (0-2); CRC not checked.
  [[nodiscard]] int copies(int rank) const;

  /// Test hook: mutable framed bytes of the copy of `owner`'s payload held
  /// on `holder` (nullptr if absent). Lets tests flip a byte and assert
  /// the CRC rejects the copy.
  std::string* frame_for_test(int owner, int holder);

private:
  struct Copy {
    int holder = -1;      ///< rank whose memory physically holds the frame
    std::string frame;    ///< [u32 crc][payload]
  };
  static std::string make_frame(const std::string& payload);
  static std::optional<std::string> open_frame(const std::string& frame);

  int ranks_ = 0;
  std::vector<std::uint8_t> alive_;
  std::vector<std::vector<Copy>> copies_;  ///< indexed by owner rank
};

}  // namespace f3d::resilience
