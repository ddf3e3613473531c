#include "resilience/buddy.hpp"

#include <cstring>

#include "common/crc32.hpp"
#include "common/error.hpp"

namespace f3d::resilience {

BuddyStore::BuddyStore(int ranks) : ranks_(ranks) {
  F3D_CHECK(ranks >= 1);
  alive_.assign(static_cast<std::size_t>(ranks), 1);
  copies_.resize(static_cast<std::size_t>(ranks));
}

bool BuddyStore::alive(int rank) const {
  F3D_CHECK(rank >= 0 && rank < ranks_);
  return alive_[static_cast<std::size_t>(rank)] != 0;
}

int BuddyStore::buddy_of(int rank) const {
  F3D_CHECK(rank >= 0 && rank < ranks_);
  for (int step = 1; step < ranks_; ++step) {
    const int r = (rank + step) % ranks_;
    if (alive_[static_cast<std::size_t>(r)] != 0) return r;
  }
  return -1;
}

std::string BuddyStore::make_frame(const std::string& payload) {
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  std::string frame(sizeof(crc), '\0');
  std::memcpy(frame.data(), &crc, sizeof(crc));
  frame += payload;
  return frame;
}

std::optional<std::string> BuddyStore::open_frame(const std::string& frame) {
  std::uint32_t crc = 0;
  if (frame.size() < sizeof(crc)) return std::nullopt;
  std::memcpy(&crc, frame.data(), sizeof(crc));
  std::string payload = frame.substr(sizeof(crc));
  if (crc32(payload.data(), payload.size()) != crc) return std::nullopt;
  return payload;
}

bool BuddyStore::store(int rank, const std::string& payload) {
  F3D_CHECK(rank >= 0 && rank < ranks_);
  if (alive_[static_cast<std::size_t>(rank)] == 0) return false;
  auto& own = copies_[static_cast<std::size_t>(rank)];
  own.clear();
  own.push_back({rank, make_frame(payload)});
  const int buddy = buddy_of(rank);
  if (buddy < 0) return false;
  own.push_back({buddy, make_frame(payload)});
  return true;
}

void BuddyStore::fail_rank(int rank) {
  F3D_CHECK(rank >= 0 && rank < ranks_);
  alive_[static_cast<std::size_t>(rank)] = 0;
  for (auto& per_owner : copies_) {
    std::erase_if(per_owner, [rank](const Copy& c) { return c.holder == rank; });
  }
}

void BuddyStore::revive_rank(int rank) {
  F3D_CHECK(rank >= 0 && rank < ranks_);
  alive_[static_cast<std::size_t>(rank)] = 1;
}

std::optional<std::string> BuddyStore::retrieve(int rank) const {
  F3D_CHECK(rank >= 0 && rank < ranks_);
  // Prefer the local copy, then the buddy copy — both CRC-gated.
  const auto& per_owner = copies_[static_cast<std::size_t>(rank)];
  for (const auto& c : per_owner) {
    if (c.holder == rank && alive_[static_cast<std::size_t>(c.holder)] != 0)
      if (auto payload = open_frame(c.frame)) return payload;
  }
  for (const auto& c : per_owner) {
    if (c.holder != rank && alive_[static_cast<std::size_t>(c.holder)] != 0)
      if (auto payload = open_frame(c.frame)) return payload;
  }
  return std::nullopt;
}

int BuddyStore::copies(int rank) const {
  F3D_CHECK(rank >= 0 && rank < ranks_);
  int n = 0;
  for (const auto& c : copies_[static_cast<std::size_t>(rank)])
    if (alive_[static_cast<std::size_t>(c.holder)] != 0) ++n;
  return n;
}

std::string* BuddyStore::frame_for_test(int owner, int holder) {
  F3D_CHECK(owner >= 0 && owner < ranks_);
  for (auto& c : copies_[static_cast<std::size_t>(owner)])
    if (c.holder == holder) return &c.frame;
  return nullptr;
}

}  // namespace f3d::resilience
