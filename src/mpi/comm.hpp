// Communicators for the simulated MPI.
//
// A communicator is an ordered set of world ranks plus a context id that
// isolates its point-to-point and collective traffic, just as in MPI.
// Comm is a cheap value type (shared immutable state).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace parcoll::mpi {

class Comm {
 public:
  Comm() = default;

  /// Build a communicator over `members` (world ranks; index = local rank).
  Comm(std::uint64_t context_id, std::vector<int> members);

  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  [[nodiscard]] std::uint64_t context_id() const { return state_->context_id; }
  [[nodiscard]] int size() const { return static_cast<int>(state_->members.size()); }

  /// World rank of local rank `local`.
  [[nodiscard]] int world_rank(int local) const;

  /// Local rank of `world` within this communicator, or -1 if not a member.
  [[nodiscard]] int local_rank(int world) const;

  [[nodiscard]] const std::vector<int>& members() const { return state_->members; }

  friend bool operator==(const Comm& a, const Comm& b) {
    return a.state_ == b.state_;
  }

 private:
  struct State {
    std::uint64_t context_id = 0;
    std::vector<int> members;
    /// (world rank, local rank) of every member, ascending by world rank.
    std::vector<std::pair<int, int>> by_world;
  };
  std::shared_ptr<const State> state_;
};

}  // namespace parcoll::mpi
