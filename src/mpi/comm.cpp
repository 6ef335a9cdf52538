#include "mpi/comm.hpp"

#include <algorithm>
#include <stdexcept>

namespace parcoll::mpi {

Comm::Comm(std::uint64_t context_id, std::vector<int> members) {
  auto state = std::make_shared<State>();
  state->context_id = context_id;
  state->members = std::move(members);
  state->by_world.reserve(state->members.size());
  for (std::size_t local = 0; local < state->members.size(); ++local) {
    state->by_world.emplace_back(state->members[local],
                                 static_cast<int>(local));
  }
  std::sort(state->by_world.begin(), state->by_world.end());
  const auto duplicate = std::adjacent_find(
      state->by_world.begin(), state->by_world.end(),
      [](const auto& a, const auto& b) { return a.first == b.first; });
  if (duplicate != state->by_world.end()) {
    throw std::invalid_argument("Comm: duplicate member rank");
  }
  state_ = std::move(state);
}

int Comm::world_rank(int local) const {
  return state_->members.at(static_cast<std::size_t>(local));
}

int Comm::local_rank(int world) const {
  const auto& by_world = state_->by_world;
  const auto it = std::partition_point(
      by_world.begin(), by_world.end(),
      [world](const std::pair<int, int>& entry) { return entry.first < world; });
  return it != by_world.end() && it->first == world ? it->second : -1;
}

}  // namespace parcoll::mpi
