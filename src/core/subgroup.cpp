#include "core/subgroup.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "mpi/collectives.hpp"
#include "mpiio/aggregator_dist.hpp"

namespace parcoll::core {

SharedGroupInfo plan_partition(const machine::Topology& topology,
                               const mpi::Comm& comm,
                               const std::vector<RankAccess>& accesses,
                               const mpiio::Hints& hints) {
  SharedGroupInfo info;
  info.fa = partition_file_areas(accesses, hints.parcoll_num_groups,
                                 hints.parcoll_min_group_size,
                                 hints.parcoll_view_switch);
  info.aggs_per_group = mpiio::select_aggregators(
      topology, comm, hints, info.fa.group_of_rank, info.fa.num_groups);
  return info;
}

SubgroupPlan form_subgroups(mpi::Rank& self, const mpi::Comm& comm,
                            std::shared_ptr<const SharedGroupInfo> partition) {
  const int me = comm.local_rank(self.rank());

  SubgroupPlan plan;
  plan.global = std::move(partition);
  const FileAreaPlan& fa = plan.global->fa;

  if (fa.mode == PartitionMode::SingleGroup) {
    plan.call.comm = comm;
    // Aliases the shared roster: no per-member copy.
    plan.call.aggregators =
        mpiio::Roster(plan.global, &plan.global->aggs_per_group[0]);
    return plan;
  }

  plan.my_group = fa.group_of_rank[static_cast<std::size_t>(me)];
  // The split is itself a (cheap, one-shot) global collective — ParColl
  // reduces synchronization, it does not eliminate the setup exchange.
  plan.call.comm = mpi::comm_split(self, comm, plan.my_group, me);

  // Convert my group's aggregators to subcomm-local ranks.
  std::vector<int> sub_aggregators;
  for (int local :
       plan.global->aggs_per_group[static_cast<std::size_t>(plan.my_group)]) {
    const int sub_local = plan.call.comm.local_rank(comm.world_rank(local));
    if (sub_local < 0) {
      throw std::logic_error("form_subgroups: aggregator not in subgroup");
    }
    sub_aggregators.push_back(sub_local);
  }
  std::sort(sub_aggregators.begin(), sub_aggregators.end());
  plan.call.aggregators = mpiio::make_roster(std::move(sub_aggregators));
  return plan;
}

std::vector<int> reelect_stalled_aggregators(
    const mpi::Comm& subcomm, const std::vector<int>& sub_aggregators,
    const fault::FaultPlan& plan, double agreed_now, int* replaced) {
  if (replaced != nullptr) {
    *replaced = 0;
  }
  auto stalled = [&](int sub_local) {
    return plan.stall_remaining(subcomm.world_rank(sub_local), agreed_now) >
           plan.agg_stall_threshold;
  };
  std::vector<int> roster = sub_aggregators;
  std::vector<char> is_agg(static_cast<std::size_t>(subcomm.size()), 0);
  for (int agg : roster) {
    is_agg[static_cast<std::size_t>(agg)] = 1;
  }
  for (int& agg : roster) {
    if (!stalled(agg)) {
      continue;
    }
    // Lowest healthy non-aggregator local rank substitutes — the same
    // deterministic choice on every member of the subgroup.
    for (int candidate = 0; candidate < subcomm.size(); ++candidate) {
      if (is_agg[static_cast<std::size_t>(candidate)] || stalled(candidate)) {
        continue;
      }
      is_agg[static_cast<std::size_t>(agg)] = 0;
      is_agg[static_cast<std::size_t>(candidate)] = 1;
      agg = candidate;
      if (replaced != nullptr) {
        ++*replaced;
      }
      break;
    }
  }
  std::sort(roster.begin(), roster.end());
  return roster;
}

}  // namespace parcoll::core
