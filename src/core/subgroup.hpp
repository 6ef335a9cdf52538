// Subgroup formation: FA partition + sub-communicator + aggregator
// distribution, bundled into the plan a partition's calls run on.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/file_area.hpp"
#include "machine/topology.hpp"
#include "mpi/comm.hpp"
#include "mpi/runtime.hpp"
#include "mpiio/ext2ph.hpp"
#include "mpiio/hints.hpp"
#include "node/nodecomm.hpp"

namespace parcoll::core {

/// How a collective call runs over one communicator: who aggregates and
/// whether it stages through node leaders. A pure function of the
/// communicator, the roster and the hints, made once per open file (a
/// plain call) or per partition (a ParColl subgroup).
struct CallPlan {
  mpi::Comm comm;
  mpiio::Roster aggregators;  // comm-local ranks, sorted
  /// This rank's view of `comm`'s nodes, when coordination funnels
  /// through node leaders.
  std::optional<node::NodeComm> nodes;
  /// `aggregators` mapped onto node leaders when the data path stages
  /// two-level; null when it stays flat.
  mpiio::Roster leader_aggregators;
};

/// The comm-global part of a subgroup plan — identical on every member of
/// the establishing collective, so every member shares one immutable copy
/// instead of holding its own P-sized vectors (quadratic on wide comms).
/// plan_partition makes it.
struct SharedGroupInfo {
  FileAreaPlan fa;
  /// Aggregators of every group, as parent-comm-local ranks.
  std::vector<std::vector<int>> aggs_per_group;
};

struct SubgroupPlan {
  /// Comm-global plan parts, one copy shared by all members.
  std::shared_ptr<const SharedGroupInfo> global;
  int my_group = 0;
  /// This rank's subgroup: its communicator (== the parent comm when the
  /// partition degenerates to a single group) and its aggregators as
  /// subcomm-local ranks. The collective engine adds the two-level route.
  CallPlan call;

  [[nodiscard]] const FileAreaPlan& fa() const { return global->fa; }
  [[nodiscard]] const std::vector<std::vector<int>>& aggs_per_group() const {
    return global->aggs_per_group;
  }
};

/// The partition of `comm` for its members' access summaries (`accesses`,
/// in comm-local rank order) under `hints`: the File Areas and every
/// group's aggregators, by mpiio::select_aggregators. A pure function of
/// collective-identical inputs, so it runs once, as the build of the
/// exchange that gathers `accesses`, and every member shares the result.
SharedGroupInfo plan_partition(const machine::Topology& topology,
                               const mpi::Comm& comm,
                               const std::vector<RankAccess>& accesses,
                               const mpiio::Hints& hints);

/// This rank's subgroup of `partition` (plan_partition's shared result).
/// Collective over `comm` when the partition has several groups: the
/// members split it into one communicator per group.
SubgroupPlan form_subgroups(mpi::Rank& self, const mpi::Comm& comm,
                            std::shared_ptr<const SharedGroupInfo> partition);

/// Degraded-mode aggregator re-election: replace every aggregator whose
/// remaining scheduled stall at `agreed_now` exceeds
/// plan.agg_stall_threshold by the first healthy non-aggregator member of
/// the subgroup (falling back to keeping the stalled one when no healthy
/// substitute exists). `sub_aggregators` and the result are subcomm-local
/// ranks. Pure function of its arguments, so every subgroup member that
/// calls it with the same agreed time computes the identical roster;
/// `replaced` (optional) receives the number of substitutions.
std::vector<int> reelect_stalled_aggregators(
    const mpi::Comm& subcomm, const std::vector<int>& sub_aggregators,
    const fault::FaultPlan& plan, double agreed_now, int* replaced = nullptr);

}  // namespace parcoll::core
