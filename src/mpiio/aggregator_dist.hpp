// I/O aggregator selection — paper §4.2, Fig. 5 — for a plain collective
// call (one group) and ParColl's subgroups alike.
//
// Without aggregator hints every process aggregates (the AD_sysio behaviour
// on Catamount: one single-threaded process per core). With them (a count
// taken from the default node list, or an explicit node list), the
// distribution algorithm traverses the subgroups round-robin; each subgroup
// in turn takes the first not-yet-assigned aggregator node that hosts one of
// its processes, and the chosen aggregator is that node's lowest-ranked
// process in the subgroup. This satisfies the paper's three requirements:
//   (a) every subgroup gets at least one aggregator (a fallback promotes a
//       subgroup's lowest rank when the node list cannot serve it);
//   (b) no physical node aggregates for two different subgroups;
//   (c) aggregators are spread as evenly as the grouping permits.
#pragma once

#include <vector>

#include "machine/topology.hpp"
#include "mpi/comm.hpp"
#include "mpiio/hints.hpp"

namespace parcoll::mpiio {

/// Who aggregates for each group of `comm` under `hints`: with neither
/// cb_nodes nor cb_node_list every member, for its own group; otherwise
/// distribute_aggregators over aggregator_node_list. `group_of_rank` maps
/// comm-local ranks to group ids. Result: per group, sorted local ranks.
std::vector<std::vector<int>> select_aggregators(
    const machine::Topology& topology, const mpi::Comm& comm,
    const Hints& hints, const std::vector<int>& group_of_rank,
    int num_groups);

/// For each group, the comm-local ranks serving as I/O aggregators (sorted
/// ascending). `aggregator_nodes` is the ordered node list (from hints or
/// the default); `group_of_rank` maps comm-local ranks to group ids.
std::vector<std::vector<int>> distribute_aggregators(
    const machine::Topology& topology, const mpi::Comm& comm,
    const std::vector<int>& aggregator_nodes,
    const std::vector<int>& group_of_rank, int num_groups);

/// The ordered aggregator-node list for `comm` under the hints' cb_nodes /
/// cb_node_list semantics: the explicit list if given, else every node
/// hosting a comm member (ascending), truncated to cb_nodes when positive.
std::vector<int> aggregator_node_list(const machine::Topology& topology,
                                      const mpi::Comm& comm,
                                      const std::vector<int>& explicit_nodes,
                                      int cb_nodes);

}  // namespace parcoll::mpiio
