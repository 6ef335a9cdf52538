// Two-level process organization: per-node sub-communicators and leaders.
//
// Kang et al. ("Improving MPI Collective I/O Performance With Intra-node
// Request Aggregation") observe that the global coordination cost of
// two-phase collective I/O is a function of the number of *participants*,
// and that processes sharing a physical node can combine their requests
// over memory first, so only one process per node joins the inter-node
// exchange. A NodeLayout captures the structure that makes that possible:
//
//   parent       the communicator a collective call runs over
//   node_comms   per physical node, the parent members it hosts
//   leader_comm  one elected leader per node (the inter-node participants)
//
// Construction is deterministic and communication-free: node membership is
// a pure function of the parent communicator and the machine topology
// (correct under both Block and Cyclic mappings), and the derived context
// ids are stable hashes of the parent context — every member computes the
// identical communicators without exchanging a byte, exactly like ROMIO
// deriving its aggregator layout from the static process map. The layout
// is therefore built once per (communicator, leader policy), by the first
// member that asks, and shared; each caller gets a NodeComm, a small view
// saying where it sits in the layout.
#pragma once

#include <memory>
#include <vector>

#include "machine/topology.hpp"
#include "mpi/comm.hpp"
#include "mpi/runtime.hpp"
#include "node/options.hpp"

namespace parcoll::node {

/// The comm-global two-level structure: identical on every member.
struct NodeLayout {
  mpi::Comm parent;
  /// One leader per occupied node, ordered by node index. Every rank holds
  /// the same member list, but only leaders participate in its traffic.
  mpi::Comm leader_comm;
  /// Per node index: the members of `parent` hosted there, ordered by
  /// parent rank.
  std::vector<mpi::Comm> node_comms;

  /// True when some node hosts >= 2 parent members (two-level staging has
  /// something to aggregate).
  bool multi = false;
  /// Per node index: the leader's parent-local rank.
  std::vector<int> leaders;
  /// Per node index: all members' parent-local ranks, ascending.
  std::vector<std::vector<int>> node_members;
  /// Parent-local rank -> node index.
  std::vector<int> node_index_of;

  /// Map a set of parent-local ranks to the leader_comm-local ranks of the
  /// nodes hosting them (sorted, deduplicated). This is how an aggregator
  /// roster chosen over the parent (ParColl's Fig. 5 distribution, or a
  /// fault re-election) is carried into the leader-only inter-node stage.
  [[nodiscard]] std::vector<int> to_leader_locals(
      const std::vector<int>& parent_locals) const;
};

/// One member's view of its communicator's shared NodeLayout.
struct NodeComm {
  std::shared_ptr<const NodeLayout> layout;
  int my_parent_local = -1;
  /// Dense index (leader_comm local rank of my node's leader) of my node.
  int my_node_index = -1;
  /// My node's leader as a node_comm local rank.
  int leader_node_local = 0;

  [[nodiscard]] const mpi::Comm& parent() const { return layout->parent; }
  [[nodiscard]] const mpi::Comm& leader_comm() const {
    return layout->leader_comm;
  }
  /// Members of the parent on my physical node.
  [[nodiscard]] const mpi::Comm& node_comm() const {
    return layout->node_comms[static_cast<std::size_t>(my_node_index)];
  }
  [[nodiscard]] bool multi() const { return layout->multi; }
  [[nodiscard]] int num_nodes() const {
    return static_cast<int>(layout->leaders.size());
  }
  /// Whether the calling rank leads its node.
  [[nodiscard]] bool i_lead() const {
    return layout->leaders[static_cast<std::size_t>(my_node_index)] ==
           my_parent_local;
  }
};

/// The caller's view of the two-level structure of `comm`. The first member
/// to ask builds the layout and the world keeps it under the communicator's
/// context id and `policy`, so later calls, from any member, only look it
/// up. `topology` must be the world's. Charges no time and exchanges
/// nothing.
[[nodiscard]] NodeComm make_node_comm(mpi::Rank& self, const mpi::Comm& comm,
                                      const machine::Topology& topology,
                                      LeaderPolicy policy);

}  // namespace parcoll::node
