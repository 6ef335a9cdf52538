// Hierarchical (two-level) coordination collectives.
//
// Each operation is staged: members funnel their contributions to the node
// leader over the node communicator, leaders run the inter-node exchange
// over the leader communicator, and results fan back out within the node.
// The expensive stage therefore runs over num_nodes participants instead of
// P — the same participant reduction the intra-node aggregation applies to
// the two-phase data exchange, applied to ParColl's partition exchange and
// re-election agreement.
//
// Every variant degenerates to the flat collective when no node hosts two
// members (NodeLayout::multi == false), so results — and, in that case, the
// timing — are identical to the single-level protocol.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "mpi/collectives.hpp"
#include "mpi/runtime.hpp"
#include "node/nodecomm.hpp"

namespace parcoll::node {

/// An allgather of one value per rank staged through the node leaders,
/// with `build` run once over every value in parent local-rank order, as
/// mpi::allgather_build over the parent runs it: the leaders' stage builds,
/// and each leader publishes the one result to its node, so every member
/// receives the same immutable R and none holds the P values.
template <typename R, typename T, typename Build>
std::shared_ptr<const R> hier_allgather(mpi::Rank& self, const NodeComm& nc,
                                        const T& value, Build&& build) {
  if (!nc.multi()) {
    return mpi::allgather_build<R>(self, nc.parent(), value, build);
  }
  // Stage 1: node members deposit their values at the leader.
  auto node_vals =
      mpi::gather(self, nc.node_comm(), nc.leader_node_local, value);
  // Stage 2: leaders exchange whole node vectors (an allgatherv); the last
  // arriver places every node's values by parent rank once and builds.
  struct Assembled {
    std::vector<T> values;
    std::shared_ptr<const R> built;
  };
  std::shared_ptr<const Assembled> assembled;
  if (nc.i_lead()) {
    const auto& layout = *nc.layout;
    const int parent_size = nc.parent().size();
    assembled = mpi::coll_build<Assembled>(
        self, nc.leader_comm(), mpi::CollKind::Allgather,
        mpi::detail::bytes_of(node_vals),
        [&layout, parent_size, &build](mpi::CollContribs per_node) {
          Assembled out;
          out.values.resize(static_cast<std::size_t>(parent_size));
          for (std::size_t n = 0; n < per_node.size(); ++n) {
            const auto values = mpi::detail::vector_from<T>(per_node[n]);
            for (std::size_t i = 0; i < values.size(); ++i) {
              out.values[static_cast<std::size_t>(
                  layout.node_members[n][i])] = values[i];
            }
          }
          out.built =
              std::make_shared<const R>(build(std::as_const(out.values)));
          return out;
        });
  }
  // Stage 3: the leader broadcasts the P values within the node (the
  // charge) and publishes the one result, so no member copies them.
  return mpi::coll_publish<R>(
      self, nc.node_comm(), mpi::CollKind::Bcast,
      nc.i_lead() ? mpi::detail::bytes_of(assembled->values)
                  : std::span<const std::byte>{},
      nc.i_lead() ? assembled->built : nullptr);
}

/// Max-allreduce staged through the node leaders: reduce within the node,
/// allreduce across leaders, broadcast back.
template <typename T>
T hier_allreduce_max(mpi::Rank& self, const NodeComm& nc, const T& value) {
  if (!nc.multi()) {
    return mpi::allreduce_max(self, nc.parent(), value);
  }
  auto node_vals =
      mpi::gather(self, nc.node_comm(), nc.leader_node_local, value);
  T accum = value;
  if (nc.i_lead()) {
    accum = mpi::allreduce_max(self, nc.leader_comm(),
                               *std::max_element(node_vals.begin(),
                                                 node_vals.end()));
  }
  return mpi::bcast(self, nc.node_comm(), nc.leader_node_local, accum);
}

}  // namespace parcoll::node
