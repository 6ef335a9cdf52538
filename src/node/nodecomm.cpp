#include "node/nodecomm.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "mpi/collectives.hpp"

namespace parcoll::node {

namespace {
// Context-derivation salts for the two derived communicators. Arbitrary but
// fixed: every rank must derive the same ids from the same parent context.
constexpr std::uint64_t kNodeSeq = 0x6e6f6465;    // "node"
constexpr std::uint64_t kLeaderSeq = 0x6c646572;  // "lder"

NodeLayout build_layout(const mpi::CollEngine& colls, const mpi::Comm& comm,
                        const machine::Topology& topology,
                        LeaderPolicy policy) {
  NodeLayout layout;
  layout.parent = comm;

  // Group parent members by physical node, dense-indexed in ascending
  // physical-node order. Members of comm are visited in local-rank order,
  // so each node's member list comes out ascending by parent local rank.
  std::vector<int> node_ids;  // physical id per node index
  node_ids.reserve(static_cast<std::size_t>(comm.size()));
  for (int world : comm.members()) {
    node_ids.push_back(topology.node_of(world));
  }
  std::sort(node_ids.begin(), node_ids.end());
  node_ids.erase(std::unique(node_ids.begin(), node_ids.end()), node_ids.end());
  layout.node_members.resize(node_ids.size());
  layout.node_index_of.resize(static_cast<std::size_t>(comm.size()));
  for (int local = 0; local < comm.size(); ++local) {
    const int node = topology.node_of(comm.world_rank(local));
    const auto at = std::lower_bound(node_ids.begin(), node_ids.end(), node) -
                    node_ids.begin();
    layout.node_index_of[static_cast<std::size_t>(local)] =
        static_cast<int>(at);
    layout.node_members[static_cast<std::size_t>(at)].push_back(local);
  }

  // Elect one leader per node and materialize the derived communicators.
  // Context ids are deterministic functions of the parent context, so no
  // exchange is needed.
  std::vector<int> leader_world;
  leader_world.reserve(node_ids.size());
  for (std::size_t n = 0; n < node_ids.size(); ++n) {
    const auto& members = layout.node_members[n];
    const std::size_t pick =
        policy == LeaderPolicy::Spread ? n % members.size() : 0;
    layout.leaders.push_back(members[pick]);
    leader_world.push_back(comm.world_rank(members[pick]));
    layout.multi = layout.multi || members.size() > 1;

    std::vector<int> node_world;
    node_world.reserve(members.size());
    for (int local : members) {
      node_world.push_back(comm.world_rank(local));
    }
    layout.node_comms.emplace_back(
        colls.derive_context(comm.context_id(), kNodeSeq, static_cast<int>(n)),
        std::move(node_world));
  }
  layout.leader_comm =
      mpi::Comm(colls.derive_context(comm.context_id(), kLeaderSeq, 0),
                std::move(leader_world));
  return layout;
}
}  // namespace

std::vector<int> NodeLayout::to_leader_locals(
    const std::vector<int>& parent_locals) const {
  std::vector<int> locals;
  locals.reserve(parent_locals.size());
  for (int parent_local : parent_locals) {
    locals.push_back(node_index_of[static_cast<std::size_t>(parent_local)]);
  }
  std::sort(locals.begin(), locals.end());
  locals.erase(std::unique(locals.begin(), locals.end()), locals.end());
  return locals;
}

NodeComm make_node_comm(mpi::Rank& self, const mpi::Comm& comm,
                        const machine::Topology& topology,
                        LeaderPolicy policy) {
  NodeComm nc;
  nc.my_parent_local = comm.local_rank(self.rank());
  if (nc.my_parent_local < 0) {
    throw std::logic_error("make_node_comm: caller not a member of comm");
  }
  // A context id names one communicator, so the id and the policy
  // identify the layout.
  const std::string key = "node:" + std::to_string(comm.context_id()) + ":" +
                          to_string(policy);
  nc.layout = self.world().shared_object<NodeLayout>(key, [&] {
    return std::make_shared<NodeLayout>(
        build_layout(self.world().colls(), comm, topology, policy));
  });
  nc.my_node_index =
      nc.layout->node_index_of[static_cast<std::size_t>(nc.my_parent_local)];
  const auto node = static_cast<std::size_t>(nc.my_node_index);
  const auto& members = nc.layout->node_members[node];
  nc.leader_node_local = static_cast<int>(
      std::find(members.begin(), members.end(), nc.layout->leaders[node]) -
      members.begin());
  return nc;
}

}  // namespace parcoll::node
