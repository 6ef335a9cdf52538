#include "mpiio/aggregator_dist.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>

namespace parcoll::mpiio {

std::vector<std::vector<int>> select_aggregators(
    const machine::Topology& topology, const mpi::Comm& comm,
    const Hints& hints, const std::vector<int>& group_of_rank,
    int num_groups) {
  if (hints.cb_node_list.empty() && hints.cb_nodes == 0) {
    std::vector<std::vector<int>> result(static_cast<std::size_t>(num_groups));
    for (int local = 0; local < comm.size(); ++local) {
      result[static_cast<std::size_t>(
                 group_of_rank[static_cast<std::size_t>(local)])]
          .push_back(local);
    }
    return result;
  }
  return distribute_aggregators(
      topology, comm,
      aggregator_node_list(topology, comm, hints.cb_node_list, hints.cb_nodes),
      group_of_rank, num_groups);
}

std::vector<int> aggregator_node_list(const machine::Topology& topology,
                                      const mpi::Comm& comm,
                                      const std::vector<int>& explicit_nodes,
                                      int cb_nodes) {
  std::vector<int> nodes;
  if (!explicit_nodes.empty()) {
    nodes = explicit_nodes;
  } else {
    std::vector<bool> seen(static_cast<std::size_t>(topology.num_nodes()), false);
    for (int local = 0; local < comm.size(); ++local) {
      const int node = topology.node_of(comm.world_rank(local));
      if (!seen[static_cast<std::size_t>(node)]) {
        seen[static_cast<std::size_t>(node)] = true;
        nodes.push_back(node);
      }
    }
    std::sort(nodes.begin(), nodes.end());
  }
  if (cb_nodes > 0 && static_cast<std::size_t>(cb_nodes) < nodes.size()) {
    nodes.resize(static_cast<std::size_t>(cb_nodes));
  }
  return nodes;
}

std::vector<std::vector<int>> distribute_aggregators(
    const machine::Topology& topology, const mpi::Comm& comm,
    const std::vector<int>& aggregator_nodes,
    const std::vector<int>& group_of_rank, int num_groups) {
  if (static_cast<int>(group_of_rank.size()) != comm.size()) {
    throw std::invalid_argument(
        "distribute_aggregators: group map size != comm size");
  }
  // Lowest comm-local rank per (node, group) and per group: locals come
  // in ascending order, so the first one seen is the lowest.
  std::unordered_map<std::int64_t, int> lowest_member;
  const auto key = [](int node, int group) {
    return static_cast<std::int64_t>(node) * 1000000 + group;
  };
  std::vector<int> lowest_in_group(static_cast<std::size_t>(num_groups), -1);
  for (int local = 0; local < comm.size(); ++local) {
    const int node = topology.node_of(comm.world_rank(local));
    const int group = group_of_rank[static_cast<std::size_t>(local)];
    lowest_member.emplace(key(node, group), local);
    if (lowest_in_group[static_cast<std::size_t>(group)] < 0) {
      lowest_in_group[static_cast<std::size_t>(group)] = local;
    }
  }

  std::vector<std::vector<int>> result(static_cast<std::size_t>(num_groups));
  std::vector<bool> node_taken(static_cast<std::size_t>(topology.num_nodes()),
                               false);
  // Each group scans the list once, from where it last stopped: a node it
  // passed over is taken or hosts none of its members, so it could never
  // serve the group later. One group over N nodes costs O(N).
  std::vector<std::size_t> cursor(static_cast<std::size_t>(num_groups), 0);

  // Round-robin over subgroups until no subgroup can take another node.
  for (bool progressed = true; progressed;) {
    progressed = false;
    for (int g = 0; g < num_groups; ++g) {
      std::size_t& at = cursor[static_cast<std::size_t>(g)];
      while (at < aggregator_nodes.size()) {
        const int node = aggregator_nodes[at++];
        if (node < 0 || node >= topology.num_nodes()) {
          throw std::out_of_range("distribute_aggregators: bad node id");
        }
        if (node_taken[static_cast<std::size_t>(node)]) continue;
        auto it = lowest_member.find(key(node, g));
        if (it == lowest_member.end()) continue;  // no member of g there
        node_taken[static_cast<std::size_t>(node)] = true;
        result[static_cast<std::size_t>(g)].push_back(it->second);
        progressed = true;
        break;
      }
    }
  }

  // Requirement (a): promote the lowest-ranked member of any group the
  // node list could not serve.
  for (int g = 0; g < num_groups; ++g) {
    auto& aggregators = result[static_cast<std::size_t>(g)];
    if (aggregators.empty() && lowest_in_group[static_cast<std::size_t>(g)] >= 0) {
      aggregators.push_back(lowest_in_group[static_cast<std::size_t>(g)]);
    }
    std::sort(aggregators.begin(), aggregators.end());
  }
  return result;
}

}  // namespace parcoll::mpiio
