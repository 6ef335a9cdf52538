// Aggregator distribution: the paper's Fig. 5 examples verified exactly,
// plus the three requirements of §4.2.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "mpiio/aggregator_dist.hpp"

namespace parcoll::mpiio {
namespace {

mpi::Comm world_comm(int n) {
  std::vector<int> members(static_cast<std::size_t>(n));
  std::iota(members.begin(), members.end(), 0);
  return mpi::Comm(1, std::move(members));
}

TEST(AggregatorDist, PaperFig5BlockMapping) {
  // Block: N0(P0,P1) N1(P2,P3) N2(P4,P5) N3(P6,P7); aggregators N0..N3;
  // SubGroup1 = P0..P3, SubGroup2 = P4..P7.
  const machine::Topology topo(8, 2, machine::Mapping::Block);
  const auto comm = world_comm(8);
  const std::vector<int> nodes{0, 1, 2, 3};
  const std::vector<int> groups{0, 0, 0, 0, 1, 1, 1, 1};
  const auto result = distribute_aggregators(topo, comm, nodes, groups, 2);
  // Paper: SubGroup1 -> N0(P0), N1(P2); SubGroup2 -> N2(P4), N3(P6).
  EXPECT_EQ(result[0], (std::vector<int>{0, 2}));
  EXPECT_EQ(result[1], (std::vector<int>{4, 6}));
}

TEST(AggregatorDist, PaperFig5CyclicMapping) {
  // Cyclic: N0(P0,P4) N1(P1,P5) N2(P2,P6) N3(P3,P7); aggregators N0,N2,N3.
  const machine::Topology topo(8, 2, machine::Mapping::Cyclic);
  const auto comm = world_comm(8);
  const std::vector<int> nodes{0, 2, 3};
  const std::vector<int> groups{0, 0, 0, 0, 1, 1, 1, 1};
  const auto result = distribute_aggregators(topo, comm, nodes, groups, 2);
  // Paper: SubGroup1 -> N0(P0), N3(P3); SubGroup2 -> N2(P6).
  EXPECT_EQ(result[0], (std::vector<int>{0, 3}));
  EXPECT_EQ(result[1], (std::vector<int>{6}));
}

TEST(AggregatorDist, RequirementEverySubgroupGetsAtLeastOne) {
  // All aggregator nodes host only group-0 processes; group 1 must still
  // get an aggregator via promotion.
  const machine::Topology topo(8, 2, machine::Mapping::Block);
  const auto comm = world_comm(8);
  const std::vector<int> nodes{0, 1};  // nodes of ranks 0..3 only
  const std::vector<int> groups{0, 0, 0, 0, 1, 1, 1, 1};
  const auto result = distribute_aggregators(topo, comm, nodes, groups, 2);
  ASSERT_FALSE(result[1].empty());
  EXPECT_EQ(result[1], (std::vector<int>{4}));  // lowest member promoted
}

TEST(AggregatorDist, RequirementNoNodeServesTwoSubgroups) {
  // Cyclic mapping puts both groups on every node; each node must still be
  // assigned to exactly one subgroup.
  const machine::Topology topo(16, 2, machine::Mapping::Cyclic);
  const auto comm = world_comm(16);
  std::vector<int> nodes(8);
  std::iota(nodes.begin(), nodes.end(), 0);
  std::vector<int> groups(16);
  for (int r = 0; r < 16; ++r) groups[static_cast<std::size_t>(r)] = r / 4;
  const auto result = distribute_aggregators(topo, comm, nodes, groups, 4);
  std::set<int> used_nodes;
  for (const auto& group_aggs : result) {
    for (int local : group_aggs) {
      const int node = topo.node_of(comm.world_rank(local));
      EXPECT_TRUE(used_nodes.insert(node).second)
          << "node " << node << " serves two subgroups";
    }
  }
}

TEST(AggregatorDist, RequirementEvenDistribution) {
  const machine::Topology topo(32, 2, machine::Mapping::Block);
  const auto comm = world_comm(32);
  std::vector<int> nodes(16);
  std::iota(nodes.begin(), nodes.end(), 0);
  std::vector<int> groups(32);
  for (int r = 0; r < 32; ++r) groups[static_cast<std::size_t>(r)] = r / 8;
  const auto result = distribute_aggregators(topo, comm, nodes, groups, 4);
  for (const auto& group_aggs : result) {
    EXPECT_EQ(group_aggs.size(), 4u);  // 16 nodes over 4 groups
  }
}

TEST(AggregatorDist, RoundRobinLeavesExtraToEarlierGroups) {
  // 3 nodes, 2 groups: first round gives one each, the remainder goes to
  // the earlier group (paper: "the third one is then left to Subgroup 1").
  const machine::Topology topo(6, 2, machine::Mapping::Block);
  const auto comm = world_comm(6);
  const std::vector<int> nodes{0, 1, 2};
  const std::vector<int> groups{0, 0, 0, 1, 1, 1};
  // Block: N0(P0,P1) N1(P2,P3) N2(P4,P5); group0 = {0,1,2}, group1 = {3,4,5}.
  const auto result = distribute_aggregators(topo, comm, nodes, groups, 2);
  // g0: N0(P0); g1: N1(P3); round 2: g0 cannot take N2 (hosts only P4,P5 of
  // g1)... so N2 goes to g1 in a later round.
  EXPECT_EQ(result[0], (std::vector<int>{0}));
  EXPECT_EQ(result[1], (std::vector<int>{3, 4}));
}

TEST(AggregatorDist, AggregatorIsLowestRankedMemberOnItsNode) {
  const machine::Topology topo(8, 4, machine::Mapping::Block);  // 2 nodes
  const auto comm = world_comm(8);
  const std::vector<int> nodes{0, 1};
  const std::vector<int> groups{0, 1, 0, 1, 0, 1, 0, 1};
  const auto result = distribute_aggregators(topo, comm, nodes, groups, 2);
  // Node 0 hosts {0,1,2,3}: group 0's lowest there is 0.
  EXPECT_EQ(result[0], (std::vector<int>{0}));
  // Node 1 hosts {4,5,6,7}: group 1's lowest there is 5.
  EXPECT_EQ(result[1], (std::vector<int>{5}));
}

TEST(AggregatorDist, SingleGroupTakesAllNodes) {
  const machine::Topology topo(8, 2, machine::Mapping::Block);
  const auto comm = world_comm(8);
  const std::vector<int> nodes{0, 1, 2, 3};
  const std::vector<int> groups(8, 0);
  const auto result = distribute_aggregators(topo, comm, nodes, groups, 1);
  EXPECT_EQ(result[0], (std::vector<int>{0, 2, 4, 6}));
}

TEST(AggregatorDist, UnorderedListWithRepeatAndEmptyNode) {
  // Four interleaved groups over the 16 nodes hosting the communicator; the
  // explicit list is unordered, names node 3 twice and node 16, which hosts
  // no member. The pinned rosters guard each group's resumed scan.
  const machine::Topology topo(34, 2, machine::Mapping::Block);  // 17 nodes
  const auto comm = world_comm(32);  // nodes 0..15
  std::vector<int> groups(32);
  for (int r = 0; r < 32; ++r) groups[static_cast<std::size_t>(r)] = (r / 3) % 4;
  const std::vector<int> nodes{9, 3,  16, 12, 0,  3,  15, 6, 1,
                               10, 7, 13, 2,  4, 11, 14, 5, 8};
  const auto result = distribute_aggregators(topo, comm, nodes, groups, 4);
  ASSERT_EQ(result.size(), 4u);
  EXPECT_EQ(result[0], (std::vector<int>{0, 12, 24}));
  EXPECT_EQ(result[1], (std::vector<int>{3, 4, 15, 16, 27, 28}));
  EXPECT_EQ(result[2], (std::vector<int>{6, 18, 30}));
  EXPECT_EQ(result[3], (std::vector<int>{9, 10, 21, 22}));
  // One group takes every listed node that hosts a member, once.
  EXPECT_EQ(distribute_aggregators(topo, comm, nodes, std::vector<int>(32, 0),
                                   1)[0],
            (std::vector<int>{0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24,
                              26, 28, 30}));
}

TEST(AggregatorDist, GroupMapSizeMismatchThrows) {
  const machine::Topology topo(8, 2, machine::Mapping::Block);
  const auto comm = world_comm(8);
  EXPECT_THROW(
      distribute_aggregators(topo, comm, {0}, std::vector<int>(4, 0), 1),
      std::invalid_argument);
}

TEST(AggregatorNodeList, DefaultAllNodesInOrder) {
  const machine::Topology topo(8, 2, machine::Mapping::Block);
  const auto comm = world_comm(8);
  EXPECT_EQ(aggregator_node_list(topo, comm, {}, 0),
            (std::vector<int>{0, 1, 2, 3}));
}

TEST(AggregatorNodeList, CbNodesTruncatesAndListOverrides) {
  const machine::Topology topo(8, 2, machine::Mapping::Block);
  const auto comm = world_comm(8);
  EXPECT_EQ(aggregator_node_list(topo, comm, {}, 2), (std::vector<int>{0, 1}));
  EXPECT_EQ(aggregator_node_list(topo, comm, {3, 1, 2}, 2),
            (std::vector<int>{3, 1}));
}

}  // namespace
}  // namespace parcoll::mpiio
