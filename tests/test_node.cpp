// Two-level collective I/O: NodeComm structure, hierarchical collective
// equivalence, and the bit-identity guarantees of the intra-node
// aggregation stage (off — or structurally inapplicable — must be
// indistinguishable from the historical single-level protocol).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/parcoll.hpp"
#include "machine/machine_model.hpp"
#include "mpi/collectives.hpp"
#include "mpi/runtime.hpp"
#include "mpiio/hints.hpp"
#include "node/hier_coll.hpp"
#include "node/nodecomm.hpp"
#include "node/options.hpp"
#include "workloads/btio.hpp"
#include "workloads/ior.hpp"
#include "workloads/tileio.hpp"

namespace parcoll {
namespace {

using machine::Mapping;

mpi::World make_world(int nranks, Mapping mapping = Mapping::Block,
                      int cores_per_node = 2) {
  return mpi::World(machine::MachineModel::jaguar(nranks, mapping,
                                                  cores_per_node));
}

node::NodeComm node_comm_of(mpi::Rank& self,
                            node::LeaderPolicy policy = node::LeaderPolicy::Lowest) {
  return node::make_node_comm(self, self.comm_world(),
                              self.world().model().topology, policy);
}

TEST(NodeComm, BlockMappingStructure) {
  auto world = make_world(8, Mapping::Block, 2);
  std::vector<node::NodeComm> ncs(8);
  world.run([&](mpi::Rank& self) {
    ncs[static_cast<std::size_t>(self.rank())] = node_comm_of(self);
  });
  for (int r = 0; r < 8; ++r) {
    const auto& nc = ncs[static_cast<std::size_t>(r)];
    EXPECT_TRUE(nc.multi());
    EXPECT_EQ(nc.num_nodes(), 4);
    EXPECT_EQ(nc.layout->leaders, (std::vector<int>{0, 2, 4, 6}));
    EXPECT_EQ(nc.layout->node_members[1], (std::vector<int>{2, 3}));
    EXPECT_EQ(nc.layout->node_index_of[5], 2);
    EXPECT_EQ(nc.my_parent_local, r);
    EXPECT_EQ(nc.my_node_index, r / 2);
    EXPECT_EQ(nc.i_lead(), r % 2 == 0);
    // node_comm holds my node's members; leader_comm one rank per node.
    EXPECT_EQ(nc.node_comm().members(),
              (std::vector<int>{r / 2 * 2, r / 2 * 2 + 1}));
    EXPECT_EQ(nc.leader_comm().members(), (std::vector<int>{0, 2, 4, 6}));
  }
}

TEST(NodeComm, CyclicMappingStructure) {
  auto world = make_world(8, Mapping::Cyclic, 2);
  std::vector<node::NodeComm> ncs(8);
  world.run([&](mpi::Rank& self) {
    ncs[static_cast<std::size_t>(self.rank())] = node_comm_of(self);
  });
  // node_of(r) = r % 4: N0(0,4) N1(1,5) N2(2,6) N3(3,7).
  const auto& nc = ncs[5];
  EXPECT_EQ(nc.num_nodes(), 4);
  EXPECT_EQ(nc.layout->leaders, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(nc.layout->node_members[1], (std::vector<int>{1, 5}));
  EXPECT_EQ(nc.layout->node_members[3], (std::vector<int>{3, 7}));
  EXPECT_EQ(nc.my_node_index, 1);
  EXPECT_FALSE(nc.i_lead());
  EXPECT_EQ(nc.node_comm().members(), (std::vector<int>{1, 5}));
}

TEST(NodeComm, SpreadPolicyRotatesLeadersAcrossNodeLocals) {
  auto world = make_world(8, Mapping::Block, 2);
  std::vector<int> leader_of(8, -1);
  world.run([&](mpi::Rank& self) {
    const auto nc = node_comm_of(self, node::LeaderPolicy::Spread);
    leader_of[static_cast<std::size_t>(self.rank())] =
        nc.layout->leaders[static_cast<std::size_t>(nc.my_node_index)];
  });
  // Node n elects members[n % node_size]: 0, 3, 4, 7 — the leader role
  // rotates across core slots instead of always hitting core 0.
  EXPECT_EQ(leader_of, (std::vector<int>{0, 0, 3, 3, 4, 4, 7, 7}));
}

TEST(NodeComm, UnevenTailLeavesSingleRankNode) {
  auto world = make_world(7, Mapping::Block, 2);
  std::vector<node::NodeComm> ncs(7);
  world.run([&](mpi::Rank& self) {
    ncs[static_cast<std::size_t>(self.rank())] = node_comm_of(self);
  });
  const auto& nc = ncs[6];
  EXPECT_EQ(nc.num_nodes(), 4);
  EXPECT_EQ(nc.layout->node_members[3], (std::vector<int>{6}));
  EXPECT_TRUE(nc.i_lead());
  EXPECT_EQ(nc.node_comm().size(), 1);
  EXPECT_TRUE(nc.multi());  // other nodes still host pairs
}

TEST(NodeComm, ApplicabilityFollowsCohabitation) {
  {
    // One process per node: nothing to aggregate, seen from every member.
    auto world = make_world(4, Mapping::Block, 1);
    world.run([&](mpi::Rank& self) {
      EXPECT_FALSE(node_comm_of(self).multi());
    });
  }
  {
    auto world = make_world(8, Mapping::Block, 2);
    world.run([&](mpi::Rank& self) {
      const auto& topo = self.world().model().topology;
      EXPECT_TRUE(node_comm_of(self).multi());
      // A subgroup with at most one member per node has nothing to merge,
      // even though the machine is multi-core.
      const mpi::Comm spread_sub(0x5u, {0, 2, 4});
      if (spread_sub.local_rank(self.rank()) >= 0) {
        EXPECT_FALSE(node::make_node_comm(self, spread_sub, topo,
                                          node::LeaderPolicy::Lowest)
                         .multi());
      }
      // A subgroup keeping node pairs together has.
      const mpi::Comm paired_sub(0x6u, {4, 5, 6, 7});
      if (paired_sub.local_rank(self.rank()) >= 0) {
        EXPECT_TRUE(node::make_node_comm(self, paired_sub, topo,
                                         node::LeaderPolicy::Lowest)
                        .multi());
      }
    });
  }
}

TEST(NodeComm, BuiltOncePerCommunicator) {
  auto world = make_world(8, Mapping::Block, 2);
  const auto n = std::size_t{8};
  std::vector<const node::NodeLayout*> first(n), again(n), spread(n), dup(n);
  std::vector<int> node_index(n, -1);
  world.run([&](mpi::Rank& self) {
    const auto r = static_cast<std::size_t>(self.rank());
    first[r] = node_comm_of(self).layout.get();
    const auto view = node_comm_of(self);
    again[r] = view.layout.get();
    node_index[r] = view.my_node_index;
    spread[r] = node_comm_of(self, node::LeaderPolicy::Spread).layout.get();
    const mpi::Comm copy = mpi::comm_split(
        self, self.comm_world(), 0, self.comm_world().local_rank(self.rank()));
    dup[r] = node::make_node_comm(self, copy, self.world().model().topology,
                                  node::LeaderPolicy::Lowest)
                 .layout.get();
  });
  // Every call by every member shares the first caller's structure; only
  // the view (where the caller sits in it) is per rank.
  for (std::size_t r = 0; r < n; ++r) {
    EXPECT_EQ(first[r], first[0]);
    EXPECT_EQ(again[r], first[0]);
    EXPECT_EQ(spread[r], spread[0]);
    EXPECT_EQ(dup[r], dup[0]);
    EXPECT_EQ(node_index[r], static_cast<int>(r / 2));
  }
  // Another leader policy or another communicator gets its own.
  EXPECT_NE(spread[0], first[0]);
  EXPECT_NE(dup[0], first[0]);
  EXPECT_NE(dup[0], spread[0]);
}

TEST(NodeComm, SubCommunicatorUsesParentLocalRanks) {
  auto world = make_world(8, Mapping::Block, 2);
  world.run([&](mpi::Rank& self) {
    if (self.rank() < 4) return;  // only the subgroup builds the NodeComm
    const mpi::Comm sub(0x7u, {4, 5, 6, 7});
    const auto nc = node::make_node_comm(self, sub,
                                         self.world().model().topology,
                                         node::LeaderPolicy::Lowest);
    EXPECT_EQ(nc.num_nodes(), 2);
    EXPECT_EQ(nc.layout->leaders, (std::vector<int>{0, 2}));  // parent locals
    EXPECT_EQ(nc.layout->node_members[0], (std::vector<int>{0, 1}));
    EXPECT_EQ(nc.layout->node_members[1], (std::vector<int>{2, 3}));
    EXPECT_EQ(nc.my_parent_local, self.rank() - 4);
    EXPECT_EQ(nc.i_lead(), self.rank() == 4 || self.rank() == 6);
  });
}

TEST(NodeComm, ToLeaderLocalsMapsAggregatorRosters) {
  auto world = make_world(8, Mapping::Block, 2);
  world.run([&](mpi::Rank& self) {
    const auto& layout = *node_comm_of(self).layout;
    // Hosts of {0,1,2,5} are nodes {0,0,1,2} -> leader locals {0,1,2}.
    EXPECT_EQ(layout.to_leader_locals({0, 1, 2, 5}),
              (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(layout.to_leader_locals({7}), (std::vector<int>{3}));
    // Output is sorted and deduplicated regardless of input order.
    EXPECT_EQ(layout.to_leader_locals({5, 2, 4}), (std::vector<int>{1, 2}));
  });
}

void expect_hier_collectives_match_flat(Mapping mapping, int cores_per_node) {
  const int P = 8;
  auto world = make_world(P, mapping, cores_per_node);
  world.run([&](mpi::Rank& self) {
    const auto nc = node_comm_of(self);
    const int r = self.rank();

    const auto gathered = node::hier_allgather<std::vector<int>>(
        self, nc, r * 10 + 1,
        [](const std::vector<int>& values) { return values; });
    ASSERT_EQ(gathered->size(), static_cast<std::size_t>(P));
    for (int j = 0; j < P; ++j) {
      EXPECT_EQ((*gathered)[static_cast<std::size_t>(j)], j * 10 + 1);
    }

    EXPECT_EQ(node::hier_allreduce_max(self, nc, r % 5), 4);
  });
}

TEST(HierColl, MatchesFlatResultsBlockMapping) {
  expect_hier_collectives_match_flat(Mapping::Block, 2);
}

TEST(HierColl, MatchesFlatResultsCyclicMapping) {
  expect_hier_collectives_match_flat(Mapping::Cyclic, 2);
}

TEST(HierColl, MatchesFlatResultsWideNodes) {
  expect_hier_collectives_match_flat(Mapping::Block, 4);
}

TEST(HierColl, DegeneratesOnSingleCoreNodes) {
  expect_hier_collectives_match_flat(Mapping::Block, 1);
}

TEST(HierColl, AllgatherBuildsOnceAndEveryMemberSharesTheResult) {
  // Two cores per node: four nodes, so the leaders' stage and the node
  // stage both run. The build sees every value in parent rank order, as
  // the flat allgather_build's does, and runs once.
  constexpr int P = 8;
  auto world = make_world(P, Mapping::Cyclic, 2);
  int builds = 0;
  std::vector<std::shared_ptr<const std::vector<int>>> staged(P);
  std::vector<std::shared_ptr<const std::vector<int>>> flat(P);
  const auto prefix_sums = [&builds](const std::vector<int>& values) {
    ++builds;
    std::vector<int> sums;
    int running = 0;
    for (int value : values) sums.push_back(running += value);
    return sums;
  };
  world.run([&](mpi::Rank& self) {
    const auto nc = node_comm_of(self);
    ASSERT_TRUE(nc.multi());
    const int value = (self.rank() * 7) % 5 + 1;
    staged[static_cast<std::size_t>(self.rank())] =
        node::hier_allgather<std::vector<int>>(self, nc, value, prefix_sums);
    flat[static_cast<std::size_t>(self.rank())] =
        mpi::allgather_build<std::vector<int>>(self, self.comm_world(), value,
                                               prefix_sums);
  });
  EXPECT_EQ(builds, 2);  // one per exchange
  for (int r = 0; r < P; ++r) {
    EXPECT_EQ(staged[static_cast<std::size_t>(r)].get(), staged[0].get())
        << "rank " << r;
  }
  EXPECT_EQ(*staged[0], *flat[0]);
}

TEST(IntranodeHints, RoundTripThroughInfoInterface) {
  mpiio::Hints hints;
  EXPECT_EQ(hints.get("cb_intranode"), "disable");
  EXPECT_EQ(hints.get("cb_intranode_leader"), "lowest");
  hints.set("cb_intranode", "enable");
  EXPECT_EQ(hints.cb_intranode, node::IntranodeMode::On);
  hints.set("cb_intranode", "automatic");
  EXPECT_EQ(hints.cb_intranode, node::IntranodeMode::Auto);
  EXPECT_EQ(hints.get("cb_intranode"), "automatic");
  hints.set("cb_intranode_leader", "spread");
  EXPECT_EQ(hints.cb_intranode_leader, node::LeaderPolicy::Spread);
  EXPECT_THROW(hints.set("cb_intranode", "sideways"), std::invalid_argument);
  EXPECT_THROW(hints.set("cb_intranode_leader", "tallest"),
               std::invalid_argument);
}

workloads::RunSpec byte_true_spec(workloads::Impl impl, int groups,
                                  node::IntranodeMode intranode,
                                  int cores_per_node = 2) {
  workloads::RunSpec spec;
  spec.impl = impl;
  spec.parcoll_groups = groups;
  spec.min_group_size = 2;
  spec.byte_true = true;
  spec.cb_buffer_size = 4096;
  spec.cores_per_node = cores_per_node;
  spec.intranode = intranode;
  return spec;
}

workloads::TileIOConfig small_tileio() {
  workloads::TileIOConfig config;
  config.tiles_x = 4;
  config.tile_w = 8;
  config.tile_h = 4;
  config.elem_size = 8;
  return config;
}

TEST(IntranodeEquivalence, TileIoWriteBitIdenticalAndCounted) {
  const auto config = small_tileio();
  const auto off = workloads::run_tileio(
      config, 8,
      byte_true_spec(workloads::Impl::Ext2ph, 0, node::IntranodeMode::Off),
      true);
  const auto on = workloads::run_tileio(
      config, 8,
      byte_true_spec(workloads::Impl::Ext2ph, 0, node::IntranodeMode::On),
      true);
  EXPECT_TRUE(off.verified);
  EXPECT_TRUE(on.verified);  // byte-identical file contents either way
  EXPECT_EQ(on.bytes, off.bytes);
  EXPECT_EQ(on.stats.bytes_written, off.stats.bytes_written);
  EXPECT_EQ(on.stats.collective_writes, off.stats.collective_writes);
  EXPECT_EQ(off.stats.intranode_calls, 0u);
  EXPECT_GT(on.stats.intranode_calls, 0u);
  EXPECT_GT(on.stats.intranode_bytes, 0u);
}

TEST(IntranodeEquivalence, TileIoReadRoundTrips) {
  const auto config = small_tileio();
  const auto result = workloads::run_tileio(
      config, 8,
      byte_true_spec(workloads::Impl::Ext2ph, 0, node::IntranodeMode::On),
      false);
  EXPECT_TRUE(result.verified);
  EXPECT_GT(result.stats.intranode_calls, 0u);
}

TEST(IntranodeEquivalence, ComposesWithParCollSubgroups) {
  workloads::BtIOConfig config;
  config.grid = 12;
  config.nsteps = 2;
  const auto off = workloads::run_btio(
      config, 9,
      byte_true_spec(workloads::Impl::ParColl, 2, node::IntranodeMode::Off),
      true);
  const auto on = workloads::run_btio(
      config, 9,
      byte_true_spec(workloads::Impl::ParColl, 2, node::IntranodeMode::On),
      true);
  EXPECT_TRUE(off.verified);
  EXPECT_TRUE(on.verified);
  EXPECT_EQ(on.stats.bytes_written, off.stats.bytes_written);
  EXPECT_GT(on.stats.parcoll_calls, 0u);
  EXPECT_GT(on.stats.intranode_calls, 0u);
}

TEST(IntranodeEquivalence, IorVerifiesUnderCyclicMapping) {
  workloads::IorConfig config;
  config.block_size = 32 << 10;
  config.xfer_size = 8 << 10;
  auto spec =
      byte_true_spec(workloads::Impl::Ext2ph, 0, node::IntranodeMode::On);
  spec.mapping = Mapping::Cyclic;
  const auto result = workloads::run_ior(config, 8, spec, true);
  EXPECT_TRUE(result.verified);
  EXPECT_GT(result.stats.intranode_calls, 0u);
}

TEST(IntranodeEquivalence, OffIsBitIdenticalToHistoricalRuns) {
  // Off must not change a single scheduling decision: identical virtual
  // elapsed time and identical profile, not merely identical bytes.
  const auto config = small_tileio();
  workloads::RunSpec historical;
  historical.impl = workloads::Impl::Ext2ph;
  historical.byte_true = true;
  historical.cb_buffer_size = 4096;
  auto off = historical;
  off.intranode = node::IntranodeMode::Off;
  const auto a = workloads::run_tileio(config, 8, historical, true);
  const auto b = workloads::run_tileio(config, 8, off, true);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.sum.total(), b.sum.total());
  EXPECT_EQ(a.stats.exchange_cycles, b.stats.exchange_cycles);
}

TEST(IntranodeEquivalence, AutoDeclineIsBitIdenticalToOff) {
  // ext2ph's default roster makes every process an aggregator, so on
  // 2-core nodes auto's cost gate declines every call. A declined call must
  // run exactly as off does: same clock, profile, cycles and event count.
  workloads::IorConfig config;
  config.block_size = 32 << 10;
  config.xfer_size = 8 << 10;
  const auto off = workloads::run_ior(
      config, 8,
      byte_true_spec(workloads::Impl::Ext2ph, 0, node::IntranodeMode::Off),
      true);
  const auto declined = workloads::run_ior(
      config, 8,
      byte_true_spec(workloads::Impl::Ext2ph, 0, node::IntranodeMode::Auto),
      true);
  EXPECT_TRUE(off.verified);
  EXPECT_TRUE(declined.verified);
  EXPECT_EQ(declined.elapsed, off.elapsed);
  EXPECT_EQ(declined.sum.seconds, off.sum.seconds);
  EXPECT_EQ(declined.stats.exchange_cycles, off.stats.exchange_cycles);
  EXPECT_GT(off.stats.exchange_cycles, 0u);
  EXPECT_EQ(declined.engine.events_executed, off.engine.events_executed);
  EXPECT_EQ(declined.stats.intranode_calls, 0u);
}

TEST(IntranodeEquivalence, SingleCoreNodesNeverActivate) {
  // On a one-process-per-node machine the activation rule degenerates, so
  // enabling the hint is a structural no-op: same timing, zero counters.
  const auto config = small_tileio();
  const auto off = workloads::run_tileio(
      config, 8,
      byte_true_spec(workloads::Impl::Ext2ph, 0, node::IntranodeMode::Off, 1),
      true);
  const auto on = workloads::run_tileio(
      config, 8,
      byte_true_spec(workloads::Impl::Ext2ph, 0, node::IntranodeMode::On, 1),
      true);
  EXPECT_TRUE(on.verified);
  EXPECT_EQ(on.elapsed, off.elapsed);
  EXPECT_EQ(on.sum.total(), off.sum.total());
  EXPECT_EQ(on.stats.intranode_calls, 0u);
  EXPECT_EQ(on.stats.intranode_bytes, 0u);
}

}  // namespace
}  // namespace parcoll
