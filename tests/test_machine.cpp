// Topology (block/cyclic rank->node mapping) and the machine model defaults.
#include <gtest/gtest.h>

#include <vector>

#include "machine/machine_model.hpp"
#include "sim/random.hpp"

namespace parcoll::machine {
namespace {

std::vector<int> as_vector(std::span<const int> ranks) {
  return {ranks.begin(), ranks.end()};
}

TEST(Topology, BlockMappingMatchesPaperFig5) {
  // Fig. 5 block column: N0(P0,P1) N1(P2,P3) N2(P4,P5) N3(P6,P7).
  const Topology topo(8, 2, Mapping::Block);
  EXPECT_EQ(topo.num_nodes(), 4);
  EXPECT_EQ(topo.node_of(0), 0);
  EXPECT_EQ(topo.node_of(1), 0);
  EXPECT_EQ(topo.node_of(2), 1);
  EXPECT_EQ(topo.node_of(5), 2);
  EXPECT_EQ(topo.node_of(7), 3);
  EXPECT_EQ(as_vector(topo.ranks_on_node(0)), (std::vector<int>{0, 1}));
  EXPECT_EQ(as_vector(topo.ranks_on_node(3)), (std::vector<int>{6, 7}));
}

TEST(Topology, CyclicMappingMatchesPaperFig5) {
  // Fig. 5 cyclic column: N0(P0,P4) N1(P1,P5) N2(P2,P6) N3(P3,P7).
  const Topology topo(8, 2, Mapping::Cyclic);
  EXPECT_EQ(topo.num_nodes(), 4);
  EXPECT_EQ(topo.node_of(0), 0);
  EXPECT_EQ(topo.node_of(4), 0);
  EXPECT_EQ(topo.node_of(1), 1);
  EXPECT_EQ(topo.node_of(6), 2);
  EXPECT_EQ(as_vector(topo.ranks_on_node(0)), (std::vector<int>{0, 4}));
  EXPECT_EQ(as_vector(topo.ranks_on_node(2)), (std::vector<int>{2, 6}));
}

TEST(Topology, UnevenLastNode) {
  const Topology topo(7, 2, Mapping::Block);
  EXPECT_EQ(topo.num_nodes(), 4);
  EXPECT_EQ(as_vector(topo.ranks_on_node(3)), (std::vector<int>{6}));
}

TEST(Topology, CyclicUnevenTailWrapsShortNodes) {
  // 7 ranks over 4 nodes, cyclic: node_of(r) = r % 4, so node 3 only sees
  // the first pass (no rank 7 to wrap around onto it).
  const Topology topo(7, 2, Mapping::Cyclic);
  EXPECT_EQ(topo.num_nodes(), 4);
  EXPECT_EQ(as_vector(topo.ranks_on_node(0)), (std::vector<int>{0, 4}));
  EXPECT_EQ(as_vector(topo.ranks_on_node(2)), (std::vector<int>{2, 6}));
  EXPECT_EQ(as_vector(topo.ranks_on_node(3)), (std::vector<int>{3}));
}

TEST(Topology, SingleCorePlacesOneRankPerNode) {
  const Topology topo(5, 1, Mapping::Cyclic);
  EXPECT_EQ(topo.num_nodes(), 5);
  for (int r = 0; r < 5; ++r) {
    EXPECT_EQ(topo.node_of(r), r);
    EXPECT_EQ(as_vector(topo.ranks_on_node(r)), (std::vector<int>{r}));
  }
}

TEST(Topology, RanksOnNodePartitionsAllRanks) {
  // The precomputed per-node lists must partition [0, nranks) for both
  // mappings, including non-divisible counts.
  for (const Mapping mapping : {Mapping::Block, Mapping::Cyclic}) {
    const Topology topo(11, 4, mapping);
    std::vector<int> seen;
    for (int n = 0; n < topo.num_nodes(); ++n) {
      const auto ranks = topo.ranks_on_node(n);
      for (std::size_t i = 0; i < ranks.size(); ++i) {
        EXPECT_EQ(topo.node_of(ranks[i]), n);
        if (i > 0) {
          EXPECT_LT(ranks[i - 1], ranks[i]);  // ascending
        }
        seen.push_back(ranks[i]);
      }
    }
    EXPECT_EQ(seen.size(), 11u);
  }
}

TEST(Topology, BadArgumentsThrow) {
  EXPECT_THROW(Topology(0, 2), std::invalid_argument);
  EXPECT_THROW(Topology(4, 0), std::invalid_argument);
  const Topology topo(4, 2);
  EXPECT_THROW(static_cast<void>(topo.node_of(-1)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(topo.node_of(4)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(topo.ranks_on_node(2)), std::out_of_range);
}

TEST(MachineModel, JaguarDefaultsMatchPaperTestbed) {
  const MachineModel model = MachineModel::jaguar(512);
  EXPECT_EQ(model.topology.cores_per_node(), 2);  // dual-core PEs
  EXPECT_EQ(model.topology.num_nodes(), 256);
  EXPECT_EQ(model.storage.num_osts, 72);          // the tested file system
  EXPECT_EQ(model.storage.default_stripe_count, 64);
  EXPECT_EQ(model.storage.default_stripe_size, 4ull << 20);
}

TEST(Random, JitterIsDeterministicAndInRange) {
  for (std::uint64_t seed : {1ull, 42ull, 12345ull}) {
    for (std::uint64_t seq = 0; seq < 100; ++seq) {
      const double a = sim::jitter01(seed, 7, seq);
      const double b = sim::jitter01(seed, 7, seq);
      EXPECT_EQ(a, b);
      EXPECT_GE(a, 0.0);
      EXPECT_LT(a, 1.0);
    }
  }
}

TEST(Random, DistinctStreamsDiffer) {
  int same = 0;
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    if (sim::jitter01(42, 1, seq) == sim::jitter01(42, 2, seq)) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(Random, Mix64AvalanchesLowBits) {
  // Consecutive inputs should produce wildly different outputs.
  EXPECT_NE(sim::mix64(1) & 0xffff, sim::mix64(2) & 0xffff);
  EXPECT_NE(sim::mix64(0), sim::mix64(1));
}

TEST(MachineModel, FileSystemPersonalities) {
  const MachineModel gpfs = MachineModel::gpfs_like(64);
  EXPECT_EQ(gpfs.storage.num_osts, 32);
  EXPECT_EQ(gpfs.storage.default_stripe_size, 1ull << 20);
  EXPECT_EQ(gpfs.storage.lock_dirty_cap, 0u);  // token locks, no flush
  const MachineModel pvfs = MachineModel::pvfs_like(64);
  EXPECT_DOUBLE_EQ(pvfs.storage.lock_revoke_overhead, 0.0);  // no locking
  EXPECT_DOUBLE_EQ(pvfs.storage.flock_server_time, 0.0);
  // The compute side stays the Jaguar-like machine.
  EXPECT_EQ(pvfs.topology.cores_per_node(), 2);
}

}  // namespace
}  // namespace parcoll::machine
