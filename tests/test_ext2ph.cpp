// The extended two-phase engine: byte-level correctness of collective
// writes and reads across patterns, aggregator sets, and cycle counts.
#include <gtest/gtest.h>

#include <functional>
#include <numeric>

#include "core/parcoll.hpp"
#include "mpi/collectives.hpp"
#include "mpiio/aggregator_dist.hpp"
#include "mpiio/ext2ph.hpp"
#include "mpiio/file.hpp"
#include "workloads/pattern.hpp"

namespace parcoll::mpiio {
namespace {

constexpr std::uint64_t kSalt = 0xE2;

/// Run an ext2ph write on `nranks` ranks, rank r contributing `extents_of(r)`,
/// then verify every extent landed with the right bytes. Returns rank 0's
/// outcome.
Ext2phOutcome run_write(int nranks,
                        const std::function<std::vector<fs::Extent>(int)>&
                            extents_of,
                        Ext2phOptions options) {
  mpi::World world(machine::MachineModel::jaguar(nranks));
  Ext2phOutcome outcome0;
  bool ok = true;
  world.run([&](mpi::Rank& self) {
    const int fs_id = self.world().fs().open("ext2ph.dat", 8, 1 << 16);
    DirectTarget target(self.world().fs(), fs_id);
    const auto extents = extents_of(self.rank());
    std::uint64_t bytes = 0;
    for (const auto& extent : extents) bytes += extent.length;
    std::vector<std::byte> packed(bytes);
    workloads::fill_stream(packed.data(), extents, kSalt);
    const CollRequest request{extents, packed.empty() ? nullptr : packed.data()};
    const auto outcome =
        ext2ph(self, self.comm_world(), target, request, options, true);
    if (self.rank() == 0) outcome0 = outcome;
    mpi::barrier(self, self.comm_world());
    auto* store = dynamic_cast<fs::MemoryStore*>(&self.world().fs().store());
    ok = ok && store &&
         workloads::verify_store(*store, fs_id, extents, kSalt);
  });
  EXPECT_TRUE(ok);
  return outcome0;
}

/// Prewrite the pattern with direct fs writes, then collectively read
/// rank-specific extents and check the received stream.
void run_read(int nranks,
              const std::function<std::vector<fs::Extent>(int)>& extents_of,
              Ext2phOptions options) {
  mpi::World world(machine::MachineModel::jaguar(nranks));
  bool ok = true;
  world.run([&](mpi::Rank& self) {
    const int fs_id = self.world().fs().open("ext2ph-r.dat", 8, 1 << 16);
    const auto extents = extents_of(self.rank());
    std::uint64_t bytes = 0;
    for (const auto& extent : extents) bytes += extent.length;
    {
      // Seed the file (every rank writes its own region directly).
      std::vector<std::byte> seed(bytes);
      workloads::fill_stream(seed.data(), extents, kSalt);
      self.world().fs().write(self.rank(), fs_id, extents, seed.data());
    }
    mpi::barrier(self, self.comm_world());
    DirectTarget target(self.world().fs(), fs_id);
    std::vector<std::byte> packed(bytes);
    const CollRequest request{extents, packed.empty() ? nullptr : packed.data()};
    ext2ph(self, self.comm_world(), target, request, options, false);
    ok = ok && workloads::check_stream(packed.data(), extents, kSalt);
  });
  EXPECT_TRUE(ok);
}

Ext2phOptions opts(std::vector<int> aggregators,
                   std::uint64_t cb = 4ull << 20) {
  Ext2phOptions options;
  options.aggregators = make_roster(std::move(aggregators));
  options.cb_buffer_size = cb;
  return options;
}

TEST(Ext2ph, ContiguousSegmentedWrite) {
  run_write(4,
            [](int r) {
              return std::vector<fs::Extent>{
                  {static_cast<std::uint64_t>(r) * 4096, 4096}};
            },
            opts({0, 1, 2, 3}));
}

TEST(Ext2ph, SingleAggregatorHandlesEverything) {
  run_write(4,
            [](int r) {
              return std::vector<fs::Extent>{
                  {static_cast<std::uint64_t>(r) * 1000, 1000}};
            },
            opts({2}));
}

TEST(Ext2ph, InterleavedStridedWriteNoHoles) {
  // Rank r owns every 4th 64-byte slot starting at slot r: dense overall.
  run_write(4,
            [](int r) {
              std::vector<fs::Extent> extents;
              for (int k = 0; k < 16; ++k) {
                extents.push_back(fs::Extent{
                    static_cast<std::uint64_t>(k * 4 + r) * 64, 64});
              }
              return extents;
            },
            opts({0, 1}));
}

TEST(Ext2ph, WriteWithHolesTriggersRmw) {
  // Only half the slots are written: holes inside every window.
  const auto outcome = run_write(
      2,
      [](int r) {
        std::vector<fs::Extent> extents;
        for (int k = 0; k < 8; ++k) {
          extents.push_back(fs::Extent{
              static_cast<std::uint64_t>(k * 4 + r) * 128, 128});
        }
        return extents;
      },
      opts({0}));
  EXPECT_GT(outcome.rmw_reads, 0u);
}

TEST(Ext2ph, RmwPreservesPreexistingBytes) {
  // Write pattern A everywhere, then a sparse collective write of pattern
  // B; the untouched bytes must still read pattern A.
  mpi::World world(machine::MachineModel::jaguar(2));
  bool ok = true;
  world.run([&](mpi::Rank& self) {
    auto& fs = self.world().fs();
    const int fs_id = fs.open("rmw.dat", 4, 1 << 16);
    const fs::Extent whole{0, 8192};
    if (self.rank() == 0) {
      std::vector<std::byte> base(8192);
      workloads::fill_stream(base.data(), std::span(&whole, 1), 111);
      fs.write(0, fs_id, std::span(&whole, 1), base.data());
    }
    mpi::barrier(self, self.comm_world());

    // Sparse collective write: rank r owns bytes [2048r + 512, +256).
    const std::vector<fs::Extent> extents{
        {static_cast<std::uint64_t>(self.rank()) * 2048 + 512, 256}};
    std::vector<std::byte> packed(256);
    workloads::fill_stream(packed.data(), extents, 222);
    DirectTarget target(fs, fs_id);
    ext2ph(self, self.comm_world(), target,
           CollRequest{extents, packed.data()}, opts({0, 1}), true);
    mpi::barrier(self, self.comm_world());

    if (self.rank() == 0) {
      auto* store = dynamic_cast<fs::MemoryStore*>(&fs.store());
      ok = ok && store != nullptr;
      if (store) {
        std::vector<std::byte> bytes(8192);
        store->read(fs_id, 0, bytes.data(), bytes.size());
        for (std::uint64_t pos = 0; pos < 8192; ++pos) {
          const bool in_b = (pos >= 512 && pos < 768) ||
                            (pos >= 2560 && pos < 2816);
          const std::byte expected =
              workloads::pattern_byte(in_b ? 222 : 111, pos);
          if (bytes[pos] != expected) {
            ok = false;
            break;
          }
        }
      }
    }
  });
  EXPECT_TRUE(ok);
}

TEST(Ext2ph, SmallCollectiveBufferForcesManyCycles) {
  const auto outcome = run_write(
      2,
      [](int r) {
        return std::vector<fs::Extent>{
            {static_cast<std::uint64_t>(r) * 65536, 65536}};
      },
      opts({0, 1}, /*cb=*/4096));
  // Each aggregator's 64 KiB domain in 4 KiB windows: 16 cycles.
  EXPECT_EQ(outcome.cycles, 16u);
}

TEST(Ext2ph, RanksWithNoDataStillParticipate) {
  run_write(4,
            [](int r) {
              if (r % 2 == 1) return std::vector<fs::Extent>{};
              return std::vector<fs::Extent>{
                  {static_cast<std::uint64_t>(r) * 512, 512}};
            },
            opts({0, 1, 2, 3}));
}

TEST(Ext2ph, AllEmptyIsANoop) {
  const auto outcome = run_write(
      3, [](int) { return std::vector<fs::Extent>{}; }, opts({0}));
  EXPECT_EQ(outcome.cycles, 0u);
}

TEST(Ext2ph, NoAggregatorsThrows) {
  mpi::World world(machine::MachineModel::jaguar(1));
  EXPECT_THROW(
      world.run([&](mpi::Rank& self) {
        const int fs_id = self.world().fs().open("x.dat");
        DirectTarget target(self.world().fs(), fs_id);
        const std::vector<fs::Extent> extents{{0, 16}};
        std::vector<std::byte> packed(16);
        ext2ph(self, self.comm_world(), target,
               CollRequest{extents, packed.data()}, Ext2phOptions{}, true);
      }),
      std::invalid_argument);
}

TEST(Ext2ph, ReadContiguousSegments) {
  run_read(4,
           [](int r) {
             return std::vector<fs::Extent>{
                 {static_cast<std::uint64_t>(r) * 2048, 2048}};
           },
           opts({0, 2}));
}

TEST(Ext2ph, ReadInterleavedStrides) {
  run_read(4,
           [](int r) {
             std::vector<fs::Extent> extents;
             for (int k = 0; k < 12; ++k) {
               extents.push_back(fs::Extent{
                   static_cast<std::uint64_t>(k * 4 + r) * 96, 96});
             }
             return extents;
           },
           opts({1, 3}, /*cb=*/1024));
}

TEST(Ext2ph, ReadWithSingleAggregatorManyCycles) {
  run_read(3,
           [](int r) {
             return std::vector<fs::Extent>{
                 {static_cast<std::uint64_t>(r) * 10000, 10000}};
           },
           opts({0}, /*cb=*/2048));
}

TEST(Ext2ph, PhantomModeCountsCyclesAndTime) {
  mpi::World world(machine::MachineModel::jaguar(4), /*byte_true=*/false);
  Ext2phOutcome outcome;
  double elapsed = 0;
  world.run([&](mpi::Rank& self) {
    const int fs_id = self.world().fs().open("phantom.dat");
    DirectTarget target(self.world().fs(), fs_id);
    const std::vector<fs::Extent> extents{
        {static_cast<std::uint64_t>(self.rank()) * (8ull << 20), 8ull << 20}};
    const double t0 = self.now();
    const auto result = ext2ph(self, self.comm_world(), target,
                               CollRequest{extents, nullptr}, opts({0, 2}),
                               true);
    if (self.rank() == 0) {
      outcome = result;
      elapsed = self.now() - t0;
    }
  });
  EXPECT_EQ(outcome.cycles, 4u);  // 16 MB per domain / 4 MB windows
  EXPECT_GT(elapsed, 0.0);
}

/// The aggregator rule's one-group case: who aggregates for a plain call.
std::vector<int> one_group(const machine::Topology& topo, const mpi::Comm& comm,
                           const Hints& hints) {
  return select_aggregators(
      topo, comm, hints,
      std::vector<int>(static_cast<std::size_t>(comm.size()), 0), 1)[0];
}

TEST(DefaultAggregators, NoHintsMeansEveryProcess) {
  // The AD_sysio default on Catamount: all processes aggregate.
  const machine::Topology topo(8, 2, machine::Mapping::Block);
  std::vector<int> members(8);
  std::iota(members.begin(), members.end(), 0);
  const mpi::Comm comm(99, members);
  Hints hints;
  const auto aggregators = one_group(topo, comm, hints);
  EXPECT_EQ(aggregators, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(DefaultAggregators, CbNodesSelectsOnePerNodeLowestRank) {
  const machine::Topology topo(8, 2, machine::Mapping::Block);
  std::vector<int> members(8);
  std::iota(members.begin(), members.end(), 0);
  const mpi::Comm comm(99, members);
  Hints hints;
  hints.cb_nodes = 4;  // all nodes, node-based selection
  const auto aggregators = one_group(topo, comm, hints);
  EXPECT_EQ(aggregators, (std::vector<int>{0, 2, 4, 6}));
}

TEST(DefaultAggregators, CbNodesTruncates) {
  const machine::Topology topo(8, 2, machine::Mapping::Block);
  std::vector<int> members(8);
  std::iota(members.begin(), members.end(), 0);
  const mpi::Comm comm(99, members);
  Hints hints;
  hints.cb_nodes = 2;
  EXPECT_EQ(one_group(topo, comm, hints),
            (std::vector<int>{0, 2}));
}

TEST(DefaultAggregators, ExplicitNodeListRespected) {
  const machine::Topology topo(8, 2, machine::Mapping::Cyclic);
  std::vector<int> members(8);
  std::iota(members.begin(), members.end(), 0);
  const mpi::Comm comm(99, members);
  Hints hints;
  hints.cb_node_list = {3, 1};
  // Cyclic: node 3 hosts {3,7}, node 1 hosts {1,5}.
  EXPECT_EQ(one_group(topo, comm, hints),
            (std::vector<int>{1, 3}));
}

TEST(DefaultAggregators, SubcommunicatorOnlySeesItsNodes) {
  const machine::Topology topo(8, 2, machine::Mapping::Block);
  const mpi::Comm comm(99, {4, 5, 6, 7});  // nodes 2 and 3 only
  Hints hints;
  hints.cb_nodes = 4;  // node-based selection; only 2 nodes host members
  const auto aggregators = one_group(topo, comm, hints);
  EXPECT_EQ(aggregators, (std::vector<int>{0, 2}));  // local ranks of 4 and 6
}

TEST(DefaultAggregators, NodeListWithoutMembersFallsBackToLowestRank) {
  // Ranks 0-3 write over their own communicator, whose cb_node_list names
  // only a node hosting none of them. The list has nothing to give, so the
  // rule's requirement (a) makes local rank 0 the one aggregator, as it
  // does for a ParColl subgroup, and the call completes.
  constexpr std::uint64_t kBlock = 1 << 20;
  mpi::World world(machine::MachineModel::jaguar(8, machine::Mapping::Block, 2));
  std::vector<double> io_seconds(4, -1.0);
  std::uint64_t size = 0;
  world.run([&](mpi::Rank& self) {
    const mpi::Comm half =
        mpi::comm_split(self, self.comm_world(), self.rank() / 4, self.rank());
    if (self.rank() >= 4) return;
    Hints hints;
    hints.cb_node_list = {self.world().model().topology.node_of(7)};
    FileHandle file(self, half, "fallback.dat", hints);
    const double before = self.times().breakdown()[mpi::TimeCat::IO];
    core::write_at_all(file, static_cast<std::uint64_t>(self.rank()) * kBlock,
                       nullptr, 1, dtype::Datatype::bytes(kBlock));
    io_seconds[static_cast<std::size_t>(self.rank())] =
        self.times().breakdown()[mpi::TimeCat::IO] - before;
    file.close();
    if (self.rank() == 0) size = file.size();
  });
  EXPECT_GT(io_seconds[0], 0.0);
  for (std::size_t r = 1; r < io_seconds.size(); ++r) {
    EXPECT_EQ(io_seconds[r], 0.0) << "rank " << r << " aggregated";
  }
  EXPECT_EQ(size, 4 * kBlock);
}

}  // namespace
}  // namespace parcoll::mpiio
