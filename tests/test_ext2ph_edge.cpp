// Extended two-phase engine: edge cases and stress shapes beyond the main
// correctness suite.
#include <gtest/gtest.h>

#include <numeric>

#include "mpi/collectives.hpp"
#include "mpiio/ext2ph.hpp"
#include "workloads/pattern.hpp"

namespace parcoll::mpiio {
namespace {

constexpr std::uint64_t kSalt = 0xED6E;

struct Harness {
  explicit Harness(int nranks)
      : world(machine::MachineModel::jaguar(nranks)) {}

  void write_and_verify(
      const std::function<std::vector<fs::Extent>(int)>& extents_of,
      Ext2phOptions options) {
    bool ok = true;
    world.run([&](mpi::Rank& self) {
      const int fs_id = self.world().fs().open("edge.dat", 8, 4096);
      DirectTarget target(self.world().fs(), fs_id);
      const auto extents = extents_of(self.rank());
      std::uint64_t bytes = 0;
      for (const auto& extent : extents) bytes += extent.length;
      std::vector<std::byte> packed(bytes);
      workloads::fill_stream(packed.data(), extents, kSalt);
      ext2ph(self, self.comm_world(), target,
             CollRequest{extents, packed.empty() ? nullptr : packed.data()},
             options, true);
      mpi::barrier(self, self.comm_world());
      auto* store =
          dynamic_cast<fs::MemoryStore*>(&self.world().fs().store());
      ok = ok && store &&
           workloads::verify_store(*store, fs_id, extents, kSalt);
    });
    EXPECT_TRUE(ok);
  }

  mpi::World world;
};

Ext2phOptions all_aggs(int nranks, std::uint64_t cb = 4096) {
  std::vector<int> all(static_cast<std::size_t>(nranks));
  std::iota(all.begin(), all.end(), 0);
  Ext2phOptions options;
  options.aggregators = make_roster(std::move(all));
  options.cb_buffer_size = cb;
  return options;
}

TEST(Ext2phEdge, SingleRankWorld) {
  Harness harness(1);
  harness.write_and_verify(
      [](int) {
        return std::vector<fs::Extent>{{100, 300}, {1000, 24}};
      },
      all_aggs(1));
}

TEST(Ext2phEdge, TinyCollectiveBuffer) {
  // A 64-byte collective buffer forces dozens of cycles; placement must
  // still be exact.
  Harness harness(3);
  harness.write_and_verify(
      [](int r) {
        std::vector<fs::Extent> extents;
        for (int k = 0; k < 6; ++k) {
          extents.push_back(fs::Extent{
              static_cast<std::uint64_t>((k * 3 + r)) * 100, 77});
        }
        return extents;
      },
      all_aggs(3, /*cb=*/64));
}

TEST(Ext2phEdge, MoreAggregatorsThanData) {
  // 16 aggregators for a 64-byte total request: most domains are empty.
  Harness harness(16);
  harness.write_and_verify(
      [](int r) {
        if (r != 5) return std::vector<fs::Extent>{};
        return std::vector<fs::Extent>{{10, 64}};
      },
      all_aggs(16));
}

TEST(Ext2phEdge, AggregatorsAreASubsetWithoutData) {
  // The two aggregators have no data of their own.
  Harness harness(6);
  Ext2phOptions options;
  options.aggregators = make_roster({0, 1});
  options.cb_buffer_size = 512;
  harness.write_and_verify(
      [](int r) {
        if (r < 2) return std::vector<fs::Extent>{};
        return std::vector<fs::Extent>{
            {static_cast<std::uint64_t>(r) * 1000, 900}};
      },
      options);
}

TEST(Ext2phEdge, WidelySeparatedRequests) {
  // Two clusters gigabytes apart: covered-range windows must skip the gap
  // (bounded cycles) and still place bytes exactly.
  Harness harness(4);
  mpi::World& world = harness.world;
  std::uint64_t cycles = 0;
  bool ok = true;
  world.run([&](mpi::Rank& self) {
    const int fs_id = self.world().fs().open("gap.dat", 8, 1 << 20);
    DirectTarget target(self.world().fs(), fs_id);
    const std::uint64_t far = 4ull << 30;  // 4 GiB away
    const std::vector<fs::Extent> extents{
        {static_cast<std::uint64_t>(self.rank()) * 512, 512},
        {far + static_cast<std::uint64_t>(self.rank()) * 512, 512}};
    std::vector<std::byte> packed(1024);
    workloads::fill_stream(packed.data(), extents, kSalt);
    auto options = all_aggs(4, 1024);
    const auto outcome = ext2ph(self, self.comm_world(), target,
                                CollRequest{extents, packed.data()}, options,
                                true);
    if (self.rank() == 0) cycles = outcome.cycles;
    mpi::barrier(self, self.comm_world());
    auto* store = dynamic_cast<fs::MemoryStore*>(&self.world().fs().store());
    ok = ok && store && workloads::verify_store(*store, fs_id, extents, kSalt);
  });
  EXPECT_TRUE(ok);
  // Without covered-range windows this would be ~4 GiB / 1 KiB cycles.
  EXPECT_LE(cycles, 8u);
}

TEST(Ext2phEdge, ReadFromUnwrittenRegionsReturnsZeros) {
  mpi::World world(machine::MachineModel::jaguar(2));
  bool ok = true;
  world.run([&](mpi::Rank& self) {
    const int fs_id = self.world().fs().open("zeros.dat", 8, 4096);
    DirectTarget target(self.world().fs(), fs_id);
    const std::vector<fs::Extent> extents{
        {static_cast<std::uint64_t>(self.rank()) * 4096 + 128, 256}};
    std::vector<std::byte> packed(256, std::byte{0xAA});
    auto options = all_aggs(2);
    ext2ph(self, self.comm_world(), target,
           CollRequest{extents, packed.data()}, options, false);
    for (std::byte b : packed) {
      if (b != std::byte{0}) ok = false;
    }
  });
  EXPECT_TRUE(ok);
}

TEST(Ext2phEdge, RepeatedCallsOnSameCommAreIndependent) {
  Harness harness(4);
  bool ok = true;
  harness.world.run([&](mpi::Rank& self) {
    const int fs_id = self.world().fs().open("repeat.dat", 8, 4096);
    DirectTarget target(self.world().fs(), fs_id);
    auto options = all_aggs(4, 512);
    for (int call = 0; call < 5; ++call) {
      const std::vector<fs::Extent> extents{
          {static_cast<std::uint64_t>(call) * 8192 +
               static_cast<std::uint64_t>(self.rank()) * 2048,
           2048}};
      std::vector<std::byte> packed(2048);
      workloads::fill_stream(packed.data(), extents, kSalt + call);
      ext2ph(self, self.comm_world(), target,
             CollRequest{extents, packed.data()}, options, true);
      mpi::barrier(self, self.comm_world());
      auto* store =
          dynamic_cast<fs::MemoryStore*>(&self.world().fs().store());
      ok = ok && store &&
           workloads::verify_store(*store, fs_id, extents, kSalt + call);
    }
  });
  EXPECT_TRUE(ok);
}

TEST(Ext2phEdge, FdAlignmentPreservesCorrectness) {
  Harness harness(8);
  auto options = all_aggs(8, 4096);
  options.fd_alignment = 4096;
  harness.write_and_verify(
      [](int r) {
        return std::vector<fs::Extent>{
            {static_cast<std::uint64_t>(r) * 3000, 3000}};
      },
      options);
}

TEST(Ext2phEdge, UnsortedRosterEndsTheRun) {
  // The file-bounds build checks the roster once, on the last arriver of
  // the range gathering; the run ends with its error.
  mpi::World world(machine::MachineModel::jaguar(4));
  EXPECT_THROW(world.run([&](mpi::Rank& self) {
                 const int fs_id = self.world().fs().open("roster.dat", 4,
                                                          4096);
                 DirectTarget target(self.world().fs(), fs_id);
                 const std::vector<fs::Extent> extents{
                     {static_cast<std::uint64_t>(self.rank()) * 1024, 1024}};
                 std::vector<std::byte> packed(1024);
                 Ext2phOptions options;
                 options.aggregators = make_roster({2, 0});
                 options.cb_buffer_size = 1024;
                 ext2ph(self, self.comm_world(), target,
                        CollRequest{extents, packed.data()}, options, true);
               }),
               std::invalid_argument);
}

TEST(Ext2phEdge, MismatchedFdAlignmentIsAProgramError) {
  // Every rank must pass the same options. Rank 1 rounds the file domains
  // up to 8 KiB (so it sends all of its request to aggregator 0) and rank
  // 0 does not (so [4000, 5000) of its request goes to aggregator 1). The
  // request lists rank 1 sent stretch aggregator 0's covered range over
  // all of rank 0's request, so rank 0's first cycle size for aggregator 0
  // counts bytes its request list never sent there. Aggregator 0 finds
  // the mismatch and the run ends with a logic_error.
  mpi::World world(machine::MachineModel::jaguar(2));
  EXPECT_THROW(world.run([&](mpi::Rank& self) {
                 const int fs_id = self.world().fs().open("align.dat", 4,
                                                          4096);
                 DirectTarget target(self.world().fs(), fs_id);
                 const std::vector<fs::Extent> extents =
                     self.rank() == 0
                         ? std::vector<fs::Extent>{{3000, 2000}}
                         : std::vector<fs::Extent>{{0, 1000}, {6000, 2000}};
                 std::vector<std::byte> packed(3000);
                 auto options = all_aggs(2, 8192);
                 options.fd_alignment = self.rank() == 1 ? 8192 : 0;
                 ext2ph(self, self.comm_world(), target,
                        CollRequest{extents, packed.data()}, options, true);
               }),
               std::logic_error);
}

TEST(Ext2phEdge, SubCommunicatorCollective) {
  // ext2ph on a split communicator: only members participate.
  mpi::World world(machine::MachineModel::jaguar(8));
  bool ok = true;
  world.run([&](mpi::Rank& self) {
    const mpi::Comm half =
        mpi::comm_split(self, self.comm_world(), self.rank() % 2, self.rank());
    const int fs_id = self.world().fs().open(
        self.rank() % 2 == 0 ? "even.dat" : "odd.dat", 4, 4096);
    DirectTarget target(self.world().fs(), fs_id);
    const int local = half.local_rank(self.rank());
    const std::vector<fs::Extent> extents{
        {static_cast<std::uint64_t>(local) * 1024, 1024}};
    std::vector<std::byte> packed(1024);
    const std::uint64_t salt = kSalt + (self.rank() % 2);
    workloads::fill_stream(packed.data(), extents, salt);
    Ext2phOptions options;
    options.aggregators = make_roster({0, 2});
    options.cb_buffer_size = 512;
    ext2ph(self, half, target, CollRequest{extents, packed.data()}, options,
           true);
    mpi::barrier(self, self.comm_world());
    auto* store = dynamic_cast<fs::MemoryStore*>(&self.world().fs().store());
    ok = ok && store && workloads::verify_store(*store, fs_id, extents, salt);
  });
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace parcoll::mpiio
