// World/Rank runtime: lifecycle, accounting, shared objects, determinism.
#include <gtest/gtest.h>

#include <sstream>

#include "fs/lustre.hpp"
#include "mpiio/stats.hpp"
#include "mpi/collectives.hpp"
#include "mpi/runtime.hpp"
#include "mpi/trace.hpp"

namespace parcoll::mpi {
namespace {

TEST(World, RunsEveryRankOnce) {
  World world(machine::MachineModel::jaguar(16));
  std::vector<int> visits(16, 0);
  world.run([&](Rank& self) { ++visits[self.rank()]; });
  for (int count : visits) EXPECT_EQ(count, 1);
}

TEST(World, SecondRunThrows) {
  World world(machine::MachineModel::jaguar(2));
  world.run([](Rank&) {});
  EXPECT_THROW(world.run([](Rank&) {}), std::logic_error);
}

TEST(World, ElapsedIsTheLastFinisher) {
  World world(machine::MachineModel::jaguar(4));
  world.run([&](Rank& self) {
    self.busy(TimeCat::Compute, 0.25 * (self.rank() + 1));
  });
  EXPECT_DOUBLE_EQ(world.elapsed(), 1.0);
}

TEST(World, RankTimesArePerRank) {
  World world(machine::MachineModel::jaguar(3));
  world.run([&](Rank& self) {
    self.busy(TimeCat::IO, 0.1 * self.rank());
  });
  EXPECT_DOUBLE_EQ(world.rank_times()[0][TimeCat::IO], 0.0);
  EXPECT_DOUBLE_EQ(world.rank_times()[2][TimeCat::IO], 0.2);
}

TEST(World, SharedObjectIsCreatedOnceAndShared) {
  World world(machine::MachineModel::jaguar(4));
  int factory_calls = 0;
  std::vector<void*> seen(4, nullptr);
  world.run([&](Rank& self) {
    auto obj = self.world().shared_object<int>("thing", [&]() {
      ++factory_calls;
      return std::make_shared<int>(7);
    });
    seen[self.rank()] = obj.get();
    auto other = self.world().shared_object<int>("other", [&]() {
      ++factory_calls;
      return std::make_shared<int>(8);
    });
    EXPECT_NE(obj.get(), other.get());
  });
  EXPECT_EQ(factory_calls, 2);
  for (int r = 1; r < 4; ++r) EXPECT_EQ(seen[r], seen[0]);
}

TEST(World, TeardownUnwindsRanksLeftSuspendedByAThrow) {
  // Rank 0 throws while the others wait in a traced barrier: the run ends
  // with its error, and destroying the World unwinds the waiters' stacks
  // (closing their call spans), so their locals are destroyed too.
  struct Guard {
    int* count;
    ~Guard() { ++*count; }
  };
  int destroyed = 0;
  {
    World world(machine::MachineModel::jaguar(4));
    world.enable_tracing();
    EXPECT_THROW(world.run([&](Rank& self) {
                   Guard guard{&destroyed};
                   if (self.rank() == 0) {
                     self.busy(TimeCat::Compute, 1.0);
                     throw std::runtime_error("rank 0 fails");
                   }
                   barrier(self, self.comm_world());
                 }),
                 std::runtime_error);
    EXPECT_EQ(destroyed, 1);
  }
  EXPECT_EQ(destroyed, 4);
}

TEST(World, ByteTrueFlagSelectsStoreMode) {
  World real(machine::MachineModel::jaguar(1), true);
  World phantom(machine::MachineModel::jaguar(1), false);
  EXPECT_TRUE(real.byte_true());
  EXPECT_FALSE(phantom.byte_true());
  EXPECT_NE(dynamic_cast<fs::MemoryStore*>(&real.fs().store()), nullptr);
  EXPECT_NE(dynamic_cast<fs::PhantomStore*>(&phantom.fs().store()), nullptr);
}

TEST(Rank, NodePlacementFollowsTheTopology) {
  World world(machine::MachineModel::jaguar(8, machine::Mapping::Cyclic));
  world.run([&](Rank& self) {
    EXPECT_EQ(self.node(), self.rank() % 4);
    EXPECT_EQ(self.size(), 8);
  });
}

TEST(Rank, TouchBytesChargesMemcpyBandwidth) {
  World world(machine::MachineModel::jaguar(1));
  const double bw = machine::MemoryParams{}.memcpy_bandwidth;
  world.run([&](Rank& self) {
    self.touch_bytes(bw);  // exactly one second of copying
    EXPECT_DOUBLE_EQ(self.times().breakdown()[TimeCat::Compute], 1.0);
    EXPECT_DOUBLE_EQ(self.now(), 1.0);
  });
}

TEST(Rank, CollectiveSequencePerContext) {
  World world(machine::MachineModel::jaguar(1));
  world.run([&](Rank& self) {
    EXPECT_EQ(self.next_coll_seq(10), 0u);
    EXPECT_EQ(self.next_coll_seq(10), 1u);
    EXPECT_EQ(self.next_coll_seq(11), 0u);  // independent per context
  });
}

TEST(World, FullStackRunIsDeterministic) {
  const auto run_once = [] {
    World world(machine::MachineModel::jaguar(16));
    auto& tracer = world.enable_tracing();
    world.run([&](Rank& self) {
      const int fs_id = self.world().fs().open("det.dat");
      for (int round = 0; round < 3; ++round) {
        allreduce_sum(self, self.comm_world(), self.rank());
        const fs::Extent extent{
            static_cast<std::uint64_t>(self.rank()) * 4096, 4096};
        self.world().fs().write(self.rank(), fs_id, std::span(&extent, 1),
                                nullptr);
      }
    });
    std::ostringstream os;
    tracer.write_csv(os);
    return std::make_pair(world.elapsed(), os.str());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);  // identical traces, byte for byte
}

TEST(Comm, MembershipQueries) {
  const Comm comm(5, {10, 20, 30});
  EXPECT_EQ(comm.size(), 3);
  EXPECT_EQ(comm.world_rank(1), 20);
  EXPECT_EQ(comm.local_rank(30), 2);
  EXPECT_EQ(comm.local_rank(99), -1);
  EXPECT_THROW(static_cast<void>(comm.world_rank(3)), std::out_of_range);
  EXPECT_THROW(Comm(6, {1, 1}), std::invalid_argument);
}

TEST(Stats, AccumulateAllFields) {
  mpiio::FileStats a;
  a.time.seconds[0] = 1;
  a.bytes_written = 10;
  a.collective_writes = 1;
  a.exchange_cycles = 5;
  a.view_switches = 1;
  a.last_num_groups = 4;
  mpiio::FileStats b;
  b.bytes_read = 20;
  b.independent_reads = 2;
  b.rmw_reads = 3;
  b.parcoll_calls = 1;
  b.last_num_groups = 0;  // zero must not clobber the previous value
  a += b;
  EXPECT_EQ(a.bytes_written, 10u);
  EXPECT_EQ(a.bytes_read, 20u);
  EXPECT_EQ(a.independent_reads, 2u);
  EXPECT_EQ(a.rmw_reads, 3u);
  EXPECT_EQ(a.parcoll_calls, 1u);
  EXPECT_EQ(a.view_switches, 1u);
  EXPECT_EQ(a.last_num_groups, 4);
  mpiio::FileStats c;
  c.last_num_groups = 8;
  a += c;
  EXPECT_EQ(a.last_num_groups, 8);  // newer nonzero value wins
}

}  // namespace
}  // namespace parcoll::mpi
