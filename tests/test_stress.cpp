// Stress tests: high message counts, deep collective sequences over
// randomly nested communicators, thousands of fibers, and a full-stack
// soak combining every layer.
#include <gtest/gtest.h>

#include <numeric>

#include "core/parcoll.hpp"
#include "mpi/collectives.hpp"
#include "mpi/p2p.hpp"
#include "mpiio/file.hpp"
#include "sim/random.hpp"
#include "workloads/pattern.hpp"

namespace parcoll {
namespace {

TEST(Stress, ThousandsOfFibers) {
  sim::Engine engine;
  long sum = 0;
  for (int i = 0; i < 4000; ++i) {
    engine.spawn(
        [&, i] {
          engine.sleep((i % 13) * 1e-6);
          sum += i;
        },
        /*stack_bytes=*/64 * 1024);
  }
  engine.run();
  EXPECT_EQ(sum, 4000L * 3999 / 2);
}

TEST(Stress, ManyMessagesAllToAllPairs) {
  // Every rank sends 50 messages to every other rank; ordering per pair
  // must hold and every payload must arrive exactly once.
  constexpr int kRanks = 8;
  constexpr int kMsgs = 50;
  mpi::World world(machine::MachineModel::jaguar(kRanks));
  std::vector<long> sums(kRanks, 0);
  world.run([&](mpi::Rank& self) {
    auto& p2p = self.world().p2p();
    std::vector<mpi::Request> requests;
    std::vector<int> inbox(static_cast<std::size_t>(kRanks) * kMsgs, -1);
    std::vector<int> outbox(static_cast<std::size_t>(kRanks) * kMsgs);
    for (int peer = 0; peer < kRanks; ++peer) {
      if (peer == self.rank()) continue;
      for (int m = 0; m < kMsgs; ++m) {
        auto& slot = inbox[static_cast<std::size_t>(peer) * kMsgs + m];
        requests.push_back(
            p2p.irecv(self, self.comm_world(), peer, m, &slot, sizeof(int)));
      }
    }
    for (int peer = 0; peer < kRanks; ++peer) {
      if (peer == self.rank()) continue;
      for (int m = 0; m < kMsgs; ++m) {
        auto& value = outbox[static_cast<std::size_t>(peer) * kMsgs + m];
        value = self.rank() * 10000 + peer * 100 + m;
        requests.push_back(
            p2p.isend(self, self.comm_world(), peer, m, &value, sizeof(int)));
      }
    }
    p2p.waitall(self, requests);
    long sum = 0;
    for (int peer = 0; peer < kRanks; ++peer) {
      if (peer == self.rank()) continue;
      for (int m = 0; m < kMsgs; ++m) {
        EXPECT_EQ(inbox[static_cast<std::size_t>(peer) * kMsgs + m],
                  peer * 10000 + self.rank() * 100 + m);
        sum += inbox[static_cast<std::size_t>(peer) * kMsgs + m];
      }
    }
    sums[self.rank()] = sum;
  });
  for (long sum : sums) EXPECT_GT(sum, 0);
}

TEST(Stress, DeepCollectiveSequencesOverNestedComms) {
  // 200 collectives interleaved across the world comm and two generations
  // of nested splits; sequence bookkeeping must never cross wires.
  constexpr int kRanks = 12;
  mpi::World world(machine::MachineModel::jaguar(kRanks));
  bool ok = true;
  world.run([&](mpi::Rank& self) {
    const mpi::Comm half =
        mpi::comm_split(self, self.comm_world(), self.rank() % 2, self.rank());
    const mpi::Comm quarter =
        mpi::comm_split(self, half, self.rank() % 4 / 2, self.rank());
    for (int round = 0; round < 200; ++round) {
      switch (round % 3) {
        case 0: {
          const auto all = mpi::allgather_shared(self, self.comm_world(),
                                                 round * 100 + self.rank());
          if ((*all)[3] != round * 100 + 3) ok = false;
          break;
        }
        case 1: {
          const int expected_size = half.size();
          const int sum = mpi::allreduce_sum(self, half, 1);
          if (sum != expected_size) ok = false;
          break;
        }
        default: {
          const int max = mpi::allreduce_max(self, quarter, self.rank());
          if (max < self.rank()) ok = false;
          break;
        }
      }
    }
  });
  EXPECT_TRUE(ok);
}

TEST(Stress, CollectiveKindMismatchIsDetected) {
  mpi::World world(machine::MachineModel::jaguar(2));
  EXPECT_THROW(world.run([&](mpi::Rank& self) {
                 if (self.rank() == 0) {
                   mpi::barrier(self, self.comm_world());
                 } else {
                   mpi::allreduce_sum(self, self.comm_world(), 1);
                 }
               }),
               std::logic_error);
}

TEST(Stress, FullStackSoak) {
  // Every layer in one program: splits, collectives, sieving, async I/O,
  // collective I/O with ParColl-auto across three files, byte-verified.
  constexpr int kRanks = 12;
  mpi::World world(machine::MachineModel::jaguar(kRanks));
  mpiio::Hints hints;
  hints.set("parcoll_num_groups", "auto");
  hints.parcoll_min_group_size = 2;
  hints.cb_buffer_size = 2048;
  bool ok = true;
  world.run([&](mpi::Rank& self) {
    for (int round = 0; round < 3; ++round) {
      const std::string name = "soak_" + std::to_string(round);
      mpiio::FileHandle file(self, self.comm_world(), name, hints);
      const auto slot = dtype::Datatype::resized(
          dtype::Datatype::bytes(96), 0, 96ull * kRanks);
      file.set_view(static_cast<std::uint64_t>(self.rank()) * 96, 96, slot);
      const std::uint64_t bytes = 96 * 8;
      const auto extents = file.view().map(0, bytes);
      std::vector<std::byte> data(bytes);
      const std::uint64_t salt = 900 + round;
      workloads::fill_buffer_for_extents(
          data.data(), dtype::Datatype::bytes(bytes), 1, extents, salt);
      core::write_at_all(file, 0, data.data(), 1,
                         dtype::Datatype::bytes(bytes));
      mpi::barrier(self, self.comm_world());
      auto* store =
          dynamic_cast<fs::MemoryStore*>(&self.world().fs().store());
      ok = ok && store &&
           workloads::verify_store(*store, file.fs_id(), extents, salt);
      std::vector<std::byte> back(bytes);
      core::read_at_all(file, 0, back.data(), 1,
                        dtype::Datatype::bytes(bytes));
      ok = ok && workloads::check_buffer_for_extents(
                     back.data(), dtype::Datatype::bytes(bytes), 1, extents,
                     salt);
      file.close();
    }
  });
  EXPECT_TRUE(ok);
}

TEST(Stress, DeterministicUnderHeavyConcurrency) {
  const auto run_once = [] {
    mpi::World world(machine::MachineModel::jaguar(24));
    world.run([&](mpi::Rank& self) {
      auto& p2p = self.world().p2p();
      std::vector<mpi::Request> requests;
      std::vector<int> inbox(24, 0);
      for (int peer = 0; peer < 24; ++peer) {
        if (peer == self.rank()) continue;
        requests.push_back(p2p.irecv(self, self.comm_world(), peer, 0,
                                     &inbox[peer], sizeof(int)));
      }
      const int value = self.rank();
      for (int peer = 0; peer < 24; ++peer) {
        if (peer == self.rank()) continue;
        requests.push_back(
            p2p.isend(self, self.comm_world(), peer, 0, &value, sizeof(int)));
      }
      p2p.waitall(self, requests);
      mpi::barrier(self, self.comm_world());
    });
    return world.elapsed();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace parcoll
