// Split-phase collective I/O, file access modes, the shared file pointer,
// and file deletion.
#include <gtest/gtest.h>

#include <numeric>

#include "core/split.hpp"
#include "mpi/collectives.hpp"
#include "mpiio/file.hpp"
#include "workloads/pattern.hpp"

namespace parcoll {
namespace {

using dtype::Datatype;

TEST(SplitCollective, WriteBeginEndProducesCorrectBytes) {
  mpi::World world(machine::MachineModel::jaguar(8));
  bool ok = true;
  world.run([&](mpi::Rank& self) {
    mpiio::FileHandle file(self, self.comm_world(), "split1.dat");
    constexpr std::uint64_t kBlock = 4096;
    const fs::Extent mine{static_cast<std::uint64_t>(self.rank()) * kBlock,
                          kBlock};
    std::vector<std::byte> data(kBlock);
    workloads::fill_stream(data.data(), std::span(&mine, 1), 41);
    auto request = core::write_at_all_begin(file, mine.offset, data.data(), 1,
                                            Datatype::bytes(kBlock));
    self.busy(mpi::TimeCat::Compute, 0.01);  // overlapped computation
    const auto outcome = core::split_end(file, request);
    EXPECT_EQ(outcome.bytes, kBlock);
    mpi::barrier(self, self.comm_world());
    auto* store = dynamic_cast<fs::MemoryStore*>(&self.world().fs().store());
    ok = ok && store &&
         workloads::verify_store(*store, file.fs_id(), std::span(&mine, 1), 41);
    file.close();
  });
  EXPECT_TRUE(ok);
}

TEST(SplitCollective, ReadBeginEndDeliversData) {
  mpi::World world(machine::MachineModel::jaguar(4));
  bool ok = true;
  world.run([&](mpi::Rank& self) {
    mpiio::FileHandle file(self, self.comm_world(), "split2.dat");
    constexpr std::uint64_t kBlock = 2048;
    const fs::Extent mine{static_cast<std::uint64_t>(self.rank()) * kBlock,
                          kBlock};
    {
      std::vector<std::byte> seed(kBlock);
      workloads::fill_stream(seed.data(), std::span(&mine, 1), 42);
      file.write_at(mine.offset, seed.data(), 1, Datatype::bytes(kBlock));
    }
    mpi::barrier(self, self.comm_world());
    std::vector<std::byte> back(kBlock);
    auto request = core::read_at_all_begin(file, mine.offset, back.data(), 1,
                                           Datatype::bytes(kBlock));
    self.busy(mpi::TimeCat::Compute, 0.005);
    core::split_end(file, request);
    ok = ok && workloads::check_stream(back.data(), std::span(&mine, 1), 42);
    file.close();
  });
  EXPECT_TRUE(ok);
}

TEST(SplitCollective, OverlapsComputationWithIo) {
  // Total time with overlap must beat compute-then-collective, and the
  // helper must actually run concurrently (end() returns promptly).
  const auto run = [](bool split) {
    mpi::World world(machine::MachineModel::jaguar(16), /*byte_true=*/false);
    double elapsed = 0;
    world.run([&](mpi::Rank& self) {
      mpiio::FileHandle file(self, self.comm_world(), "overlap.dat");
      constexpr std::uint64_t kBlock = 4ull << 20;
      const double t0 = self.now();
      if (split) {
        auto request = core::write_at_all_begin(
            file, static_cast<std::uint64_t>(self.rank()) * kBlock, nullptr,
            1, Datatype::bytes(kBlock));
        self.busy(mpi::TimeCat::Compute, 0.05);
        core::split_end(file, request);
      } else {
        self.busy(mpi::TimeCat::Compute, 0.05);
        core::write_at_all(file,
                           static_cast<std::uint64_t>(self.rank()) * kBlock,
                           nullptr, 1, Datatype::bytes(kBlock));
      }
      mpi::barrier(self, self.comm_world());
      if (self.rank() == 0) elapsed = self.now() - t0;
      file.close();
    });
    return elapsed;
  };
  EXPECT_LT(run(true), run(false));
}

TEST(SplitCollective, ParcollHintsApplyToTheHelper) {
  mpi::World world(machine::MachineModel::jaguar(8));
  mpiio::Hints hints;
  hints.parcoll_num_groups = 2;
  hints.parcoll_min_group_size = 2;
  world.run([&](mpi::Rank& self) {
    mpiio::FileHandle file(self, self.comm_world(), "split3.dat", hints);
    constexpr std::uint64_t kBlock = 1024;
    std::vector<std::byte> data(kBlock);
    auto request = core::write_at_all_begin(
        file, static_cast<std::uint64_t>(self.rank()) * kBlock, data.data(),
        1, Datatype::bytes(kBlock));
    const auto outcome = core::split_end(file, request);
    EXPECT_EQ(outcome.num_groups, 2);
    file.close();
  });
}

TEST(SplitCollective, EndCountsTheCallLikeTheBlockingPath) {
  // split_end folds the helper's outcome into the file's stats the same
  // way write_at_all does: call-level ParColl and two-level counters too.
  const auto run = [](bool split) {
    mpi::World world(machine::MachineModel::jaguar(16), /*byte_true=*/false);
    mpiio::Hints hints;
    hints.parcoll_num_groups = 2;
    hints.cb_intranode = node::IntranodeMode::On;
    mpiio::FileStats stats;
    world.run([&](mpi::Rank& self) {
      mpiio::FileHandle file(self, self.comm_world(), "split5.dat", hints);
      constexpr std::uint64_t kBlock = 1 << 20;
      const std::uint64_t offset =
          static_cast<std::uint64_t>(self.rank()) * kBlock;
      if (split) {
        auto request = core::write_at_all_begin(file, offset, nullptr, 1,
                                                Datatype::bytes(kBlock));
        core::split_end(file, request);
      } else {
        core::write_at_all(file, offset, nullptr, 1, Datatype::bytes(kBlock));
      }
      file.close();
      if (self.rank() == 0) stats = file.stats();
    });
    return stats;
  };
  const mpiio::FileStats blocking = run(false);
  const mpiio::FileStats split = run(true);
  EXPECT_EQ(blocking.parcoll_calls, 1u);
  EXPECT_EQ(blocking.last_num_groups, 2);
  EXPECT_GT(blocking.intranode_calls, 0u);
  EXPECT_EQ(split.collective_writes, blocking.collective_writes);
  EXPECT_EQ(split.bytes_written, blocking.bytes_written);
  EXPECT_EQ(split.exchange_cycles, blocking.exchange_cycles);
  EXPECT_EQ(split.parcoll_calls, blocking.parcoll_calls);
  EXPECT_EQ(split.last_num_groups, blocking.last_num_groups);
  EXPECT_EQ(split.view_switches, blocking.view_switches);
  EXPECT_EQ(split.intranode_calls, blocking.intranode_calls);
  EXPECT_EQ(split.intranode_bytes, blocking.intranode_bytes);
}

TEST(SplitCollective, EndWithoutBeginThrows) {
  mpi::World world(machine::MachineModel::jaguar(1));
  world.run([&](mpi::Rank& self) {
    mpiio::FileHandle file(self, self.comm_world(), "split4.dat");
    core::SplitRequest request;
    EXPECT_THROW(core::split_end(file, request), std::logic_error);
    file.close();
  });
}

TEST(AccessModes, RdonlyRejectsWritesWronlyRejectsReads) {
  mpi::World world(machine::MachineModel::jaguar(1));
  world.run([&](mpi::Rank& self) {
    {
      mpiio::FileHandle writer(self, self.comm_world(), "modes.dat", {},
                               mpiio::kModeWronly | mpiio::kModeCreate);
      std::vector<std::byte> data(64);
      writer.write_at(0, data.data(), 1, Datatype::bytes(64));
      EXPECT_THROW(writer.read_at(0, data.data(), 1, Datatype::bytes(64)),
                   std::logic_error);
      writer.close();
    }
    {
      mpiio::FileHandle reader(self, self.comm_world(), "modes.dat", {},
                               mpiio::kModeRdonly);
      std::vector<std::byte> data(64);
      reader.read_at(0, data.data(), 1, Datatype::bytes(64));
      EXPECT_THROW(reader.write_at(0, data.data(), 1, Datatype::bytes(64)),
                   std::logic_error);
      EXPECT_THROW(core::write_at_all(reader, 0, data.data(), 1,
                                      Datatype::bytes(64)),
                   std::logic_error);
      reader.close();
    }
  });
}

TEST(AccessModes, OpenValidation) {
  mpi::World world(machine::MachineModel::jaguar(1));
  world.run([&](mpi::Rank& self) {
    // No CREATE and no such file.
    EXPECT_THROW(mpiio::FileHandle(self, self.comm_world(), "missing.dat", {},
                                   mpiio::kModeRdwr),
                 std::invalid_argument);
    // Exactly one of RDONLY/WRONLY/RDWR.
    EXPECT_THROW(
        mpiio::FileHandle(self, self.comm_world(), "x.dat", {},
                          mpiio::kModeRdonly | mpiio::kModeRdwr),
        std::invalid_argument);
    // EXCL on an existing file.
    mpiio::FileHandle first(self, self.comm_world(), "excl.dat", {},
                            mpiio::kModeRdwr | mpiio::kModeCreate);
    first.close();
    EXPECT_THROW(mpiio::FileHandle(self, self.comm_world(), "excl.dat", {},
                                   mpiio::kModeRdwr | mpiio::kModeCreate |
                                       mpiio::kModeExcl),
                 std::invalid_argument);
  });
}

TEST(AccessModes, AppendStartsAtEof) {
  mpi::World world(machine::MachineModel::jaguar(1));
  world.run([&](mpi::Rank& self) {
    {
      mpiio::FileHandle file(self, self.comm_world(), "append.dat");
      std::vector<std::byte> data(100);
      file.write_at(0, data.data(), 1, Datatype::bytes(100));
      file.close();
    }
    mpiio::FileHandle appender(self, self.comm_world(), "append.dat", {},
                               mpiio::kModeRdwr | mpiio::kModeAppend);
    EXPECT_EQ(appender.position(), 100u);
    appender.close();
  });
}

TEST(SharedPointer, ClaimsAreDisjointAndCoverTheFile) {
  // 8 ranks each append 3 records via the shared pointer: the 24 claimed
  // slots must be disjoint and cover [0, 24*64).
  mpi::World world(machine::MachineModel::jaguar(8));
  world.run([&](mpi::Rank& self) {
    mpiio::FileHandle file(self, self.comm_world(), "shared.dat");
    std::vector<unsigned char> record(64,
                                      static_cast<unsigned char>(self.rank()));
    for (int i = 0; i < 3; ++i) {
      file.write_shared(record.data(), 1, Datatype::bytes(64));
    }
    mpi::barrier(self, self.comm_world());
    if (self.rank() == 0) {
      EXPECT_EQ(file.shared_position(), 24u * 64u);
      EXPECT_EQ(file.size(), 24u * 64u);
      // Every 64-byte slot is uniform (one writer) and each rank appears
      // exactly 3 times.
      auto* store = dynamic_cast<fs::MemoryStore*>(&self.world().fs().store());
      std::vector<std::byte> bytes(24 * 64);
      store->read(file.fs_id(), 0, bytes.data(), bytes.size());
      std::vector<int> counts(8, 0);
      for (int slot = 0; slot < 24; ++slot) {
        const auto value = static_cast<unsigned char>(bytes[slot * 64]);
        ASSERT_LT(value, 8);
        for (int i = 1; i < 64; ++i) {
          ASSERT_EQ(static_cast<unsigned char>(bytes[slot * 64 + i]), value);
        }
        ++counts[value];
      }
      for (int count : counts) EXPECT_EQ(count, 3);
    }
    file.close();
  });
}

TEST(SharedPointer, ReadSharedConsumesSequentially) {
  mpi::World world(machine::MachineModel::jaguar(1));
  world.run([&](mpi::Rank& self) {
    mpiio::FileHandle file(self, self.comm_world(), "sharedr.dat");
    std::vector<unsigned char> data(128);
    std::iota(data.begin(), data.end(), 0);
    file.write_at(0, data.data(), 1, Datatype::bytes(128));
    std::vector<unsigned char> a(64);
    std::vector<unsigned char> b(64);
    file.read_shared(a.data(), 1, Datatype::bytes(64));
    file.read_shared(b.data(), 1, Datatype::bytes(64));
    EXPECT_EQ(a[0], 0);
    EXPECT_EQ(b[0], 64);
    file.close();
  });
}

TEST(FileDelete, RemoveDropsTheNameAndRecreateIsFresh) {
  mpi::World world(machine::MachineModel::jaguar(1));
  world.run([&](mpi::Rank& self) {
    auto& fs = self.world().fs();
    {
      mpiio::FileHandle file(self, self.comm_world(), "victim.dat");
      std::vector<std::byte> data(32);
      file.write_at(0, data.data(), 1, Datatype::bytes(32));
      file.close();
    }
    EXPECT_TRUE(fs.exists("victim.dat"));
    fs.remove("victim.dat");
    EXPECT_FALSE(fs.exists("victim.dat"));
    EXPECT_THROW(fs.remove("victim.dat"), std::invalid_argument);
    // Re-creating yields a fresh (empty) file.
    mpiio::FileHandle fresh(self, self.comm_world(), "victim.dat");
    EXPECT_EQ(fresh.size(), 0u);
    fresh.close();
  });
}

}  // namespace
}  // namespace parcoll
