// Data sieving and the byte-range lock service: correctness of the locked
// read-modify-write under interleaved concurrent writers, window planning,
// and the serialization behaviour.
#include <gtest/gtest.h>

#include "fs/range_lock.hpp"
#include "mpi/collectives.hpp"
#include "mpiio/sieve.hpp"
#include "workloads/flashio.hpp"
#include "workloads/pattern.hpp"

namespace parcoll::mpiio {
namespace {

using dtype::Datatype;

TEST(RangeLock, NonOverlappingLocksProceedConcurrently) {
  sim::Engine engine;
  fs::RangeLockManager locks(engine, 1e-4, 1e-5);
  int holders = 0;
  int max_holders = 0;
  for (int i = 0; i < 4; ++i) {
    engine.spawn([&, i] {
      const fs::Extent range{static_cast<std::uint64_t>(i) * 100, 100};
      locks.lock(i, 0, range);
      ++holders;
      max_holders = std::max(max_holders, holders);
      engine.sleep(1.0);
      --holders;
      locks.unlock(i, 0, range);
    });
  }
  engine.run();
  EXPECT_EQ(max_holders, 4);  // all held simultaneously
}

TEST(RangeLock, OverlappingLocksSerialize) {
  sim::Engine engine;
  fs::RangeLockManager locks(engine, 1e-4, 1e-5);
  int holders = 0;
  int max_holders = 0;
  for (int i = 0; i < 4; ++i) {
    engine.spawn([&, i] {
      const fs::Extent range{static_cast<std::uint64_t>(i) * 50, 100};
      locks.lock(i, 0, range);  // each overlaps its neighbour
      ++holders;
      max_holders = std::max(max_holders, holders);
      engine.sleep(0.5);
      --holders;
      locks.unlock(i, 0, range);
    });
  }
  engine.run();
  // Each lock overlaps its neighbours, so at most the two non-adjacent
  // ranges ({0,2} or {1,3}) can be held together, in two serialized waves.
  EXPECT_LE(max_holders, 2);
  EXPECT_GE(engine.now(), 1.0);
}

TEST(RangeLock, DifferentFilesDoNotConflict) {
  sim::Engine engine;
  fs::RangeLockManager locks(engine, 1e-4, 1e-5);
  int max_holders = 0;
  int holders = 0;
  for (int i = 0; i < 2; ++i) {
    engine.spawn([&, i] {
      locks.lock(i, /*file=*/i, fs::Extent{0, 100});
      ++holders;
      max_holders = std::max(max_holders, holders);
      engine.sleep(1.0);
      --holders;
      locks.unlock(i, i, fs::Extent{0, 100});
    });
  }
  engine.run();
  EXPECT_EQ(max_holders, 2);
}

TEST(RangeLock, UnlockOfUnheldThrows) {
  sim::Engine engine;
  fs::RangeLockManager locks(engine, 1e-4, 1e-5);
  engine.spawn([&] {
    EXPECT_THROW(locks.unlock(0, 0, fs::Extent{0, 1}), std::logic_error);
  });
  engine.run();
}

TEST(RangeLock, ServerSerializesOperations) {
  // 100 non-conflicting lock/unlock pairs through a 1 ms server take at
  // least 200 ms of virtual time even though no locks ever conflict.
  sim::Engine engine;
  fs::RangeLockManager locks(engine, 0.0, 1e-3);
  for (int i = 0; i < 100; ++i) {
    engine.spawn([&, i] {
      const fs::Extent range{static_cast<std::uint64_t>(i) * 10, 10};
      locks.lock(i, 0, range);
      locks.unlock(i, 0, range);
    });
  }
  engine.run();
  EXPECT_GE(engine.now(), 0.2);
}

TEST(Sieve, ContiguousWriteBypassesSieve) {
  mpi::World world(machine::MachineModel::jaguar(1));
  bool ok = false;
  world.run([&](mpi::Rank& self) {
    FileHandle file(self, self.comm_world(), "sv0.dat");
    std::vector<std::byte> data(4096);
    const fs::Extent extent{0, 4096};
    workloads::fill_stream(data.data(), std::span(&extent, 1), 9);
    sieve_write_at(file, 0, data.data(), 1, Datatype::bytes(4096));
    auto* store = dynamic_cast<fs::MemoryStore*>(&self.world().fs().store());
    ok = store && workloads::verify_store(*store, file.fs_id(),
                                          std::span(&extent, 1), 9);
    file.close();
  });
  EXPECT_TRUE(ok);
}

TEST(Sieve, StridedWritePreservesUntouchedBytes) {
  mpi::World world(machine::MachineModel::jaguar(1));
  bool ok = true;
  world.run([&](mpi::Rank& self) {
    auto& fs = self.world().fs();
    FileHandle file(self, self.comm_world(), "sv1.dat");
    // Pre-fill [0, 4096) with pattern A.
    {
      std::vector<std::byte> base(4096);
      const fs::Extent whole{0, 4096};
      workloads::fill_stream(base.data(), std::span(&whole, 1), 1);
      fs.write(0, file.fs_id(), std::span(&whole, 1), base.data());
    }
    // Sieved strided write of pattern B into every other 256B slot.
    const Datatype ftype = Datatype::resized(Datatype::bytes(256), 0, 512);
    file.set_view(0, 256, ftype);
    const auto extents = file.view().map(0, 2048);
    std::vector<std::byte> data(2048);
    workloads::fill_stream(data.data(), extents, 2);
    sieve_write_at(file, 0, data.data(), 1, Datatype::bytes(2048),
                   /*sieve_buffer_size=*/1024);
    auto* store = dynamic_cast<fs::MemoryStore*>(&fs.store());
    ASSERT_NE(store, nullptr);
    std::vector<std::byte> bytes(4096);
    store->read(file.fs_id(), 0, bytes.data(), bytes.size());
    for (std::uint64_t pos = 0; pos < 4096; ++pos) {
      const bool written = (pos / 256) % 2 == 0 && pos < 3840;
      const std::byte expected = workloads::pattern_byte(written ? 2 : 1, pos);
      if (bytes[pos] != expected) {
        ok = false;
        break;
      }
    }
    file.close();
  });
  EXPECT_TRUE(ok);
}

TEST(Sieve, InterleavedConcurrentWritersStayConsistent) {
  // Four ranks write interleaved 128B slots through overlapping sieve
  // windows; the range locks must keep every byte correct.
  mpi::World world(machine::MachineModel::jaguar(4));
  bool ok = true;
  world.run([&](mpi::Rank& self) {
    FileHandle file(self, self.comm_world(), "sv2.dat");
    const Datatype slot = Datatype::resized(Datatype::bytes(128), 0, 512);
    file.set_view(static_cast<std::uint64_t>(self.rank()) * 128, 128, slot);
    const auto extents = file.view().map(0, 16 * 128);
    std::vector<std::byte> data(16 * 128);
    workloads::fill_stream(data.data(), extents, 3);
    sieve_write_at(file, 0, data.data(), 1, Datatype::bytes(16 * 128),
                   /*sieve_buffer_size=*/1024);
    mpi::barrier(self, self.comm_world());
    auto* store = dynamic_cast<fs::MemoryStore*>(&self.world().fs().store());
    ok = ok && store &&
         workloads::verify_store(*store, file.fs_id(), extents, 3);
    file.close();
  });
  EXPECT_TRUE(ok);
}

TEST(Sieve, ReadExtractsStridedPieces) {
  mpi::World world(machine::MachineModel::jaguar(1));
  bool ok = false;
  world.run([&](mpi::Rank& self) {
    auto& fs = self.world().fs();
    FileHandle file(self, self.comm_world(), "sv3.dat");
    const fs::Extent whole{0, 8192};
    std::vector<std::byte> base(8192);
    workloads::fill_stream(base.data(), std::span(&whole, 1), 4);
    fs.write(0, file.fs_id(), std::span(&whole, 1), base.data());

    const Datatype ftype = Datatype::resized(Datatype::bytes(64), 0, 256);
    file.set_view(32, 64, ftype);
    const auto extents = file.view().map(0, 1024);
    std::vector<std::byte> out(1024);
    sieve_read_at(file, 0, out.data(), 1, Datatype::bytes(1024),
                  /*sieve_buffer_size=*/512);
    ok = workloads::check_stream(out.data(), extents, 4);
    file.close();
  });
  EXPECT_TRUE(ok);
}

TEST(Sieve, SievedWriteCostsMoreThanCollective) {
  // The point of Fig. 11's "w/o Coll" series: interleaved sieving is far
  // slower than aggregation for the same bytes.
  const auto run = [](workloads::Impl impl) {
    workloads::FlashConfig config;
    config.nxb = 8;
    config.nguard = 1;
    config.nblocks = 4;
    config.nvars = 2;
    workloads::RunSpec spec;
    spec.impl = impl;
    spec.byte_true = false;
    return workloads::run_flashio(config, 32, spec, true).elapsed;
  };
  EXPECT_GT(run(workloads::Impl::Sieving), run(workloads::Impl::Ext2ph));
}

}  // namespace
}  // namespace parcoll::mpiio
