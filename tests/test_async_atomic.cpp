// Nonblocking independent I/O, atomic mode, and the randomized datatype
// pack/unpack round-trip property.
#include <gtest/gtest.h>

#include "dtype/pack.hpp"
#include "mpi/collectives.hpp"
#include "mpiio/async.hpp"
#include "mpiio/file.hpp"
#include "sim/random.hpp"
#include "workloads/pattern.hpp"

namespace parcoll {
namespace {

using dtype::Datatype;

TEST(AsyncIo, IwriteOverlapsWithComputation) {
  mpi::World world(machine::MachineModel::jaguar(1), /*byte_true=*/false);
  world.run([&](mpi::Rank& self) {
    mpiio::FileHandle file(self, self.comm_world(), "async1.dat");
    const double t0 = self.now();
    auto request = mpiio::iwrite_at(file, 0, nullptr, 1,
                                    Datatype::bytes(64ull << 20));
    self.busy(mpi::TimeCat::Compute, 1.0);
    mpiio::io_wait(file, request);
    const double overlapped = self.now() - t0;

    // Sequential version for comparison.
    const double t1 = self.now();
    file.write_at(0, nullptr, 1, Datatype::bytes(64ull << 20));
    self.busy(mpi::TimeCat::Compute, 1.0);
    const double sequential = self.now() - t1;
    EXPECT_LT(overlapped, sequential);
    file.close();
  });
}

TEST(AsyncIo, IwriteDeliversCorrectBytes) {
  mpi::World world(machine::MachineModel::jaguar(2));
  bool ok = true;
  world.run([&](mpi::Rank& self) {
    mpiio::FileHandle file(self, self.comm_world(), "async2.dat");
    const fs::Extent mine{static_cast<std::uint64_t>(self.rank()) * 1024,
                          1024};
    std::vector<std::byte> data(1024);
    workloads::fill_stream(data.data(), std::span(&mine, 1), 51);
    auto request =
        mpiio::iwrite_at(file, mine.offset, data.data(), 1,
                         Datatype::bytes(1024));
    mpiio::io_wait(file, request);
    mpi::barrier(self, self.comm_world());
    auto* store = dynamic_cast<fs::MemoryStore*>(&self.world().fs().store());
    ok = ok && store &&
         workloads::verify_store(*store, file.fs_id(), std::span(&mine, 1),
                                 51);
    file.close();
  });
  EXPECT_TRUE(ok);
}

TEST(AsyncIo, IreadDeliversAfterWait) {
  mpi::World world(machine::MachineModel::jaguar(1));
  bool ok = false;
  world.run([&](mpi::Rank& self) {
    mpiio::FileHandle file(self, self.comm_world(), "async3.dat");
    const fs::Extent whole{0, 2048};
    std::vector<std::byte> seed(2048);
    workloads::fill_stream(seed.data(), std::span(&whole, 1), 52);
    file.write_at(0, seed.data(), 1, Datatype::bytes(2048));

    std::vector<std::byte> back(2048);
    auto request =
        mpiio::iread_at(file, 0, back.data(), 1, Datatype::bytes(2048));
    self.busy(mpi::TimeCat::Compute, 0.01);
    mpiio::io_wait(file, request);
    ok = workloads::check_stream(back.data(), std::span(&whole, 1), 52);
    file.close();
  });
  EXPECT_TRUE(ok);
}

TEST(AsyncIo, WaitOnInvalidThrows) {
  mpi::World world(machine::MachineModel::jaguar(1));
  world.run([&](mpi::Rank& self) {
    mpiio::FileHandle file(self, self.comm_world(), "async4.dat");
    mpiio::IoRequest request;
    EXPECT_THROW(mpiio::io_wait(file, request), std::logic_error);
    file.close();
  });
}

TEST(AtomicMode, TogglesAndCostsLockTime) {
  mpi::World world(machine::MachineModel::jaguar(1), /*byte_true=*/false);
  world.run([&](mpi::Rank& self) {
    mpiio::FileHandle file(self, self.comm_world(), "atomic.dat");
    EXPECT_FALSE(file.atomicity());
    const double t0 = self.now();
    file.write_at(0, nullptr, 1, Datatype::bytes(4096));
    const double plain = self.now() - t0;

    file.set_atomicity(true);
    EXPECT_TRUE(file.atomicity());
    const double t1 = self.now();
    file.write_at(8192, nullptr, 1, Datatype::bytes(4096));
    const double atomic = self.now() - t1;
    EXPECT_GT(atomic, plain);  // lock round trips added
    file.close();
  });
}

TEST(AtomicMode, OverlappingAtomicWritersSerializeConsistently) {
  // Two ranks write the same range atomically: the result must be one
  // writer's bytes entirely (no interleaving), whichever ran last.
  mpi::World world(machine::MachineModel::jaguar(2));
  world.run([&](mpi::Rank& self) {
    mpiio::FileHandle file(self, self.comm_world(), "atomic2.dat");
    file.set_atomicity(true);
    std::vector<unsigned char> data(4096,
                                    static_cast<unsigned char>(self.rank() + 1));
    file.write_at(0, data.data(), 1, Datatype::bytes(4096));
    mpi::barrier(self, self.comm_world());
    if (self.rank() == 0) {
      auto* store =
          dynamic_cast<fs::MemoryStore*>(&self.world().fs().store());
      std::vector<std::byte> bytes(4096);
      store->read(file.fs_id(), 0, bytes.data(), bytes.size());
      const auto first = static_cast<unsigned char>(bytes[0]);
      EXPECT_TRUE(first == 1 || first == 2);
      for (std::size_t i = 0; i < 4096; ++i) {
        ASSERT_EQ(static_cast<unsigned char>(bytes[i]), first);
      }
    }
    file.close();
  });
}

TEST(DatatypeDescribe, SummarizesLayout) {
  const auto type = Datatype::vec(3, 1, 2, Datatype::bytes(4));
  const std::string text = type.describe();
  EXPECT_NE(text.find("size=12"), std::string::npos);
  EXPECT_NE(text.find("segments=3"), std::string::npos);
  EXPECT_NE(text.find("[0+4)"), std::string::npos);
}

/// Random nested datatype built from a seed: a few levels of vec /
/// contiguous / resized over a byte base. Displacements stay non-negative
/// so pack/unpack can run against a flat buffer.
Datatype random_type(std::uint64_t seed, int depth = 2) {
  Datatype type = Datatype::bytes(1 + sim::mix64(seed) % 16);
  for (int level = 0; level < depth; ++level) {
    const std::uint64_t h = sim::mix64(seed ^ (level * 1315423911ull));
    switch (h % 3) {
      case 0:
        type = Datatype::contiguous(1 + h / 7 % 4, type);
        break;
      case 1:
        type = Datatype::vec(1 + h / 11 % 3, 1 + h / 13 % 2,
                             static_cast<std::int64_t>(2 + h / 17 % 3), type);
        break;
      default:
        type = Datatype::resized(type, 0,
                                 static_cast<std::uint64_t>(type.extent()) +
                                     h / 19 % 32);
        break;
    }
  }
  return type;
}

class PackRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PackRoundTrip, PackThenUnpackIsIdentityOnTheTypeMap) {
  const std::uint64_t seed = GetParam();
  const Datatype type = random_type(seed);
  const std::uint64_t count = 1 + sim::mix64(seed ^ 0xC0FFEE) % 3;
  const std::uint64_t footprint =
      static_cast<std::uint64_t>(type.extent()) * count + 64;

  std::vector<unsigned char> original(footprint);
  for (std::size_t i = 0; i < original.size(); ++i) {
    original[i] = static_cast<unsigned char>(sim::mix64(seed + i));
  }
  std::vector<std::byte> stream(type.size() * count);
  dtype::pack(original.data(), type, count,
              stream.data());

  std::vector<unsigned char> reconstructed(footprint, 0xEE);
  dtype::unpack(stream.data(), type, count, reconstructed.data());

  // Every byte inside the type map must round-trip; bytes outside must be
  // untouched (still 0xEE).
  std::vector<bool> in_map(footprint, false);
  for (std::uint64_t k = 0; k < count; ++k) {
    for (const auto& seg : type.segments()) {
      const auto base = static_cast<std::uint64_t>(
          seg.disp + static_cast<std::int64_t>(k) * type.extent());
      for (std::uint64_t i = 0; i < seg.length; ++i) {
        in_map[base + i] = true;
      }
    }
  }
  for (std::size_t i = 0; i < footprint; ++i) {
    if (in_map[i]) {
      ASSERT_EQ(reconstructed[i], original[i]) << "seed " << seed << " @" << i;
    } else {
      ASSERT_EQ(reconstructed[i], 0xEE) << "seed " << seed << " @" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackRoundTrip,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace parcoll
