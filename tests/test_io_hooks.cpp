// Every I/O entry point runs the burst-buffer and integrity hooks: after a
// collective write, a later independent write (posix, sieve, async) must
// survive the staged data's drain and register its checksums, and a read
// must see the staged bytes. The split-phase collective write registers
// its checksums like write_at_all does.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "bb/options.hpp"
#include "core/parcoll.hpp"
#include "core/split.hpp"
#include "fs/integrity.hpp"
#include "mpiio/async.hpp"
#include "mpiio/file.hpp"
#include "mpiio/independent.hpp"
#include "mpiio/sieve.hpp"
#include "workloads/pattern.hpp"

namespace parcoll {
namespace {

constexpr std::uint64_t kBlock = 4096;
constexpr std::uint64_t kFirstSalt = 101;   // the collective write
constexpr std::uint64_t kSecondSalt = 202;  // the later write

enum class Path { Posix, Sieve, Async };
enum class Layer { BbWatermark, IntegrityDetect };

mpiio::Hints hints_for(Layer layer) {
  mpiio::Hints hints;
  if (layer == Layer::BbWatermark) {
    // The tiny working set never reaches the watermark, so the collective
    // write stays staged until something flushes it.
    hints.bb.enabled = true;
    hints.bb.policy = bb::DrainPolicy::Watermark;
  } else {
    hints.integrity.level = fs::IntegrityLevel::Detect;
  }
  return hints;
}

void write_via(Path path, mpiio::FileHandle& file, std::uint64_t offset,
               const std::byte* data, const dtype::Datatype& memtype) {
  switch (path) {
    case Path::Posix:
      mpiio::posix_write_at(file, offset, data, 1, memtype);
      break;
    case Path::Sieve:
      mpiio::sieve_write_at(file, offset, data, 1, memtype);
      break;
    case Path::Async: {
      mpiio::IoRequest request =
          mpiio::iwrite_at(file, offset, data, 1, memtype);
      mpiio::io_wait(file, request);
      break;
    }
  }
}

void read_via(Path path, mpiio::FileHandle& file, std::uint64_t offset,
              std::byte* data, const dtype::Datatype& memtype) {
  switch (path) {
    case Path::Posix:
      mpiio::posix_read_at(file, offset, data, 1, memtype);
      break;
    case Path::Sieve:
      mpiio::sieve_read_at(file, offset, data, 1, memtype);
      break;
    case Path::Async: {
      mpiio::IoRequest request =
          mpiio::iread_at(file, offset, data, 1, memtype);
      mpiio::io_wait(file, request);
      break;
    }
  }
}

/// What each rank observed; all true on a consistent stack.
struct Outcome {
  bool first_read_fresh = true;   // read after the collective write
  bool second_read_fresh = true;  // read after the later write
  bool closed_cleanly = true;     // close() raised no CollectiveIoError
  bool later_write_landed = true; // the store holds the later bytes
};

/// Collective write, then `later_write` of different bytes over the same
/// 4 KiB per rank, with reads via `path` in between; close, then audit.
template <typename LaterWrite>
Outcome run_after_collective_write(Layer layer, Path read_path,
                                   LaterWrite later_write) {
  mpi::World world(machine::MachineModel::jaguar(4));
  const mpiio::Hints hints = hints_for(layer);
  Outcome outcome;
  world.run([&](mpi::Rank& self) {
    mpiio::FileHandle file(self, self.comm_world(), "hooks.dat", hints);
    const fs::Extent mine{static_cast<std::uint64_t>(self.rank()) * kBlock,
                          kBlock};
    const auto extents = std::span(&mine, 1);
    const dtype::Datatype memtype = dtype::Datatype::bytes(kBlock);
    std::vector<std::byte> first(kBlock), second(kBlock), back(kBlock);
    workloads::fill_stream(first.data(), extents, kFirstSalt);
    workloads::fill_stream(second.data(), extents, kSecondSalt);

    core::write_at_all(file, mine.offset, first.data(), 1, memtype);
    read_via(read_path, file, mine.offset, back.data(), memtype);
    if (!workloads::check_stream(back.data(), extents, kFirstSalt)) {
      outcome.first_read_fresh = false;
    }
    later_write(file, mine.offset, second.data(), memtype);
    read_via(read_path, file, mine.offset, back.data(), memtype);
    if (!workloads::check_stream(back.data(), extents, kSecondSalt)) {
      outcome.second_read_fresh = false;
    }
    try {
      file.close();
    } catch (const fs::CollectiveIoError&) {
      outcome.closed_cleanly = false;
      return;
    }
    auto* store = dynamic_cast<fs::MemoryStore*>(&self.world().fs().store());
    if (store == nullptr ||
        !workloads::verify_store(*store, file.fs_id(), extents, kSecondSalt)) {
      outcome.later_write_landed = false;
    }
  });
  return outcome;
}

void expect_consistent(const Outcome& outcome) {
  EXPECT_TRUE(outcome.first_read_fresh) << "read missed the staged write";
  EXPECT_TRUE(outcome.second_read_fresh) << "read missed the later write";
  EXPECT_TRUE(outcome.closed_cleanly) << "false integrity error at close";
  EXPECT_TRUE(outcome.later_write_landed) << "later write was lost";
}

class IndependentEntryHooks
    : public ::testing::TestWithParam<std::tuple<Path, Layer>> {};

TEST_P(IndependentEntryHooks, LaterWriteWinsAndReadsSeeStagedBytes) {
  const Path path = std::get<0>(GetParam());
  expect_consistent(run_after_collective_write(
      std::get<1>(GetParam()), path,
      [path](mpiio::FileHandle& file, std::uint64_t offset,
             const std::byte* data, const dtype::Datatype& memtype) {
        write_via(path, file, offset, data, memtype);
      }));
}

std::string case_name(
    const ::testing::TestParamInfo<std::tuple<Path, Layer>>& info) {
  static const char* const kPaths[] = {"posix", "sieve", "async"};
  static const char* const kLayers[] = {"bb_watermark", "integrity_detect"};
  return std::string(kPaths[static_cast<int>(std::get<0>(info.param))]) +
         "_" + kLayers[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    AllPaths, IndependentEntryHooks,
    ::testing::Combine(::testing::Values(Path::Posix, Path::Sieve, Path::Async),
                       ::testing::Values(Layer::BbWatermark,
                                         Layer::IntegrityDetect)),
    case_name);

TEST(SplitEntryHooks, SplitWriteRegistersChecksumsUnderDetect) {
  expect_consistent(run_after_collective_write(
      Layer::IntegrityDetect, Path::Posix,
      [](mpiio::FileHandle& file, std::uint64_t offset, const std::byte* data,
         const dtype::Datatype& memtype) {
        core::SplitRequest request =
            core::write_at_all_begin(file, offset, data, 1, memtype);
        core::split_end(file, request);
      }));
}

}  // namespace
}  // namespace parcoll
