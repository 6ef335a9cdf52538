// Every I/O entry point runs the burst-buffer and integrity hooks: after a
// collective write, a later independent write (posix, sieve, async) must
// survive the staged data's drain and register its checksums, and a read
// must see the staged bytes. The split-phase collective write registers
// its checksums like write_at_all does. Every entry-point family's clock,
// file bytes and close-time summary are pinned, every entry point checks
// the handle's access mode, and every collective open has its own state.
#include <gtest/gtest.h>

#include <cstdio>
#include <span>
#include <stdexcept>
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
#include "workloads/tileio.hpp"

namespace parcoll {
namespace {

constexpr std::uint64_t kBlock = 4096;
constexpr std::uint64_t kFirstSalt = 101;   // the collective write
constexpr std::uint64_t kSecondSalt = 202;  // the later write

/// The entry-point families. The hooks tests run the first three (the
/// independent paths that bypass the staging store); the clock pins run
/// all of them.
enum class Path {
  Posix, Sieve, Async, Batched, Ext2ph, ParColl, Split, CbDisable, TwoLevel,
  SoleLeader
};
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

/// One call through `path`'s entry point at `offset` (ParColl, CbDisable,
/// TwoLevel and SoleLeader differ from Ext2ph only in their hints and
/// machine).
void transfer(Path path, mpiio::FileHandle& file, bool write,
              std::uint64_t offset, std::byte* data,
              const dtype::Datatype& memtype) {
  switch (path) {
    case Path::Posix:
      write ? mpiio::posix_write_at(file, offset, data, 1, memtype)
            : mpiio::posix_read_at(file, offset, data, 1, memtype);
      break;
    case Path::Sieve:
      write ? mpiio::sieve_write_at(file, offset, data, 1, memtype)
            : mpiio::sieve_read_at(file, offset, data, 1, memtype);
      break;
    case Path::Async: {
      mpiio::IoRequest request =
          write ? mpiio::iwrite_at(file, offset, data, 1, memtype)
                : mpiio::iread_at(file, offset, data, 1, memtype);
      mpiio::io_wait(file, request);
      break;
    }
    case Path::Batched:
      write ? file.write_at(offset, data, 1, memtype)
            : file.read_at(offset, data, 1, memtype);
      break;
    case Path::Ext2ph:
    case Path::ParColl:
    case Path::CbDisable:
    case Path::TwoLevel:
    case Path::SoleLeader:
      write ? core::write_at_all(file, offset, data, 1, memtype)
            : core::read_at_all(file, offset, data, 1, memtype);
      break;
    case Path::Split: {
      core::SplitRequest request =
          write ? core::write_at_all_begin(file, offset, data, 1, memtype)
                : core::read_at_all_begin(file, offset, data, 1, memtype);
      core::split_end(file, request);
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
    transfer(read_path, file, /*write=*/false, mine.offset, back.data(),
             memtype);
    if (!workloads::check_stream(back.data(), extents, kFirstSalt)) {
      outcome.first_read_fresh = false;
    }
    later_write(file, mine.offset, second.data(), memtype);
    transfer(read_path, file, /*write=*/false, mine.offset, back.data(),
             memtype);
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
      [path](mpiio::FileHandle& file, std::uint64_t offset, std::byte* data,
             const dtype::Datatype& memtype) {
        transfer(path, file, /*write=*/true, offset, data, memtype);
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
      [](mpiio::FileHandle& file, std::uint64_t offset, std::byte* data,
         const dtype::Datatype& memtype) {
        core::SplitRequest request =
            core::write_at_all_begin(file, offset, data, 1, memtype);
        core::split_end(file, request);
      }));
}

// --- clock pins, one per entry-point family ---------------------------------
//
// Each family writes, then reads back, a 16-rank byte-true Tile-IO-style
// subarray view with the bb watermark drain and integrity detect on. The
// view is non-contiguous, so the POSIX (one call per extent) and sieve
// (window read-modify-write) services differ from the batched one. A pin
// moves if any step that advances the clock is reordered: pack, checksum
// charge, flush wait or unpack. TwoLevel and SoleLeader pin the two-level
// stage in both directions: ext2ph over the node leaders of 8 two-core
// nodes, and the sole-leader branch of one 16-core node.

struct FamilyRun {
  double elapsed = 0;
  std::uint64_t digest = 0;
  std::string summary;
  bool read_back = true;  // every rank read back what it wrote
};

FamilyRun run_family(Path family) {
  constexpr int kRanks = 16;
  constexpr std::uint64_t kSalt = 0x90D;
  workloads::TileIOConfig tile;
  tile.tiles_x = 4;
  tile.tile_w = 32;
  tile.tile_h = 16;
  tile.elem_size = 8;
  mpiio::Hints hints;
  hints.bb.enabled = true;
  hints.bb.policy = bb::DrainPolicy::Watermark;
  hints.integrity.level = fs::IntegrityLevel::Detect;
  if (family == Path::ParColl) {
    hints.parcoll_num_groups = 2;
    hints.parcoll_min_group_size = 2;
  }
  if (family == Path::CbDisable) {
    hints.cb_write_enabled = false;
    hints.cb_read_enabled = false;
  }
  if (family == Path::TwoLevel || family == Path::SoleLeader) {
    hints.cb_intranode = node::IntranodeMode::On;
  }
  // Two cores per node, except SoleLeader's one 16-core node, where the
  // leader communicator has a single member.
  const int cores_per_node = family == Path::SoleLeader ? kRanks : 2;
  mpi::World world(machine::MachineModel::jaguar(
      kRanks, machine::Mapping::Block, cores_per_node));
  FamilyRun run;
  world.run([&](mpi::Rank& self) {
    mpiio::FileHandle file(self, self.comm_world(), "golden.dat", hints);
    file.set_view(0, tile.elem_size, tile.filetype(self.rank(), kRanks));
    const dtype::Datatype memtype = dtype::Datatype::bytes(tile.rank_bytes());
    const auto extents = file.view().map(0, tile.rank_bytes());
    std::vector<std::byte> out(tile.rank_bytes()), back(tile.rank_bytes());
    workloads::fill_stream(out.data(), extents, kSalt);
    transfer(family, file, /*write=*/true, 0, out.data(), memtype);
    transfer(family, file, /*write=*/false, 0, back.data(), memtype);
    if (!workloads::check_stream(back.data(), extents, kSalt)) {
      run.read_back = false;
    }
    file.close();
    if (self.rank() == 0) {
      run.summary = file.stats().summary(file.name());
    }
  });
  run.elapsed = world.elapsed();
  run.digest = world.fs().store().content_digest();
  return run;
}

void expect_pinned(Path family, double elapsed, std::uint64_t digest,
                   const std::string& summary) {
  const FamilyRun run = run_family(family);
  EXPECT_TRUE(run.read_back);
  EXPECT_EQ(run.elapsed, elapsed);
  EXPECT_EQ(run.digest, digest);
  EXPECT_EQ(run.summary, summary);
  if (run.elapsed != elapsed || run.digest != digest ||
      run.summary != summary) {
    char clock[64];
    std::snprintf(clock, sizeof(clock), "%.17g", run.elapsed);
    ADD_FAILURE() << "measured: " << clock << ", " << run.digest << "ull\n"
                  << run.summary;
  }
}

TEST(EntryPointClock, Batched) {
  expect_pinned(
      Path::Batched, 0.051995809262278855, 10474153472279117010ull,
      "file \"golden.dat\" summary:\n"
      "  time:   compute=5.24288e-05s p2p=0s sync=0s io=0.68517s "
      "faulted=0s intra=0s integrity=3.05176e-05s (sum over ranks)\n"
      "  data:   written=65536B read=65536B\n"
      "  calls:  coll_w=0 coll_r=0 indep_w=16 indep_r=16\n"
      "  cycles: 0 (rmw_reads=0)\n"
      "  parcoll: calls=0 view_switches=0 last_groups=0\n"
      "  integrity: blocks=256 (65536B) detected=0 repaired=0 "
      "scrub_repairs=0 errors=0");
}

TEST(EntryPointClock, Posix) {
  expect_pinned(
      Path::Posix, 0.55330773165528491, 10474153472279117010ull,
      "file \"golden.dat\" summary:\n"
      "  time:   compute=5.24288e-05s p2p=0s sync=0s io=8.787s "
      "faulted=0s intra=0s integrity=3.05176e-05s (sum over ranks)\n"
      "  data:   written=65536B read=65536B\n"
      "  calls:  coll_w=0 coll_r=0 indep_w=16 indep_r=16\n"
      "  cycles: 0 (rmw_reads=0)\n"
      "  parcoll: calls=0 view_switches=0 last_groups=0\n"
      "  integrity: blocks=256 (65536B) detected=0 repaired=0 "
      "scrub_repairs=0 errors=0");
}

TEST(EntryPointClock, Sieve) {
  expect_pinned(
      Path::Sieve, 0.065938032628035936, 10474153472279117010ull,
      "file \"golden.dat\" summary:\n"
      "  time:   compute=0.000104858s p2p=0s sync=0s io=0.301173s "
      "faulted=0s intra=0s integrity=3.05176e-05s (sum over ranks)\n"
      "  data:   written=65536B read=65536B\n"
      "  calls:  coll_w=0 coll_r=0 indep_w=16 indep_r=16\n"
      "  cycles: 0 (rmw_reads=0)\n"
      "  parcoll: calls=0 view_switches=0 last_groups=0\n"
      "  integrity: blocks=256 (65536B) detected=0 repaired=0 "
      "scrub_repairs=0 errors=0");
}

TEST(EntryPointClock, Async) {
  expect_pinned(
      Path::Async, 0.051995809262278855, 10474153472279117010ull,
      "file \"golden.dat\" summary:\n"
      "  time:   compute=0s p2p=0s sync=0s io=0.68517s faulted=0s "
      "intra=0s (sum over ranks)\n"
      "  data:   written=65536B read=65536B\n"
      "  calls:  coll_w=0 coll_r=0 indep_w=16 indep_r=16\n"
      "  cycles: 0 (rmw_reads=0)\n"
      "  parcoll: calls=0 view_switches=0 last_groups=0\n"
      "  integrity: blocks=256 (65536B) detected=0 repaired=0 "
      "scrub_repairs=0 errors=0");
}

TEST(EntryPointClock, CollectiveExt2ph) {
  expect_pinned(
      Path::Ext2ph, 0.0430147447134386, 10474153472279117010ull,
      "file \"golden.dat\" summary:\n"
      "  time:   compute=0.000183501s p2p=0.0930623s sync=0.141796s "
      "io=0.131753s faulted=0s intra=0s drain=0.151235s dwait=0.309966s "
      "integrity=4.57764e-05s (sum over ranks)\n"
      "  data:   written=65536B read=65536B\n"
      "  calls:  coll_w=1 coll_r=1 indep_w=0 indep_r=0\n"
      "  cycles: 32 (rmw_reads=0)\n"
      "  parcoll: calls=0 view_switches=0 last_groups=1\n"
      "  bb:     staged=16 (65536B) drained=65536B spills=0 (0B) "
      "conflict_flushes=0 drain_retries=0 drain_failovers=0\n"
      "  integrity: blocks=256 (65536B) detected=0 repaired=0 "
      "scrub_repairs=0 errors=0");
}

TEST(EntryPointClock, CollectiveParColl) {
  expect_pinned(
      Path::ParColl, 0.039598314372455527, 10474153472279117010ull,
      "file \"golden.dat\" summary:\n"
      "  time:   compute=0.000183501s p2p=0.0477189s sync=0.0586147s "
      "io=0.1454s faulted=0s intra=0s drain=0.151235s dwait=0.309966s "
      "integrity=4.57764e-05s (sum over ranks)\n"
      "  data:   written=65536B read=65536B\n"
      "  calls:  coll_w=1 coll_r=1 indep_w=0 indep_r=0\n"
      "  cycles: 32 (rmw_reads=0)\n"
      "  parcoll: calls=2 view_switches=0 last_groups=2\n"
      "  bb:     staged=16 (65536B) drained=65536B spills=0 (0B) "
      "conflict_flushes=0 drain_retries=0 drain_failovers=0\n"
      "  integrity: blocks=256 (65536B) detected=0 repaired=0 "
      "scrub_repairs=0 errors=0");
}

TEST(EntryPointClock, SplitPhase) {
  expect_pinned(
      Path::Split, 0.042975018046771937, 10474153472279117010ull,
      "file \"golden.dat\" summary:\n"
      "  time:   compute=0.000131072s p2p=0.0930623s sync=0.0719222s "
      "io=0.131753s faulted=0s intra=0s drain=0.151235s dwait=0s "
      "integrity=1.52588e-05s (sum over ranks)\n"
      "  data:   written=65536B read=65536B\n"
      "  calls:  coll_w=1 coll_r=1 indep_w=0 indep_r=0\n"
      "  cycles: 32 (rmw_reads=0)\n"
      "  parcoll: calls=0 view_switches=0 last_groups=1\n"
      "  bb:     staged=16 (65536B) drained=65536B spills=0 (0B) "
      "conflict_flushes=0 drain_retries=0 drain_failovers=0\n"
      "  integrity: blocks=256 (65536B) detected=0 repaired=0 "
      "scrub_repairs=0 errors=0");
}

TEST(EntryPointClock, CollectiveBufferingDisabled) {
  expect_pinned(
      Path::CbDisable, 0.066931012969019002, 10474153472279117010ull,
      "file \"golden.dat\" summary:\n"
      "  time:   compute=0.000104858s p2p=0s sync=0.471648s io=0.289187s "
      "faulted=0s intra=0s integrity=3.05176e-05s (sum over ranks)\n"
      "  data:   written=65536B read=65536B\n"
      "  calls:  coll_w=1 coll_r=1 indep_w=0 indep_r=0\n"
      "  cycles: 0 (rmw_reads=0)\n"
      "  parcoll: calls=0 view_switches=0 last_groups=1\n"
      "  integrity: blocks=256 (65536B) detected=0 repaired=0 "
      "scrub_repairs=0 errors=0");
}

TEST(EntryPointClock, CollectiveTwoLevel) {
  expect_pinned(
      Path::TwoLevel, 0.02566680012932962, 10474153472279117010ull,
      "file \"golden.dat\" summary:\n"
      "  time:   compute=0.000183501s p2p=0.0162392s sync=0.0975018s "
      "io=0.0349543s faulted=0s intra=0.10702s drain=0.0637133s "
      "dwait=0.143295s integrity=4.57764e-05s (sum over ranks)\n"
      "  data:   written=65536B read=65536B\n"
      "  calls:  coll_w=1 coll_r=1 indep_w=0 indep_r=0\n"
      "  cycles: 16 (rmw_reads=0)\n"
      "  parcoll: calls=0 view_switches=0 last_groups=1\n"
      "  intra:  calls=2 bytes=69632B\n"
      "  bb:     staged=8 (65536B) drained=65536B spills=0 (0B) "
      "conflict_flushes=0 drain_retries=0 drain_failovers=0\n"
      "  integrity: blocks=256 (65536B) detected=0 repaired=0 "
      "scrub_repairs=0 errors=0");
}

TEST(EntryPointClock, CollectiveSoleLeader) {
  expect_pinned(
      Path::SoleLeader, 0.0034885816121493539, 10474153472279117010ull,
      "file \"golden.dat\" summary:\n"
      "  time:   compute=0.000131072s p2p=0s sync=0.00287549s "
      "io=0.00135281s faulted=0s intra=0.0214476s drain=0.00115846s "
      "dwait=0.0185354s integrity=4.57764e-05s (sum over ranks)\n"
      "  data:   written=65536B read=65536B\n"
      "  calls:  coll_w=1 coll_r=1 indep_w=0 indep_r=0\n"
      "  cycles: 2 (rmw_reads=0)\n"
      "  parcoll: calls=0 view_switches=0 last_groups=1\n"
      "  intra:  calls=2 bytes=130560B\n"
      "  bb:     staged=1 (65536B) drained=65536B spills=0 (0B) "
      "conflict_flushes=0 drain_retries=0 drain_failovers=0\n"
      "  integrity: blocks=256 (65536B) detected=0 repaired=0 "
      "scrub_repairs=0 errors=0");
}

// --- access modes ---------------------------------------------------------

/// Every entry point checks the handle's access mode before it touches the
/// file: writes on a read-only handle and reads on a write-only handle
/// throw std::logic_error on every rank, the file does not grow, and
/// neither file pointer moves.
TEST(IoLifecycle, EveryEntryPointRejectsTheWrongAccessMode) {
  constexpr std::uint64_t kBytes = 4096;
  mpi::World world(machine::MachineModel::jaguar(2));
  std::vector<std::string> missed;
  std::uint64_t size_after = 0;
  std::vector<std::uint64_t> pointers;  // shared, then individual, per handle
  world.run([&](mpi::Rank& self) {
    const dtype::Datatype memtype = dtype::Datatype::bytes(kBytes);
    std::vector<std::byte> data(kBytes);
    std::byte* buf = data.data();
    const std::uint64_t at = static_cast<std::uint64_t>(self.rank()) * kBytes;
    const auto expect_rejected = [&](const char* name, auto&& call) {
      try {
        call();
        missed.push_back(name);
      } catch (const std::logic_error&) {
      }
    };
    {
      mpiio::FileHandle f(self, self.comm_world(), "modes2.dat", {},
                          mpiio::kModeRdonly | mpiio::kModeCreate);
      expect_rejected("write_at", [&] { f.write_at(at, buf, 1, memtype); });
      expect_rejected("write", [&] { f.write(buf, 1, memtype); });
      expect_rejected("write_shared",
                      [&] { f.write_shared(buf, 1, memtype); });
      expect_rejected("posix_write_at", [&] {
        mpiio::posix_write_at(f, at, buf, 1, memtype);
      });
      expect_rejected("sieve_write_at", [&] {
        mpiio::sieve_write_at(f, at, buf, 1, memtype);
      });
      expect_rejected("iwrite_at",
                      [&] { mpiio::iwrite_at(f, at, buf, 1, memtype); });
      expect_rejected("write_at_all",
                      [&] { core::write_at_all(f, at, buf, 1, memtype); });
      expect_rejected("write_all",
                      [&] { core::write_all(f, buf, 1, memtype); });
      expect_rejected("write_at_all_begin", [&] {
        core::write_at_all_begin(f, at, buf, 1, memtype);
      });
      size_after = f.size();
      pointers.push_back(f.shared_position());
      pointers.push_back(f.position());
      f.close();
    }
    {
      mpiio::FileHandle f(self, self.comm_world(), "modes2.dat", {},
                          mpiio::kModeWronly);
      expect_rejected("read_at", [&] { f.read_at(at, buf, 1, memtype); });
      expect_rejected("read", [&] { f.read(buf, 1, memtype); });
      expect_rejected("read_shared", [&] { f.read_shared(buf, 1, memtype); });
      expect_rejected("posix_read_at", [&] {
        mpiio::posix_read_at(f, at, buf, 1, memtype);
      });
      expect_rejected("sieve_read_at", [&] {
        mpiio::sieve_read_at(f, at, buf, 1, memtype);
      });
      expect_rejected("iread_at",
                      [&] { mpiio::iread_at(f, at, buf, 1, memtype); });
      expect_rejected("read_at_all",
                      [&] { core::read_at_all(f, at, buf, 1, memtype); });
      expect_rejected("read_all", [&] { core::read_all(f, buf, 1, memtype); });
      expect_rejected("read_at_all_begin", [&] {
        core::read_at_all_begin(f, at, buf, 1, memtype);
      });
      pointers.push_back(f.shared_position());
      pointers.push_back(f.position());
      f.close();
    }
  });
  std::string names;
  for (const std::string& name : missed) names += " " + name;
  EXPECT_TRUE(missed.empty()) << "no logic_error from:" << names;
  EXPECT_EQ(size_after, 0u);
  EXPECT_EQ(pointers, std::vector<std::uint64_t>(8, 0));
}

/// Every collective open is its own file handle: reopening a closed file
/// on the same communicator starts from fresh statistics, the reopen's own
/// hints, a shared file pointer at 0 and integrity counts of this open only.
TEST(IoLifecycle, ReopenStartsFreshSharedState) {
  constexpr int kRanks = 4;
  constexpr std::uint64_t kBytes = 4096;
  mpi::World world(machine::MachineModel::jaguar(kRanks));
  mpiio::Hints first;
  first.integrity.level = fs::IntegrityLevel::Detect;
  mpiio::Hints second = first;
  second.parcoll_num_groups = 2;
  second.parcoll_min_group_size = 2;
  std::uint64_t shared_at_reopen = 1;
  int groups_at_reopen = 0;
  mpiio::FileStats first_stats;
  mpiio::FileStats second_stats;
  world.run([&](mpi::Rank& self) {
    const dtype::Datatype memtype = dtype::Datatype::bytes(kBytes);
    std::vector<std::byte> data(kBytes, std::byte{7});
    const std::uint64_t at = static_cast<std::uint64_t>(self.rank()) * kBytes;
    {
      mpiio::FileHandle f(self, self.comm_world(), "re.dat", first);
      core::write_at_all(f, at, data.data(), 1, memtype);
      f.write_shared(data.data(), 1, memtype);
      f.close();
      if (self.rank() == 0) first_stats = f.stats();
    }
    mpiio::FileHandle f(self, self.comm_world(), "re.dat", second,
                        mpiio::kModeRdonly);
    if (self.rank() == 0) {
      shared_at_reopen = f.shared_position();
      groups_at_reopen = f.hints().parcoll_num_groups;
    }
    core::read_at_all(f, at, data.data(), 1, memtype);
    f.close();
    if (self.rank() == 0) second_stats = f.stats();
  });
  EXPECT_EQ(first_stats.bytes_written, 2 * kRanks * kBytes);
  EXPECT_EQ(first_stats.integrity_blocks, 2u * kRanks);
  EXPECT_EQ(shared_at_reopen, 0u);
  EXPECT_EQ(groups_at_reopen, 2);
  EXPECT_EQ(second_stats.bytes_written, 0u);
  EXPECT_EQ(second_stats.bytes_read, kRanks * kBytes);
  EXPECT_EQ(second_stats.collective_writes, 0u);
  EXPECT_EQ(second_stats.collective_reads, 1u);
  EXPECT_EQ(second_stats.independent_writes, 0u);
  EXPECT_EQ(second_stats.parcoll_calls, 1u);
  EXPECT_EQ(second_stats.last_num_groups, 2);
  EXPECT_EQ(second_stats.integrity_blocks, 0u);
  EXPECT_EQ(second_stats.integrity_bytes, 0u);
}

}  // namespace
}  // namespace parcoll
