// FileHandle: collective open, independent I/O through views, stats, the
// pinned close-time summary text, and the POSIX-style per-extent path.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "fault/fault.hpp"
#include "mpi/collectives.hpp"
#include "mpiio/file.hpp"
#include "mpiio/independent.hpp"
#include "workloads/pattern.hpp"
#include "workloads/tileio.hpp"

namespace parcoll::mpiio {
namespace {

using dtype::Datatype;

TEST(FileHandle, CollectiveOpenSharesOneFile) {
  mpi::World world(machine::MachineModel::jaguar(4));
  std::vector<int> ids(4, -1);
  world.run([&](mpi::Rank& self) {
    FileHandle file(self, self.comm_world(), "shared.dat");
    ids[self.rank()] = file.fs_id();
    file.close();
  });
  EXPECT_EQ(ids[0], ids[1]);
  EXPECT_EQ(ids[0], ids[3]);
}

TEST(FileHandle, HintsControlStriping) {
  mpi::World world(machine::MachineModel::jaguar(2));
  world.run([&](mpi::Rank& self) {
    Hints hints;
    hints.striping_factor = 8;
    hints.striping_unit = 1 << 16;
    FileHandle file(self, self.comm_world(), "striped.dat", hints);
    const auto& meta = self.world().fs().meta(file.fs_id());
    EXPECT_EQ(meta.stripe_count, 8);
    EXPECT_EQ(meta.stripe_size, 1u << 16);
    file.close();
  });
}

TEST(FileHandle, IndependentWriteReadRoundTrip) {
  mpi::World world(machine::MachineModel::jaguar(4));
  bool ok = true;
  world.run([&](mpi::Rank& self) {
    FileHandle file(self, self.comm_world(), "indep.dat");
    const Datatype memtype = Datatype::bytes(1024);
    std::vector<std::byte> data(1024);
    const fs::Extent extent{static_cast<std::uint64_t>(self.rank()) * 1024,
                            1024};
    workloads::fill_stream(data.data(), std::span(&extent, 1), 1);
    file.write_at(extent.offset, data.data(), 1, memtype);
    mpi::barrier(self, self.comm_world());

    std::vector<std::byte> back(1024);
    // Read a neighbour's block to prove the data is shared.
    const fs::Extent other{
        static_cast<std::uint64_t>((self.rank() + 1) % 4) * 1024, 1024};
    file.read_at(other.offset, back.data(), 1, memtype);
    ok = ok && workloads::check_stream(back.data(), std::span(&other, 1), 1);
    file.close();
  });
  EXPECT_TRUE(ok);
}

TEST(FileHandle, ViewedIndependentWriteLandsInStridedPositions) {
  mpi::World world(machine::MachineModel::jaguar(2));
  bool ok = true;
  world.run([&](mpi::Rank& self) {
    FileHandle file(self, self.comm_world(), "viewed.dat");
    // Interleave ranks every 8 bytes: rank r owns bytes [16k + 8r, +8).
    const Datatype ftype = Datatype::resized(
        Datatype::hvector(1, 1, 0, Datatype::bytes(8)), 0, 16);
    file.set_view(static_cast<std::uint64_t>(self.rank()) * 8, 8, ftype);
    std::vector<std::byte> data(32);  // 4 tiles worth
    const auto extents = file.view().map(0, 32);
    workloads::fill_stream(data.data(), extents, 7);
    file.write_at(0, data.data(), 1, Datatype::bytes(32));
    mpi::barrier(self, self.comm_world());
    auto* store = dynamic_cast<fs::MemoryStore*>(&self.world().fs().store());
    ok = ok && store &&
         workloads::verify_store(*store, file.fs_id(), extents, 7);
    file.close();
  });
  EXPECT_TRUE(ok);
}

TEST(FileHandle, StatsAccumulateAcrossRanksAndOps) {
  mpi::World world(machine::MachineModel::jaguar(4));
  FileStats stats;
  world.run([&](mpi::Rank& self) {
    FileHandle file(self, self.comm_world(), "stats.dat");
    std::vector<std::byte> data(256);
    file.write_at(static_cast<std::uint64_t>(self.rank()) * 256, data.data(),
                  1, Datatype::bytes(256));
    file.read_at(0, data.data(), 1, Datatype::bytes(256));
    mpi::barrier(self, self.comm_world());
    if (self.rank() == 0) stats = file.stats();
    file.close();
  });
  EXPECT_EQ(stats.independent_writes, 4u);
  EXPECT_EQ(stats.independent_reads, 4u);
  EXPECT_EQ(stats.bytes_written, 4u * 256u);
  EXPECT_EQ(stats.bytes_read, 4u * 256u);
  EXPECT_GT(stats.time[mpi::TimeCat::IO], 0.0);
}

TEST(FileHandle, SummaryMentionsCategories) {
  FileStats stats;
  stats.bytes_written = 123;
  const std::string summary = stats.summary("x.dat");
  EXPECT_NE(summary.find("sync="), std::string::npos);
  EXPECT_NE(summary.find("written=123"), std::string::npos);
}

// --- close-time summary pins -----------------------------------------------
//
// The close-time summary is the paper's per-file profile report. These pin
// its exact text on four tiny byte-true Tile-IO runs that between them
// print every optional part: the intra:, faults:, bb: and integrity: lines
// and the drain=/dwait=/integrity= time entries.

workloads::RunSpec pinned_spec() {
  workloads::RunSpec spec;
  spec.impl = workloads::Impl::ParColl;
  spec.parcoll_groups = 2;
  spec.min_group_size = 2;
  spec.byte_true = true;
  return spec;
}

std::string pinned_summary(const workloads::RunSpec& spec) {
  workloads::TileIOConfig config;
  config.tiles_x = 4;
  config.tile_w = 8;
  config.tile_h = 4;
  config.elem_size = 8;
  const workloads::RunResult result =
      workloads::run_tileio(config, 8, spec, /*write=*/true);
  EXPECT_TRUE(result.verified);
  return result.stats.summary("tile.out");
}

TEST(FileStatsSummary, PinnedTwoLevelAggregation) {
  workloads::RunSpec spec = pinned_spec();
  spec.intranode = node::IntranodeMode::On;
  EXPECT_EQ(
      pinned_summary(spec),
      "file \"tile.out\" summary:\n"
      "  time:   compute=2.4576e-06s p2p=7.65152e-05s sync=0.00944472s "
      "io=0.0154495s faulted=0s intra=2.49472e-05s (sum over ranks)\n"
      "  data:   written=2048B read=0B\n"
      "  calls:  coll_w=1 coll_r=0 indep_w=0 indep_r=0\n"
      "  cycles: 4 (rmw_reads=0)\n"
      "  parcoll: calls=1 view_switches=0 last_groups=2\n"
      "  intra:  calls=1 bytes=1280B");
}

TEST(FileStatsSummary, PinnedDegradedMode) {
  workloads::RunSpec spec = pinned_spec();
  spec.fault = fault::FaultPlan::parse(
      "seed=5;ost-outage=0:0:0.05;rpc-drop=0.05;timeout=0.005;"
      "backoff=0.001:0.01;max-retries=2");
  EXPECT_EQ(
      pinned_summary(spec),
      "file \"tile.out\" summary:\n"
      "  time:   compute=2.4576e-06s p2p=0.00038479s sync=0.0395098s "
      "io=0.0440115s faulted=0.176s intra=0s (sum over ranks)\n"
      "  data:   written=2048B read=0B\n"
      "  calls:  coll_w=1 coll_r=0 indep_w=0 indep_r=0\n"
      "  cycles: 8 (rmw_reads=0)\n"
      "  parcoll: calls=1 view_switches=0 last_groups=2\n"
      "  faults: retries=16 failovers=8 drops=0 reelections=0 stalls=0");
}

TEST(FileStatsSummary, PinnedBurstBufferWithSpills) {
  workloads::RunSpec spec = pinned_spec();
  spec.bb.enabled = true;
  spec.bb.capacity = 256;  // half the aggregators' writes spill
  spec.bb.policy = bb::DrainPolicy::Watermark;
  EXPECT_EQ(
      pinned_summary(spec),
      "file \"tile.out\" summary:\n"
      "  time:   compute=2.8672e-06s p2p=0.00038479s sync=0.0662246s "
      "io=0.0462289s faulted=0s intra=0s drain=0.015432s dwait=0s "
      "(sum over ranks)\n"
      "  data:   written=2048B read=0B\n"
      "  calls:  coll_w=1 coll_r=0 indep_w=0 indep_r=0\n"
      "  cycles: 8 (rmw_reads=0)\n"
      "  parcoll: calls=1 view_switches=0 last_groups=2\n"
      "  bb:     staged=4 (1024B) drained=1024B spills=4 (1024B) "
      "conflict_flushes=0 drain_retries=0 drain_failovers=0");
}

TEST(FileStatsSummary, PinnedIntegrityRepair) {
  workloads::RunSpec spec = pinned_spec();
  spec.integrity.level = fs::IntegrityLevel::Repair;
  spec.integrity.block = 64;
  spec.fault = fault::FaultPlan::parse("seed=29;rpc-corrupt=0.2");
  EXPECT_EQ(
      pinned_summary(spec),
      "file \"tile.out\" summary:\n"
      "  time:   compute=2.4576e-06s p2p=0.00038479s sync=0.505948s "
      "io=0.0317445s faulted=0.25s intra=0s integrity=4.76837e-07s "
      "(sum over ranks)\n"
      "  data:   written=2048B read=0B\n"
      "  calls:  coll_w=1 coll_r=0 indep_w=0 indep_r=0\n"
      "  cycles: 8 (rmw_reads=0)\n"
      "  parcoll: calls=1 view_switches=0 last_groups=2\n"
      "  faults: retries=4 failovers=0 drops=0 reelections=0 stalls=0\n"
      "  integrity: blocks=32 (2048B) detected=4 repaired=3 "
      "scrub_repairs=0 errors=0");
}

TEST(FileHandle, DoubleCloseThrows) {
  mpi::World world(machine::MachineModel::jaguar(1));
  world.run([&](mpi::Rank& self) {
    FileHandle file(self, self.comm_world(), "close.dat");
    file.close();
    EXPECT_THROW(file.close(), std::logic_error);
  });
}

TEST(PosixIndependent, PerExtentWritesAreSlowerButCorrect) {
  // Same gappy write via batched and POSIX-style paths: identical bytes,
  // but the POSIX path takes longer (no pipelining across extents).
  const auto run = [](bool posix) {
    mpi::World world(machine::MachineModel::jaguar(1));
    double elapsed = 0;
    bool ok = false;
    world.run([&](mpi::Rank& self) {
      FileHandle file(self, self.comm_world(), "posix.dat");
      const Datatype ftype = Datatype::resized(Datatype::bytes(64), 0, 4096);
      file.set_view(0, 64, ftype);
      std::vector<std::byte> data(64 * 32);
      const auto extents = file.view().map(0, data.size());
      workloads::fill_stream(data.data(), extents, 3);
      const double t0 = self.now();
      if (posix) {
        posix_write_at(file, 0, data.data(), 1, Datatype::bytes(data.size()));
      } else {
        file.write_at(0, data.data(), 1, Datatype::bytes(data.size()));
      }
      elapsed = self.now() - t0;
      auto* store =
          dynamic_cast<fs::MemoryStore*>(&self.world().fs().store());
      ok = store && workloads::verify_store(*store, file.fs_id(), extents, 3);
      file.close();
    });
    EXPECT_TRUE(ok);
    return elapsed;
  };
  const double batched = run(false);
  const double posix = run(true);
  EXPECT_GT(posix, batched);
}

TEST(Hints, StringInterfaceRoundTrips) {
  Hints hints;
  hints.set("cb_buffer_size", "1048576");
  hints.set("cb_nodes", "16");
  hints.set("cb_node_list", "1,3,5");
  hints.set("parcoll_num_groups", "64");
  hints.set("parcoll_min_group_size", "4");
  hints.set("parcoll_view_switch", "false");
  EXPECT_EQ(hints.cb_buffer_size, 1048576u);
  EXPECT_EQ(hints.get("cb_nodes"), "16");
  EXPECT_EQ(hints.cb_node_list, (std::vector<int>{1, 3, 5}));
  EXPECT_EQ(hints.get("cb_node_list"), "1,3,5");
  EXPECT_EQ(hints.parcoll_num_groups, 64);
  EXPECT_FALSE(hints.parcoll_view_switch);
  EXPECT_THROW(hints.set("no_such_hint", "1"), std::invalid_argument);
  EXPECT_THROW(hints.get("no_such_hint"), std::invalid_argument);
  // A rejected set leaves the hint at its last accepted value.
  const std::pair<const char*, const char*> rejected[] = {
      {"cb_buffer_size", "0"},    {"parcoll_min_group_size", "0"},
      {"bb_capacity", "0"},       {"bb_hi_watermark", "1.5"},
      {"bb_lo_watermark", "-0.1"}, {"integrity_block", "0"},
      {"bb_deadline", "-0.5"}};
  for (const auto& [key, bad] : rejected) {
    const std::string before = hints.get(key);
    EXPECT_THROW(hints.set(key, bad), std::invalid_argument) << key;
    EXPECT_EQ(hints.get(key), before) << key << " kept " << bad;
  }
}

}  // namespace
}  // namespace parcoll::mpiio
