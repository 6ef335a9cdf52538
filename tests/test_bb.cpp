// Burst-buffer staging tier: bb-off inertness, content equivalence of
// write-behind against the synchronous path across workloads and drain
// policies, capacity-pressure spill accounting, drain-failure replay
// (staged data survives OST outages with no loss and no double-write),
// split-phase writes staging into the file's own store, and the wall
// report's hidden/exposed drain attribution.
#include <gtest/gtest.h>

#include <string>

#include "bb/options.hpp"
#include "core/file_area.hpp"
#include "core/split.hpp"
#include "fault/fault.hpp"
#include "mpiio/file.hpp"
#include "mpiio/hints.hpp"
#include "obs/wall_report.hpp"
#include "workloads/btio.hpp"
#include "workloads/flashio.hpp"
#include "workloads/ior.hpp"
#include "workloads/pattern.hpp"
#include "workloads/tileio.hpp"

namespace parcoll::workloads {
namespace {

RunSpec tiny_spec() {
  RunSpec spec;
  spec.impl = Impl::ParColl;
  spec.parcoll_groups = 2;
  spec.min_group_size = 2;
  spec.byte_true = true;
  return spec;
}

TileIOConfig tiny_tileio() {
  TileIOConfig config;
  config.tiles_x = 4;
  config.tile_w = 8;
  config.tile_h = 4;
  config.elem_size = 8;
  return config;
}

// --- hints plumbing --------------------------------------------------------

TEST(BbHints, ParseRoundTripAndValidation) {
  mpiio::Hints hints;
  hints.set("bb", "enable");
  hints.set("bb_capacity", "1048576");
  hints.set("bb_drain", "watermark");
  hints.set("bb_hi_watermark", "0.75");
  hints.set("bb_lo_watermark", "0.25");
  hints.set("bb_deadline", "0.01");
  EXPECT_TRUE(hints.bb.enabled);
  EXPECT_EQ(hints.bb.capacity, 1048576u);
  EXPECT_EQ(hints.bb.policy, bb::DrainPolicy::Watermark);
  EXPECT_EQ(hints.get("bb"), "enable");
  EXPECT_EQ(hints.get("bb_drain"), "watermark");
  hints.validate(8);

  hints.set("bb", "disable");
  EXPECT_FALSE(hints.bb.enabled);

  EXPECT_THROW(hints.set("bb", "maybe"), std::invalid_argument);
  EXPECT_THROW(hints.set("bb_drain", "psychic"), std::invalid_argument);
  EXPECT_THROW(hints.set("bb_capacity", "0"), std::invalid_argument);
  EXPECT_THROW(hints.set("bb_deadline", "0"), std::invalid_argument);

  // Inverted watermarks only surface at validate time (set order free).
  mpiio::Hints inverted;
  inverted.set("bb", "enable");
  inverted.set("bb_hi_watermark", "0.2");
  inverted.set("bb_lo_watermark", "0.8");
  EXPECT_THROW(inverted.validate(8), std::invalid_argument);
}

TEST(BbHints, RejectsImpossibleValuesWithClearMessages) {
  mpiio::Hints hints;
  // Negative and zero capacities are rejected at set time — stoull would
  // silently wrap a negative string to a huge arena, so the sign is
  // checked before parsing.
  for (const char* bad : {"0", "-1", "-1048576"}) {
    try {
      hints.set("bb_capacity", bad);
      FAIL() << "bb_capacity accepted " << bad;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("bb_capacity"),
                std::string::npos)
          << error.what();
      EXPECT_NE(std::string(error.what()).find("positive"), std::string::npos)
          << error.what();
    }
  }
  // Deadlines must be strictly positive.
  for (const char* bad : {"0", "-0.5"}) {
    EXPECT_THROW(hints.set("bb_deadline", bad), std::invalid_argument)
        << "bb_deadline accepted " << bad;
  }
  // Watermarks are fractions of the arena: [0, 1] at set time.
  for (const char* bad : {"-0.1", "1.5"}) {
    EXPECT_THROW(hints.set("bb_hi_watermark", bad), std::invalid_argument);
    EXPECT_THROW(hints.set("bb_lo_watermark", bad), std::invalid_argument);
  }
  // Equal watermarks leave no hysteresis band: rejected like inversion.
  mpiio::Hints equal;
  equal.set("bb", "enable");
  equal.set("bb_hi_watermark", "0.5");
  equal.set("bb_lo_watermark", "0.5");
  try {
    equal.validate(8);
    FAIL() << "equal watermarks validated";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("watermark"), std::string::npos)
        << error.what();
  }
  // The boundary values themselves are fine.
  mpiio::Hints ok;
  ok.set("bb", "enable");
  ok.set("bb_lo_watermark", "0.0");
  ok.set("bb_hi_watermark", "1.0");
  EXPECT_NO_THROW(ok.validate(8));
}

// --- bb off: bit-identity --------------------------------------------------

TEST(BurstBuffer, DisabledIsBitIdenticalAndInert) {
  const auto config = tiny_tileio();
  const auto base = run_tileio(config, 8, tiny_spec(), true);

  // Disabled bb with wild knob values must not perturb the run at all:
  // same bytes, same digest, same simulated clock.
  RunSpec knobs = tiny_spec();
  knobs.bb.enabled = false;
  knobs.bb.capacity = 1;  // would spill everything if it were live
  knobs.bb.policy = bb::DrainPolicy::Deadline;
  const auto off = run_tileio(config, 8, knobs, true);
  EXPECT_EQ(off.file_digest, base.file_digest);
  EXPECT_DOUBLE_EQ(off.elapsed, base.elapsed);
  EXPECT_DOUBLE_EQ(off.total_elapsed, base.total_elapsed);

  // No staging artifacts anywhere in the off run.
  EXPECT_EQ(base.stats.bb_staged_segments, 0u);
  EXPECT_EQ(base.stats.bb_spills, 0u);
  EXPECT_DOUBLE_EQ(base.stats.time[mpi::TimeCat::Drain], 0.0);
  EXPECT_DOUBLE_EQ(base.sum[mpi::TimeCat::DrainWait], 0.0);
  const std::string summary = base.stats.summary("tile.out");
  EXPECT_EQ(summary.find("bb:"), std::string::npos);
  EXPECT_EQ(summary.find("drain="), std::string::npos);
}

// --- content equivalence ---------------------------------------------------

TEST(BurstBuffer, DigestEqualAcrossWorkloads) {
  const auto with_bb = [](RunSpec spec) {
    spec.bb.enabled = true;
    return spec;
  };
  {
    const auto config = tiny_tileio();
    const auto off = run_tileio(config, 8, tiny_spec(), true);
    const auto on = run_tileio(config, 8, with_bb(tiny_spec()), true);
    EXPECT_TRUE(on.verified);
    EXPECT_EQ(on.file_digest, off.file_digest) << "tileio";
    EXPECT_GT(on.stats.bb_staged_segments, 0u);
  }
  {
    IorConfig config;
    config.block_size = 16 << 10;
    config.xfer_size = 4 << 10;
    const auto off = run_ior(config, 8, tiny_spec(), true);
    const auto on = run_ior(config, 8, with_bb(tiny_spec()), true);
    EXPECT_TRUE(on.verified);
    EXPECT_EQ(on.file_digest, off.file_digest) << "ior";
  }
  {
    BtIOConfig config;
    config.grid = 12;
    config.nsteps = 2;
    const auto off = run_btio(config, 9, tiny_spec(), true);
    const auto on = run_btio(config, 9, with_bb(tiny_spec()), true);
    EXPECT_TRUE(on.verified);
    EXPECT_EQ(on.file_digest, off.file_digest) << "btio";
  }
  {
    FlashConfig config;
    config.nxb = 4;
    config.nguard = 1;
    config.nblocks = 2;
    config.nvars = 2;
    const auto off = run_flashio(config, 8, tiny_spec(), true);
    const auto on = run_flashio(config, 8, with_bb(tiny_spec()), true);
    EXPECT_TRUE(on.verified);
    EXPECT_EQ(on.file_digest, off.file_digest) << "flashio";
  }
}

TEST(BurstBuffer, EveryDrainPolicyLandsTheSameBytes) {
  const auto config = tiny_tileio();
  const auto off = run_tileio(config, 8, tiny_spec(), true);
  for (const bb::DrainPolicy policy :
       {bb::DrainPolicy::Immediate, bb::DrainPolicy::Watermark,
        bb::DrainPolicy::Deadline, bb::DrainPolicy::Arbitrate}) {
    RunSpec spec = tiny_spec();
    spec.bb.enabled = true;
    spec.bb.policy = policy;
    const auto on = run_tileio(config, 8, spec, true);
    EXPECT_TRUE(on.verified) << bb::to_string(policy);
    EXPECT_EQ(on.file_digest, off.file_digest) << bb::to_string(policy);
  }
}

// --- capacity pressure -----------------------------------------------------

TEST(BurstBuffer, CapacityPressureSpillsAndStaysCorrect) {
  const auto config = tiny_tileio();
  const auto off = run_tileio(config, 8, tiny_spec(), true);

  RunSpec spec = tiny_spec();
  spec.bb.enabled = true;
  spec.bb.capacity = 64;  // below a single aggregator's file-domain write
  const auto on = run_tileio(config, 8, spec, true);
  EXPECT_TRUE(on.verified);
  EXPECT_EQ(on.file_digest, off.file_digest);
  EXPECT_GT(on.stats.bb_spills, 0u);
  // Conservation: every byte the collective path produced either staged
  // (and later drained) or spilled straight to the synchronous path.
  EXPECT_EQ(on.stats.bb_drained_bytes, on.stats.bb_staged_bytes);
}

// --- drain failure replay --------------------------------------------------

TEST(BurstBuffer, DrainFailureReplaysWithoutLoss) {
  const auto config = tiny_tileio();
  const auto clean = run_tileio(config, 8, tiny_spec(), true);

  RunSpec spec = tiny_spec();
  spec.bb.enabled = true;
  spec.fault = fault::FaultPlan::parse(
      "seed=5;ost-outage=0:0:0.05;rpc-drop=0.05;timeout=0.005;"
      "backoff=0.001:0.01;max-retries=2");
  const auto faulted = run_tileio(config, 8, spec, true);
  EXPECT_TRUE(faulted.verified);
  // Failover redirects timing, never bytes: the faulted drains must land
  // the clean run's exact contents (no loss, no divergent double-write).
  EXPECT_EQ(faulted.file_digest, clean.file_digest);
  // The drains themselves hit the outage and replayed.
  EXPECT_GT(faulted.stats.bb_drain_retries + faulted.stats.bb_drain_failovers,
            0u);
  EXPECT_EQ(faulted.stats.bb_drained_bytes, faulted.stats.bb_staged_bytes);
}

// --- split-phase collectives -----------------------------------------------

TEST(BurstBuffer, SplitPhaseWriteStagesIntoTheFilesStore) {
  // The split-phase helper fiber stages into the file's own store, so
  // close() drains its writes and the file's stats count them — under a
  // policy that drains at once and under one that waits for a watermark
  // the tiny working set never reaches.
  for (const bb::DrainPolicy policy :
       {bb::DrainPolicy::Immediate, bb::DrainPolicy::Watermark}) {
    mpi::World world(machine::MachineModel::jaguar(8));
    mpiio::Hints hints;
    hints.bb.enabled = true;
    hints.bb.policy = policy;
    bool verified = true;
    mpiio::FileStats stats;
    world.run([&](mpi::Rank& self) {
      mpiio::FileHandle file(self, self.comm_world(), "split_bb.dat", hints);
      constexpr std::uint64_t kBlock = 4096;
      const fs::Extent mine{static_cast<std::uint64_t>(self.rank()) * kBlock,
                            kBlock};
      std::vector<std::byte> data(kBlock);
      fill_stream(data.data(), std::span(&mine, 1), 43);
      auto request = core::write_at_all_begin(file, mine.offset, data.data(),
                                              1, dtype::Datatype::bytes(kBlock));
      core::split_end(file, request);
      file.close();
      auto* store = dynamic_cast<fs::MemoryStore*>(&self.world().fs().store());
      verified = verified && store != nullptr &&
                 verify_store(*store, file.fs_id(), std::span(&mine, 1), 43);
      if (self.rank() == 0) stats = file.stats();
    });
    EXPECT_TRUE(verified) << bb::to_string(policy);
    EXPECT_GT(stats.bb_staged_segments, 0u) << bb::to_string(policy);
    EXPECT_GT(stats.time[mpi::TimeCat::Drain], 0.0) << bb::to_string(policy);
  }
}

// --- the point of the tier -------------------------------------------------

TEST(BurstBuffer, WriteBehindShrinksForegroundElapsed) {
  const int nprocs = 16;
  const auto config = TileIOConfig::paper(nprocs);
  RunSpec off = tiny_spec();
  off.parcoll_groups = core::kAutoGroups;
  const auto base = run_tileio(config, nprocs, off, true);

  RunSpec spec = off;
  spec.bb.enabled = true;  // default capacity dwarfs the tiny working set
  const auto on = run_tileio(config, nprocs, spec, true);
  EXPECT_TRUE(on.verified);
  EXPECT_EQ(on.file_digest, base.file_digest);
  // Foreground span shrinks (fs service time became hidden drain work)...
  EXPECT_LT(on.elapsed, base.elapsed);
  EXPECT_GT(on.stats.time[mpi::TimeCat::Drain], 0.0);
  // ...while time-to-durability still accounts for the deferred drains.
  EXPECT_GE(on.total_elapsed, on.elapsed);
}

// --- wall report attribution -----------------------------------------------

TEST(BurstBuffer, WallReportCarriesDrainAttribution) {
  const int nprocs = 16;
  const auto config = TileIOConfig::paper(nprocs);
  RunSpec spec = tiny_spec();
  spec.parcoll_groups = core::kAutoGroups;
  spec.trace = true;
  spec.bb.enabled = true;
  const auto result = run_tileio(config, nprocs, spec, true);
  ASSERT_NE(result.trace, nullptr);

  const obs::WallReport report =
      obs::build_wall_report(result.trace->spans());
  EXPECT_GT(report.drain_seconds, 0.0);
  EXPECT_GE(report.drain_hidden, 0.0);
  EXPECT_GE(report.drain_exposed_wait, 0.0);
  // Hidden + exposed partitions the drain work against foreground waiting;
  // hidden alone can never exceed the total drain seconds.
  EXPECT_LE(report.drain_hidden, report.drain_seconds + 1e-9);

  const std::string text = obs::format_wall_report(report);
  EXPECT_NE(text.find("bb drain work"), std::string::npos);
  const obs::JsonValue json = obs::wall_report_json(report);
  ASSERT_NE(json.find("drain_s"), nullptr);
  EXPECT_GT(json.find("drain_s")->as_double(), 0.0);

  // A bb-off trace keeps the report (and its rendering) drain-free.
  RunSpec off = tiny_spec();
  off.parcoll_groups = core::kAutoGroups;
  off.trace = true;
  const auto base = run_tileio(config, nprocs, off, true);
  ASSERT_NE(base.trace, nullptr);
  const obs::WallReport plain = obs::build_wall_report(base.trace->spans());
  EXPECT_DOUBLE_EQ(plain.drain_seconds, 0.0);
  EXPECT_EQ(obs::format_wall_report(plain).find("bb drain work"),
            std::string::npos);
}

}  // namespace
}  // namespace parcoll::workloads
