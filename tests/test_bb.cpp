// Burst-buffer staging tier: bb-off inertness, content equivalence of
// write-behind against the synchronous path across workloads and drain
// policies, capacity-pressure spill accounting, drain-failure replay
// (staged data survives OST outages with no loss and no double-write),
// split-phase writes staging into the file's own store, the wall
// report's hidden/exposed drain attribution, cross-node overwrite
// ordering, the flush wake rule, and the store's extent index against a
// brute-force scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <random>
#include <string>
#include <vector>

#include "bb/options.hpp"
#include "bb/staging.hpp"
#include "core/file_area.hpp"
#include "core/parcoll.hpp"
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
  // Deadlines must be strictly positive and finite.
  for (const char* bad : {"0", "-0.5", "nan", "inf", "-nan"}) {
    EXPECT_THROW(hints.set("bb_deadline", bad), std::invalid_argument)
        << "bb_deadline accepted " << bad;
  }
  // Watermarks are fractions of the arena: [0, 1] at set time. A NaN
  // passes both range tests, so it needs its own check.
  for (const char* bad : {"-0.1", "1.5", "nan", "inf", "-inf"}) {
    EXPECT_THROW(hints.set("bb_hi_watermark", bad), std::invalid_argument)
        << "bb_hi_watermark accepted " << bad;
    EXPECT_THROW(hints.set("bb_lo_watermark", bad), std::invalid_argument)
        << "bb_lo_watermark accepted " << bad;
  }
  try {
    hints.set("bb_deadline", "nan");
    FAIL() << "bb_deadline accepted nan";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("bb_deadline"), std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find("finite"), std::string::npos)
        << error.what();
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

// --- cross-node overwrites -------------------------------------------------

TEST(BurstBuffer, CrossNodeOverwriteFlushesTheOlderNodeFirst) {
  // jaguar(8) puts two ranks on each of 4 nodes, and every rank
  // aggregates an equal file domain. The first call covers 16 KiB, so
  // each node stages 4 KiB of it; the second covers 32 KiB, so nodes 0
  // and 1 rewrite the first 16 KiB, three quarters of it staged on other
  // nodes. A backlog queued on node 1 beforehand makes its older bytes
  // land after node 0's newer ones, unless the overwriting stage flushes
  // them first.
  constexpr std::uint64_t kBlock = 4096;
  constexpr std::uint64_t kBacklog = 4 << 20;
  constexpr std::uint64_t kFirstSalt = 31;
  constexpr std::uint64_t kSecondSalt = 32;
  mpi::World world(machine::MachineModel::jaguar(8));
  mpiio::Hints hints;
  hints.bb.enabled = true;
  hints.bb.policy = bb::DrainPolicy::Watermark;
  bool readback = true;
  mpiio::FileStats stats;
  world.run([&](mpi::Rank& self) {
    mpiio::FileHandle file(self, self.comm_world(), "overwrite.dat", hints);
    const auto rank = static_cast<std::uint64_t>(self.rank());
    // The backlog call spans 8 domains of kBacklog bytes past the 32 KiB:
    // ranks 2 and 3 fill node 1's two domains, every other rank writes
    // one byte of its own (rank 7's ends the span).
    const bool backlog = self.rank() == 2 || self.rank() == 3;
    const fs::Extent far{
        (rank + 1) * kBacklog + (self.rank() == 7 ? kBacklog - 1 : 0),
        backlog ? kBacklog : 1};
    std::vector<std::byte> data(kBacklog);
    fill_stream(data.data(), std::span(&far, 1), kFirstSalt);
    core::write_at_all(file, far.offset, data.data(), 1,
                       dtype::Datatype::bytes(far.length));

    const fs::Extent mine{rank * kBlock, kBlock};
    const auto first_count = self.rank() < 4 ? 1u : 0u;
    fill_stream(data.data(), std::span(&mine, 1), kFirstSalt);
    core::write_at_all(file, mine.offset, data.data(), first_count,
                       dtype::Datatype::bytes(kBlock));
    fill_stream(data.data(), std::span(&mine, 1), kSecondSalt);
    core::write_at_all(file, mine.offset, data.data(), 1,
                       dtype::Datatype::bytes(kBlock));
    file.close();
    auto* store = dynamic_cast<fs::MemoryStore*>(&self.world().fs().store());
    readback = readback && store != nullptr &&
               verify_store(*store, file.fs_id(), std::span(&mine, 1),
                            kSecondSalt);
    if (self.rank() == 0) stats = file.stats();
  });
  EXPECT_GT(stats.bb_conflict_flushes, 0u);
  EXPECT_TRUE(readback) << "an older staged write landed over a newer one";
}

// --- flush wake rule -------------------------------------------------------

TEST(BurstBuffer, FlushWaitersWakeOnlyWhenOneCanFinish) {
  // Every rank waits in close() while the watermark drain lands the whole
  // file, so waking each waiter on every landing would cost nranks events
  // per segment. Waking them only when the store goes idle keeps bb's
  // extra events proportional to segments plus ranks.
  const int nprocs = 32;
  RunSpec spec;
  spec.impl = Impl::Ext2ph;
  spec.byte_true = false;
  spec.intranode = node::IntranodeMode::Auto;
  const auto config = TileIOConfig::paper(nprocs);
  const auto off = run_tileio(config, nprocs, spec, true);
  spec.bb.enabled = true;
  spec.bb.policy = bb::DrainPolicy::Watermark;
  const auto on = run_tileio(config, nprocs, spec, true);
  ASSERT_GT(on.stats.bb_staged_segments, 0u);
  EXPECT_LE(on.engine.events_executed,
            off.engine.events_executed +
                4 * (on.stats.bb_staged_segments + nprocs));
}

TEST(BurstBuffer, SyncFinishesWhileAnotherNodeKeepsStaging) {
  // Rank 0 syncs while ranks on node 1 keep staging below the watermark.
  // The sync waits for an idle store, so the segments staged during the
  // wait must start draining at once, not when node 1 reaches the
  // watermark (never, here): the run would otherwise deadlock at close.
  // Collective buffering is off, so each call stages every rank's own
  // block without coordination.
  constexpr std::uint64_t kBlock = 4096;
  constexpr int kCalls = 4;
  constexpr double kGap = 1e-4;
  constexpr std::uint64_t kSalt = 41;
  mpi::World world(machine::MachineModel::jaguar(4));
  mpiio::Hints hints;
  hints.bb.enabled = true;
  hints.bb.policy = bb::DrainPolicy::Watermark;
  hints.cb_write_enabled = false;
  double sync_begin = 0;
  double sync_end = 0;
  std::vector<double> staged_at;
  bool durable = true;
  mpiio::FileStats stats;
  world.run([&](mpi::Rank& self) {
    mpiio::FileHandle file(self, self.comm_world(), "sync.dat", hints);
    const auto nranks = static_cast<std::uint64_t>(self.world().nranks());
    std::vector<fs::Extent> mine;
    std::vector<std::byte> data(kBlock);
    for (int call = 0; call < kCalls; ++call) {
      const fs::Extent block{
          (static_cast<std::uint64_t>(call) * nranks +
           static_cast<std::uint64_t>(self.rank())) * kBlock,
          kBlock};
      mine.push_back(block);
      if (self.rank() != 0) self.busy(mpi::TimeCat::Compute, kGap);
      if (self.node() == 1) staged_at.push_back(self.now());
      fill_stream(data.data(), std::span(&block, 1), kSalt);
      core::write_at_all(file, block.offset, data.data(), 1,
                         dtype::Datatype::bytes(kBlock));
      if (self.rank() == 0 && call == 0) {
        sync_begin = self.now();
        file.sync();
        sync_end = self.now();
      }
    }
    file.close();
    auto* store = dynamic_cast<fs::MemoryStore*>(&self.world().fs().store());
    durable = durable && store != nullptr &&
              verify_store(*store, file.fs_id(), mine, kSalt);
    if (self.rank() == 0) stats = file.stats();
  });
  EXPECT_TRUE(durable);
  EXPECT_EQ(stats.bb_staged_segments, 4u * kCalls);
  // The premise: node 1 staged while the sync was waiting.
  EXPECT_TRUE(std::any_of(staged_at.begin(), staged_at.end(), [&](double t) {
    return t > sync_begin && t < sync_end;
  }));
}

// --- the store's extent index ----------------------------------------------

bool brute_overlap(const std::vector<std::deque<std::vector<fs::Extent>>>& nodes,
                   std::span<const fs::Extent> query, int except) {
  for (std::size_t node = 0; node < nodes.size(); ++node) {
    if (static_cast<int>(node) == except) continue;
    for (const std::vector<fs::Extent>& segment : nodes[node]) {
      for (const fs::Extent& a : segment) {
        for (const fs::Extent& b : query) {
          if (a.offset < b.end() && b.offset < a.end()) return true;
        }
      }
    }
  }
  return false;
}

TEST(BbExtentIndex, BoundaryCases) {
  bb::ExtentIndex index;
  const fs::Extent staged{100, 50};  // [100, 150) on node 1
  index.add(1, std::span(&staged, 1));
  const auto hit = [&](std::uint64_t offset, std::uint64_t length,
                       int except = -1) {
    const fs::Extent query{offset, length};
    return index.overlaps(std::span(&query, 1), except);
  };
  EXPECT_FALSE(hit(50, 50));    // ends where the staged extent starts
  EXPECT_FALSE(hit(150, 10));   // starts where it ends
  EXPECT_TRUE(hit(149, 1));
  EXPECT_TRUE(hit(0, 1000));
  EXPECT_FALSE(hit(120, 5, 1));  // the excluded node
  EXPECT_TRUE(hit(120, 5, 0));
  EXPECT_TRUE(hit(120, 0));      // zero-length, strictly inside
  EXPECT_FALSE(hit(100, 0));     // zero-length at the start
  index.remove(1, std::span(&staged, 1));
  EXPECT_TRUE(index.empty());
  EXPECT_FALSE(hit(0, 1000));
}

TEST(BbExtentIndex, MatchesBruteForceScan) {
  // Random segments of random extents on random nodes, landing in FIFO
  // order per node. Landings outpace stages, so the index often drains
  // and its longest extent starts over. Half of the queries probe the
  // edges of a live extent: its last byte, the bytes just past either
  // end, and zero-length points on and inside it.
  constexpr int kNodes = 4;
  std::mt19937_64 rng(20081);
  const auto draw = [&](std::uint64_t n) { return rng() % n; };
  const auto random_extents = [&] {
    std::vector<fs::Extent> extents(1 + draw(3));
    for (fs::Extent& extent : extents) {
      extent.offset = draw(128);
      extent.length = draw(3) == 0 ? draw(24) : 8;
    }
    return extents;
  };
  bb::ExtentIndex index;
  std::vector<std::deque<std::vector<fs::Extent>>> nodes(kNodes);
  std::size_t live = 0;
  const auto live_extent = [&] {
    int node = static_cast<int>(draw(kNodes));
    while (nodes[node].empty()) node = (node + 1) % kNodes;
    const auto& segment = nodes[node][draw(nodes[node].size())];
    return segment[draw(segment.size())];
  };
  for (int step = 0; step < 50000; ++step) {
    const auto op = draw(10);
    if (op < 3) {
      const int node = static_cast<int>(draw(kNodes));
      nodes[node].push_back(random_extents());
      index.add(node, nodes[node].back());
      ++live;
    } else if (op < 6 && live > 0) {
      int node = static_cast<int>(draw(kNodes));
      while (nodes[node].empty()) node = (node + 1) % kNodes;
      index.remove(node, nodes[node].front());
      nodes[node].pop_front();
      --live;
    } else {
      std::vector<fs::Extent> query = random_extents();
      if (live > 0 && draw(2) == 0) {
        const fs::Extent x = live_extent();
        const std::uint64_t k = 1 + draw(4);
        const std::array<fs::Extent, 4> edges{
            fs::Extent{x.end() > 0 ? x.end() - 1 : 0, 1},
            fs::Extent{x.end(), k},
            fs::Extent{x.offset >= k ? x.offset - k : 0,
                       x.offset >= k ? k : x.offset},
            fs::Extent{x.offset + draw(x.length + 1), 0}};
        query.assign(1, edges[draw(edges.size())]);
      }
      const int except = static_cast<int>(draw(kNodes + 1)) - 1;
      ASSERT_EQ(index.overlaps(query, except),
                brute_overlap(nodes, query, except))
          << "step " << step;
    }
    ASSERT_EQ(index.empty(), live == 0) << "step " << step;
  }
}

}  // namespace
}  // namespace parcoll::workloads
