// Model checker: schedule tokens, tie-break policies, invariant checking,
// bug-injection self-tests, and degraded-mode file-content equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "check/explore.hpp"
#include "check/invariants.hpp"
#include "sim/random.hpp"
#include "sim/schedule.hpp"
#include "workloads/ior.hpp"
#include "workloads/tileio.hpp"

namespace {

using namespace parcoll;
using check::CheckConfig;
using check::InjectedBug;
using check::ScheduleOutcome;
using sim::ScheduleChoice;
using sim::SchedulePolicy;
using sim::TieBreak;

// ---------------------------------------------------------------------------
// Schedule tokens
// ---------------------------------------------------------------------------

TEST(ScheduleToken, RoundTrips) {
  EXPECT_EQ(SchedulePolicy::program().token(), "p");
  EXPECT_EQ(SchedulePolicy::random(42).token(), "r42");
  EXPECT_EQ(SchedulePolicy::dfs({}).token(), "d");
  EXPECT_EQ(SchedulePolicy::dfs({0, 2, 1}).token(), "d0.2.1");

  for (const std::string token : {"p", "r42", "r0", "d", "d0.2.1", "d7"}) {
    EXPECT_EQ(SchedulePolicy::parse(token).token(), token) << token;
  }
  const SchedulePolicy random = SchedulePolicy::parse("r99");
  EXPECT_EQ(random.kind, TieBreak::Random);
  EXPECT_EQ(random.seed, 99u);
  const SchedulePolicy dfs = SchedulePolicy::parse("d1.0.3");
  EXPECT_EQ(dfs.kind, TieBreak::Dfs);
  EXPECT_EQ(dfs.choices, (std::vector<std::uint32_t>{1, 0, 3}));
}

TEST(ScheduleToken, RejectsMalformedInput) {
  for (const std::string token :
       {"", "q", "px", "r", "r12x", "d1.", "d.", "d1..2", "dx"}) {
    EXPECT_THROW((void)SchedulePolicy::parse(token), std::invalid_argument)
        << "token: '" << token << "'";
  }
}

TEST(SchedulePolicy, PickSemantics) {
  // Program: always the first (sequence-ordered) event.
  EXPECT_EQ(SchedulePolicy::program().pick(0, 5), 0u);
  EXPECT_EQ(SchedulePolicy::program().pick(99, 2), 0u);
  // Dfs: forced within the prefix (clamped), program order beyond it.
  const SchedulePolicy dfs = SchedulePolicy::dfs({3, 1});
  EXPECT_EQ(dfs.pick(0, 5), 3u);
  EXPECT_EQ(dfs.pick(0, 2), 1u);  // clamped to alternatives - 1
  EXPECT_EQ(dfs.pick(1, 5), 1u);
  EXPECT_EQ(dfs.pick(2, 5), 0u);  // beyond the prefix
  // Random: deterministic in (seed, step), bounded by alternatives.
  const SchedulePolicy random = SchedulePolicy::random(7);
  for (std::uint64_t step = 0; step < 50; ++step) {
    const std::uint32_t pick = random.pick(step, 3);
    EXPECT_LT(pick, 3u);
    EXPECT_EQ(pick, SchedulePolicy::random(7).pick(step, 3));
  }
}

TEST(DfsNext, EnumeratesTheBoundedTree) {
  // Log: two choice points with 2 and 3 alternatives, all chosen 0.
  const std::vector<ScheduleChoice> root = {{0, 2}, {0, 3}};
  auto next = sim::dfs_next(root, 8);
  ASSERT_TRUE(next.has_value());
  // Deepest-first: bump the last in-bounds choice point.
  EXPECT_EQ(*next, (std::vector<std::uint32_t>{0, 1}));

  // Exhausted last position: backtracks to the first.
  const std::vector<ScheduleChoice> deep_done = {{0, 2}, {2, 3}};
  next = sim::dfs_next(deep_done, 8);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, (std::vector<std::uint32_t>{1}));

  // Fully exhausted tree.
  const std::vector<ScheduleChoice> all_done = {{1, 2}, {2, 3}};
  EXPECT_FALSE(sim::dfs_next(all_done, 8).has_value());

  // Depth limit: choice points past the horizon never branch.
  const std::vector<ScheduleChoice> beyond = {{1, 2}, {0, 3}};
  EXPECT_FALSE(sim::dfs_next(beyond, 1).has_value());

  // Singleton choice points (alternatives == 1) cannot branch.
  const std::vector<ScheduleChoice> singleton = {{0, 1}, {0, 1}};
  EXPECT_FALSE(sim::dfs_next(singleton, 8).has_value());
}

TEST(ScheduleSignature, DistinguishesLogs) {
  const std::vector<ScheduleChoice> a = {{0, 2}, {1, 3}};
  const std::vector<ScheduleChoice> b = {{1, 2}, {1, 3}};
  const std::vector<ScheduleChoice> c = {{1, 3}, {0, 2}};
  EXPECT_NE(sim::schedule_signature(a), sim::schedule_signature(b));
  EXPECT_NE(sim::schedule_signature(a), sim::schedule_signature(c));
  EXPECT_EQ(sim::schedule_signature(a), sim::schedule_signature(a));
}

// ---------------------------------------------------------------------------
// Bit-identity of the default tie-break
// ---------------------------------------------------------------------------

// The Program policy must keep the engine on the historical fast path.
// These exact doubles were captured against the pre-schedule-policy engine;
// any drift means the default schedule changed behavior.
TEST(ScheduleBitIdentity, TileIoParCollMatchesPreChangeEngine) {
  workloads::TileIOConfig config;
  config.tiles_x = 4;
  config.tile_w = 8;
  config.tile_h = 4;
  config.elem_size = 8;
  workloads::RunSpec spec;
  spec.impl = workloads::Impl::ParColl;
  spec.parcoll_groups = 2;
  spec.min_group_size = 2;
  spec.byte_true = true;
  spec.cb_buffer_size = 4096;
  const workloads::RunResult result = run_tileio(config, 8, spec, true);
  EXPECT_TRUE(result.verified);
  EXPECT_EQ(result.elapsed, 0.015066419635764825);
  EXPECT_EQ(result.sum.total(), 0.12125135708611859);
  EXPECT_EQ(result.fs_rpcs, 8u);
  // And the default policy records no choice points at all.
  EXPECT_EQ(result.schedule_token, "p");
  EXPECT_EQ(result.choice_points, 0u);
}

TEST(ScheduleBitIdentity, IorExt2phMatchesPreChangeEngine) {
  workloads::IorConfig config;
  config.block_size = 1 << 16;
  config.xfer_size = 1 << 14;
  workloads::RunSpec spec;
  spec.impl = workloads::Impl::Ext2ph;
  spec.byte_true = true;
  spec.cb_buffer_size = 4096;
  const workloads::RunResult result = run_ior(config, 8, spec, true);
  EXPECT_TRUE(result.verified);
  EXPECT_EQ(result.elapsed, 0.14066181123837801);
  EXPECT_EQ(result.sum.total(), 1.1260144899070235);
  EXPECT_EQ(result.fs_rpcs, 128u);
}

TEST(ScheduleBitIdentity, FaultInjectedRunMatchesPreChangeEngine) {
  workloads::TileIOConfig config;
  config.tiles_x = 4;
  config.tile_w = 8;
  config.tile_h = 4;
  config.elem_size = 8;
  workloads::RunSpec spec;
  spec.impl = workloads::Impl::ParColl;
  spec.parcoll_groups = 2;
  spec.min_group_size = 2;
  spec.byte_true = true;
  spec.cb_buffer_size = 4096;
  spec.fault = fault::FaultPlan::parse(
      "seed=9;ost-outage=1:0:0.05;rpc-drop=0.05;rank-stall=0:0:0.2");
  const workloads::RunResult result = run_tileio(config, 8, spec, true);
  EXPECT_TRUE(result.verified);
  EXPECT_EQ(result.elapsed, 0.015086432969098174);
  EXPECT_EQ(result.sum.total(), 1.7214114637527851);
}

// ---------------------------------------------------------------------------
// Schedule replay determinism
// ---------------------------------------------------------------------------

TEST(ScheduleReplay, SameSeedReproducesSameRun) {
  const CheckConfig config{"t", "tileio", 8, workloads::Impl::ParColl, 2};
  const ScheduleOutcome a =
      check::run_schedule(config, SchedulePolicy::random(1234));
  const ScheduleOutcome b =
      check::run_schedule(config, SchedulePolicy::random(1234));
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_GT(a.log.size(), 0u);
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(sim::schedule_signature(a.log), sim::schedule_signature(b.log));
}

TEST(ScheduleReplay, DifferentSeedsExploreDifferentSchedules) {
  const CheckConfig config{"t", "tileio", 8, workloads::Impl::ParColl, 2};
  const ScheduleOutcome a =
      check::run_schedule(config, SchedulePolicy::random(1));
  const ScheduleOutcome b =
      check::run_schedule(config, SchedulePolicy::random(2));
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_NE(sim::schedule_signature(a.log), sim::schedule_signature(b.log));
  // ... and still byte-identical file contents.
  EXPECT_EQ(a.digest, b.digest);
}

TEST(ScheduleReplay, DfsRootEqualsProgramOrder) {
  const CheckConfig config{"t", "tileio", 8, workloads::Impl::Ext2ph};
  const ScheduleOutcome program =
      check::run_schedule(config, SchedulePolicy::program());
  const ScheduleOutcome root =
      check::run_schedule(config, SchedulePolicy::dfs({}));
  ASSERT_TRUE(program.completed);
  ASSERT_TRUE(root.completed);
  EXPECT_EQ(program.digest, root.digest);
  // The root records its (all-zero) picks; program order records nothing.
  EXPECT_EQ(program.log.size(), 0u);
  EXPECT_GT(root.log.size(), 0u);
  for (const ScheduleChoice& choice : root.log) {
    EXPECT_EQ(choice.chosen, 0u);
  }
}

// ---------------------------------------------------------------------------
// Invariant checker unit tests
// ---------------------------------------------------------------------------

TEST(InvariantChecker, FlagsKindMismatch) {
  check::InvariantChecker checker;
  checker.on_collective(0, /*ctx=*/1, /*seq=*/0, /*kind=*/5, 4, 0xabc);
  checker.on_collective(1, 1, 0, /*kind=*/0, 4, 0xabc);
  ASSERT_FALSE(checker.ok());
  EXPECT_EQ(checker.violations()[0].invariant, "collective-match");
}

TEST(InvariantChecker, FlagsMembershipDisagreement) {
  check::InvariantChecker checker;
  checker.on_collective(0, 1, 0, 5, 4, 0xabc);
  checker.on_collective(1, 1, 0, 5, 4, 0xdef);
  ASSERT_FALSE(checker.ok());
  EXPECT_EQ(checker.violations()[0].invariant, "collective-match");
}

TEST(InvariantChecker, FinalizeFlagsIncompleteCollectives) {
  check::InvariantChecker checker;
  checker.on_collective(0, 1, 0, 5, 4, 0xabc);
  checker.on_collective(1, 1, 0, 5, 4, 0xabc);
  EXPECT_TRUE(checker.ok());
  checker.finalize();  // only 2 of 4 members arrived
  ASSERT_FALSE(checker.ok());
  EXPECT_EQ(checker.violations()[0].invariant, "collective-complete");
}

TEST(InvariantChecker, CleanRunPasses) {
  check::InvariantChecker checker;
  for (int rank = 0; rank < 4; ++rank) {
    checker.on_collective(rank, 1, 0, 5, 4, 0xabc);
    checker.on_partition(rank, 1, 4, 0x123);
    checker.on_reelection(rank, 1, 4, 0x456);
  }
  EXPECT_EQ(checker.checks(), 12u);  // one per hook call
  checker.finalize();
  EXPECT_TRUE(checker.ok());
}

TEST(InvariantChecker, FlagsSplitBrainReelection) {
  check::InvariantChecker checker;
  checker.on_reelection(0, 1, 4, 0x111);
  checker.on_reelection(1, 1, 4, 0x222);  // different roster: split-brain
  ASSERT_FALSE(checker.ok());
  EXPECT_EQ(checker.violations()[0].invariant, "reelection-agreement");
}

TEST(InvariantChecker, FlagsParentCollectiveInsidePartitionedCall) {
  // Rank 0's partitioned call on parent ctx 1 runs its subgroup's
  // collectives on ctx 2. A reduction on the parent inside the call (a
  // comm-wide error agreement) breaks sync-scope; the subgroup's own
  // reduction and the parent's collectives after the call do not.
  constexpr int kAllreduce = 5;
  check::InvariantChecker checker;
  checker.on_collective(0, /*ctx=*/1, /*seq=*/0, kAllreduce, 4, 0xabc);
  checker.on_partitioned_call_begin(0, /*parent_ctx=*/1);
  checker.on_collective(0, /*ctx=*/2, 0, kAllreduce, 2, 0xdef);
  // Rank 1 is in no partitioned call.
  checker.on_collective(1, /*ctx=*/1, 1, kAllreduce, 4, 0xabc);
  EXPECT_TRUE(checker.ok());
  checker.on_collective(0, /*ctx=*/1, 1, kAllreduce, 4, 0xabc);
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations()[0].invariant, "sync-scope");
  checker.on_partitioned_call_end(0, 1);
  checker.on_collective(0, /*ctx=*/1, 2, kAllreduce, 4, 0xabc);
  EXPECT_EQ(checker.violations().size(), 1u);
}

// ---------------------------------------------------------------------------
// Bug injection: the checker catches planted interleaving bugs
// ---------------------------------------------------------------------------

ScheduleOutcome find_bug(InjectedBug bug) {
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t seed =
        sim::hash_combine(1, static_cast<std::uint64_t>(i));
    ScheduleOutcome outcome =
        check::run_bug_schedule(SchedulePolicy::random(seed), bug);
    if (!outcome.violations.empty() || outcome.deadlock) {
      return outcome;
    }
  }
  return {};
}

TEST(BugInjection, ProgramOrderStaysClean) {
  const ScheduleOutcome outcome =
      check::run_bug_schedule(SchedulePolicy::program(), InjectedBug::Mismatch);
  EXPECT_TRUE(outcome.completed);
  EXPECT_TRUE(outcome.violations.empty());
}

TEST(BugInjection, MismatchIsCaughtAndReplayReproduces) {
  const ScheduleOutcome caught = find_bug(InjectedBug::Mismatch);
  ASSERT_FALSE(caught.violations.empty())
      << "planted mismatch not found in 64 random schedules";
  EXPECT_EQ(caught.violations[0].invariant, "collective-match");
  // The escaping error names the schedule token for replay.
  EXPECT_NE(caught.error.find(caught.token), std::string::npos);

  // Replaying the printed token reproduces the identical outcome.
  const ScheduleOutcome replay = check::run_bug_schedule(
      SchedulePolicy::parse(caught.token), InjectedBug::Mismatch);
  EXPECT_EQ(replay.log, caught.log);
  EXPECT_EQ(replay.error, caught.error);
  ASSERT_FALSE(replay.violations.empty());
  EXPECT_EQ(replay.violations[0].detail, caught.violations[0].detail);
}

TEST(BugInjection, DeadlockCarriesScheduleToken) {
  const ScheduleOutcome caught = find_bug(InjectedBug::Deadlock);
  ASSERT_TRUE(caught.deadlock)
      << "planted deadlock not found in 64 random schedules";
  // DeadlockError embeds the schedule token and the blocked-rank reasons.
  EXPECT_NE(caught.error.find(caught.token), std::string::npos);
  EXPECT_NE(caught.error.find("blocked"), std::string::npos);
  EXPECT_NE(caught.error.find("collective"), std::string::npos);

  const ScheduleOutcome replay = check::run_bug_schedule(
      SchedulePolicy::parse(caught.token), InjectedBug::Deadlock);
  EXPECT_TRUE(replay.deadlock);
  EXPECT_EQ(replay.error, caught.error);
}

// ---------------------------------------------------------------------------
// Degraded-mode file-content equivalence
// ---------------------------------------------------------------------------

/// Clean program-order digest for a degraded config's workload shape.
std::uint64_t clean_digest(CheckConfig config) {
  config.fault_spec.clear();
  const ScheduleOutcome clean =
      check::run_schedule(config, SchedulePolicy::program());
  EXPECT_TRUE(clean.completed);
  EXPECT_TRUE(clean.verified);
  return clean.digest;
}

TEST(ContentEquivalence, DegradedSmokeConfigsMatchCleanRun) {
  for (const CheckConfig& config : check::smoke_configs()) {
    if (config.fault_spec.empty()) {
      continue;
    }
    const std::uint64_t reference = clean_digest(config);
    const ScheduleOutcome degraded =
        check::run_schedule(config, SchedulePolicy::program());
    ASSERT_TRUE(degraded.completed) << config.name << ": " << degraded.error;
    EXPECT_TRUE(degraded.verified) << config.name;
    EXPECT_TRUE(degraded.faults.any())
        << config.name << ": fault plan did not engage";
    EXPECT_EQ(degraded.digest, reference) << config.name;
    EXPECT_TRUE(degraded.violations.empty()) << config.name;
  }
}

TEST(ContentEquivalence, DegradedModeActuallyDegrades) {
  // The smoke matrix must exercise the recovery paths it claims to cover:
  // retries/failovers from the outage plan, a re-election from the stall
  // plan. (Guards against plans that silently stop engaging.)
  fault::FaultCounters seen;
  for (const CheckConfig& config : check::smoke_configs()) {
    if (config.fault_spec.empty()) {
      continue;
    }
    const ScheduleOutcome outcome =
        check::run_schedule(config, SchedulePolicy::program());
    ASSERT_TRUE(outcome.completed) << config.name;
    seen += outcome.faults;
  }
  EXPECT_GT(seen.retries, 0u);
  EXPECT_GT(seen.failovers, 0u);
  EXPECT_GT(seen.reelections, 0u);
  EXPECT_GT(seen.stalls, 0u);
  EXPECT_GT(seen.drops, 0u);
}

TEST(ContentEquivalence, ComposedConfigEngagesEveryLayer) {
  // The composition config is only worth exploring while every layer it
  // stacks still does work: a layer that silently stopped engaging would
  // leave the digest check with nothing to catch. Same shape as the
  // checker's tiny IOR (16 KiB blocks in 4 KiB transfers).
  const auto configs = check::smoke_configs();
  const auto composed =
      std::find_if(configs.begin(), configs.end(), [](const auto& config) {
        return config.name == "ior-parcoll-composed";
      });
  ASSERT_NE(composed, configs.end());
  workloads::IorConfig ior;
  ior.block_size = 16 << 10;
  ior.xfer_size = 4 << 10;
  const workloads::RunResult result = workloads::run_ior(
      ior, composed->nprocs, composed->spec(), /*write=*/true);
  EXPECT_TRUE(result.verified);
  EXPECT_GT(result.stats.parcoll_calls, 0u);
  EXPECT_EQ(result.stats.last_num_groups, 2);
  EXPECT_GT(result.stats.intranode_calls, 0u);
  EXPECT_GT(result.stats.bb_staged_segments, 0u);
  EXPECT_GT(result.faults.corrupt_injected, 0u);
  EXPECT_GT(result.faults.corrupt_repaired, 0u);
}

TEST(ContentEquivalence, DegradedRunsUnderRandomSchedulesMatchToo) {
  // The core tentpole property at test scale: fault plan x schedule
  // permutation still lands the same bytes.
  for (const CheckConfig& config : check::smoke_configs()) {
    if (config.fault_spec.empty()) {
      continue;
    }
    const std::uint64_t reference = clean_digest(config);
    for (std::uint64_t seed : {11u, 12u}) {
      const ScheduleOutcome outcome =
          check::run_schedule(config, SchedulePolicy::random(seed));
      ASSERT_TRUE(outcome.completed)
          << config.name << " r" << seed << ": " << outcome.error;
      EXPECT_EQ(outcome.digest, reference) << config.name << " r" << seed;
      EXPECT_TRUE(outcome.violations.empty()) << config.name << " r" << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Exploration driver
// ---------------------------------------------------------------------------

TEST(Explore, SmokeConfigCompletesCleanWithDistinctSchedules) {
  const CheckConfig config{"t", "tileio", 8, workloads::Impl::ParColl, 2};
  check::ExploreOptions options;
  options.budget = 24;
  const check::ExploreStats stats = check::explore(config, options);
  EXPECT_TRUE(stats.ok()) << stats.violations[0].invariant << ": "
                          << stats.violations[0].detail;
  // budget runs + the reference run, every one a distinct interleaving.
  EXPECT_EQ(stats.schedules, 25u);
  EXPECT_EQ(stats.distinct, 25u);
  EXPECT_GT(stats.invariant_checks, 0u);
}

TEST(Explore, ReplayCommandNamesConfigAndToken) {
  const check::ExploreViolation violation{"cfg", "deadlock", "detail", "r7"};
  const std::string command = check::replay_command(violation);
  EXPECT_NE(command.find("--config cfg"), std::string::npos);
  EXPECT_NE(command.find("r7"), std::string::npos);
}

}  // namespace
