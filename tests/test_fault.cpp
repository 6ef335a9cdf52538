// Deterministic fault injection and degraded-mode resilience.
//
// Three layers under test:
//  - FaultPlan itself: parsing, canonical description, and the guarantee
//    that the same seed yields the same event schedule.
//  - The empty-plan invariant: installing no plan and installing a plan
//    whose events never fire must both leave the simulation bit-for-bit
//    and timing-identical to the seed behaviour.
//  - Degraded-mode recovery: an OST outage in the middle of a collective
//    write completes with correct file bytes via timeout/retry/failover,
//    for the plain ext2ph baseline and for ParColl; a stalled aggregator
//    is re-elected by its subgroup.
#include <gtest/gtest.h>

#include <cstddef>
#include <random>
#include <string>
#include <vector>

#include "core/parcoll.hpp"
#include "core/subgroup.hpp"
#include "fault/fault.hpp"
#include "fs/object_store.hpp"
#include "fs/ost.hpp"
#include "mpi/collectives.hpp"
#include "mpiio/file.hpp"
#include "obs/metrics.hpp"
#include "workloads/ior.hpp"
#include "workloads/pattern.hpp"

namespace parcoll {
namespace {

constexpr std::uint64_t kSalt = 0xFA;

// ---------------------------------------------------------------------------
// FaultPlan unit tests
// ---------------------------------------------------------------------------

TEST(FaultPlan, EmptyByDefault) {
  fault::FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  plan.rpc_drop_prob = 0.5;
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, ParseRoundTripsThroughDescribe) {
  const std::string spec =
      "seed=7;ost-outage=3:0.1:0.5;ost-degrade=2:0:1:4;rank-stall=5:0.2:1;"
      "rpc-drop=0.01;rpc-delay=0.05:0.01;timeout=0.02;backoff=0.005:0.1;"
      "max-retries=2;agg-stall-threshold=0.05";
  const fault::FaultPlan plan = fault::FaultPlan::parse(spec);
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.outages.size(), 1u);
  EXPECT_EQ(plan.outages[0].ost, 3);
  EXPECT_DOUBLE_EQ(plan.outages[0].begin, 0.1);
  EXPECT_DOUBLE_EQ(plan.outages[0].end, 0.5);
  ASSERT_EQ(plan.degrades.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.degrades[0].factor, 4.0);
  ASSERT_EQ(plan.stalls.size(), 1u);
  EXPECT_EQ(plan.stalls[0].rank, 5);
  EXPECT_DOUBLE_EQ(plan.rpc_drop_prob, 0.01);
  EXPECT_DOUBLE_EQ(plan.retry.timeout, 0.02);
  EXPECT_EQ(plan.retry.max_retries, 2);
  // describe() is canonical: reparsing it reproduces itself.
  const fault::FaultPlan again = fault::FaultPlan::parse(plan.describe());
  EXPECT_EQ(again.describe(), plan.describe());
}

/// Property test: describe() is an exact, canonical inverse of parse() for
/// arbitrary plans — including the silent-corruption keys. Every field is
/// drawn randomly (doubles included: describe renders shortest-exact, so
/// the round-trip must be bit-for-bit), and parse(describe(p)) == p.
TEST(FaultPlan, DescribeParseRoundTripsRandomizedPlans) {
  std::mt19937_64 rng(0xF00DF00Du);
  const auto uniform = [&](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  const auto count = [&](int max) {
    return std::uniform_int_distribution<int>(0, max)(rng);
  };
  for (int trial = 0; trial < 200; ++trial) {
    fault::FaultPlan plan;
    plan.seed = rng();  // full 64-bit range
    for (int i = count(3); i > 0; --i) {
      const double begin = uniform(0.0, 10.0);
      plan.outages.push_back(
          {count(71), begin, begin + uniform(0.001, 5.0)});
    }
    for (int i = count(2); i > 0; --i) {
      const double begin = uniform(0.0, 10.0);
      plan.degrades.push_back(
          {count(71), begin, begin + uniform(0.001, 5.0),
           uniform(1.5, 8.0)});
    }
    for (int i = count(2); i > 0; --i) {
      plan.stalls.push_back({count(127), uniform(0.0, 10.0),
                             uniform(0.001, 5.0)});
    }
    for (int i = count(2); i > 0; --i) {
      plan.media.push_back({count(71), uniform(0.0, 10.0)});
    }
    if (count(1) != 0) plan.rpc_drop_prob = uniform(0.001, 0.999);
    if (count(1) != 0) {
      // Delay seconds only travel with a nonzero probability: describe()
      // omits the pair entirely when the delay process is off.
      plan.rpc_delay_prob = uniform(0.001, 0.999);
      plan.rpc_delay_seconds = uniform(0.0001, 0.1);
    }
    if (count(1) != 0) plan.rpc_corrupt_prob = uniform(0.001, 0.999);
    if (count(1) != 0) plan.bb_corrupt_prob = uniform(0.001, 0.999);
    plan.agg_stall_threshold = uniform(0.001, 0.2);
    plan.retry.timeout = uniform(0.001, 0.1);
    plan.retry.backoff_base = uniform(0.0005, 0.05);
    plan.retry.backoff_max = plan.retry.backoff_base * uniform(1.0, 10.0);
    plan.retry.max_retries = count(10);

    const std::string spec = plan.describe();
    fault::FaultPlan again;
    try {
      again = fault::FaultPlan::parse(spec);
    } catch (const std::exception& error) {
      FAIL() << "trial " << trial << ": describe() produced an unparseable "
             << "spec: " << error.what() << "\n  " << spec;
    }
    EXPECT_EQ(again, plan) << "trial " << trial << "\n  " << spec;
    EXPECT_EQ(again.describe(), spec) << "trial " << trial;
  }
}

TEST(FaultPlan, CorruptionKeysParseAndValidate) {
  const fault::FaultPlan plan = fault::FaultPlan::parse(
      "seed=5;rpc-corrupt=0.25;bb-corrupt=0.1;media-corrupt=3:0.5;"
      "media-corrupt=3:1.5");
  EXPECT_DOUBLE_EQ(plan.rpc_corrupt_prob, 0.25);
  EXPECT_DOUBLE_EQ(plan.bb_corrupt_prob, 0.1);
  ASSERT_EQ(plan.media.size(), 2u);  // repeatable key
  EXPECT_EQ(plan.media[0].ost, 3);
  EXPECT_DOUBLE_EQ(plan.media[1].at, 1.5);
  EXPECT_FALSE(plan.empty());

  EXPECT_THROW(fault::FaultPlan::parse("rpc-corrupt=1.5"),
               std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("rpc-corrupt=-0.1"),
               std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("bb-corrupt=2"),
               std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("media-corrupt=1"),
               std::invalid_argument);

  // Corruption draws are seed-deterministic and stream-independent.
  const fault::FaultPlan same = fault::FaultPlan::parse(
      "seed=5;rpc-corrupt=0.25;bb-corrupt=0.1");
  int corrupted = 0;
  for (std::uint64_t draw = 0; draw < 1000; ++draw) {
    EXPECT_EQ(plan.corrupt_rpc(0, draw), same.corrupt_rpc(0, draw));
    EXPECT_EQ(plan.corrupt_bb(4, draw), same.corrupt_bb(4, draw));
    if (plan.corrupt_rpc(0, draw)) ++corrupted;
  }
  EXPECT_GT(corrupted, 1000 * 0.25 / 2);
  EXPECT_LT(corrupted, 1000 * 0.25 * 2);
  EXPECT_EQ(plan.corrupt_site(1, 2), same.corrupt_site(1, 2));
}

TEST(FaultPlan, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(fault::FaultPlan::parse("nonsense"), std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("frobnicate=1"), std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("ost-outage=1:2"),
               std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("ost-outage=1:5:2"),
               std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("rpc-drop=1.5"), std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("rank-stall=1:0:0"),
               std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("rpc-drop=abc"), std::invalid_argument);
  // Numbers that would reach the virtual clock as nonsense: an RPC that
  // finishes before it starts, and non-finite times in any field.
  for (const char* spec :
       {"seed=1;rpc-delay=1:-1", "seed=1;rpc-delay=1:nan",
        "seed=1;rpc-delay=1:inf", "rpc-delay=nan:0.01",
        "rank-stall=0:0:inf", "rank-stall=0:nan:1", "timeout=nan",
        "timeout=inf", "ost-outage=0:0:nan", "ost-outage=0:-inf:1",
        "ost-degrade=0:0:1:inf", "media-corrupt=0:nan", "rpc-drop=nan",
        "backoff=0:inf", "agg-stall-threshold=NaN", "max-retries=inf",
        "ost-outage=inf:0:1"}) {
    EXPECT_THROW(fault::FaultPlan::parse(spec), std::invalid_argument)
        << spec;
  }
  // A zero delay is a legal (if useless) plan.
  EXPECT_NO_THROW(fault::FaultPlan::parse("rpc-delay=1:0"));
}

TEST(FaultPlan, WindowsQueryAsHalfOpenIntervals) {
  fault::FaultPlan plan;
  plan.outages.push_back({2, 1.0, 2.0});
  EXPECT_FALSE(plan.ost_down(2, 0.999));
  EXPECT_TRUE(plan.ost_down(2, 1.0));
  EXPECT_TRUE(plan.ost_down(2, 1.999));
  EXPECT_FALSE(plan.ost_down(2, 2.0));
  EXPECT_FALSE(plan.ost_down(1, 1.5));  // other target unaffected

  plan.degrades.push_back({4, 0.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(plan.degrade_factor(4, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(plan.degrade_factor(4, 1.5), 1.0);

  plan.stalls.push_back({1, 2.0, 0.5});
  EXPECT_DOUBLE_EQ(plan.stall_remaining(1, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(plan.stall_remaining(1, 2.25), 0.25);
  EXPECT_DOUBLE_EQ(plan.stall_remaining(1, 2.5), 0.0);
  EXPECT_DOUBLE_EQ(plan.stall_remaining(0, 2.0), 0.0);
}

TEST(FaultPlan, DropDrawsAreSeedDeterministic) {
  fault::FaultPlan a = fault::FaultPlan::parse("seed=11;rpc-drop=0.3");
  fault::FaultPlan b = fault::FaultPlan::parse("seed=11;rpc-drop=0.3");
  fault::FaultPlan c = fault::FaultPlan::parse("seed=12;rpc-drop=0.3");
  int dropped = 0;
  int differs = 0;
  for (std::uint64_t draw = 0; draw < 2000; ++draw) {
    const bool da = a.drop_rpc(0, draw);
    EXPECT_EQ(da, b.drop_rpc(0, draw));  // same seed -> same schedule
    if (da) ++dropped;
    if (da != c.drop_rpc(0, draw)) ++differs;
  }
  // The rate should be near the probability and the other seed distinct.
  EXPECT_GT(dropped, 2000 * 0.3 / 2);
  EXPECT_LT(dropped, 2000 * 0.3 * 2);
  EXPECT_GT(differs, 0);
}

TEST(FaultPlan, BackoffDoublesUpToCap) {
  fault::FaultPlan plan = fault::FaultPlan::parse("backoff=0.01:0.05");
  EXPECT_DOUBLE_EQ(plan.backoff(0), 0.01);
  EXPECT_DOUBLE_EQ(plan.backoff(1), 0.02);
  EXPECT_DOUBLE_EQ(plan.backoff(2), 0.04);
  EXPECT_DOUBLE_EQ(plan.backoff(3), 0.05);
  EXPECT_DOUBLE_EQ(plan.backoff(30), 0.05);
}

TEST(FaultCounters, AccumulateAndReportActivity) {
  fault::FaultCounters a;
  EXPECT_FALSE(a.any());
  fault::FaultCounters b;
  b.retries = 2;
  b.faulted_seconds = 0.5;
  a += b;
  a += b;
  EXPECT_TRUE(a.any());
  EXPECT_EQ(a.retries, 4u);
  EXPECT_DOUBLE_EQ(a.faulted_seconds, 1.0);

  fault::FaultState state;
  ++state.of(3).failovers;
  ++state.of(0).retries;
  EXPECT_EQ(state.of(3).failovers, 1u);
  EXPECT_EQ(state.of(7).retries, 0u);  // untouched client reads as zero
  const fault::FaultCounters total = state.total();
  EXPECT_EQ(total.failovers, 1u);
  EXPECT_EQ(total.retries, 1u);
}

// ---------------------------------------------------------------------------
// OST-level hooks
// ---------------------------------------------------------------------------

machine::StorageParams quiet_params() {
  machine::StorageParams params;
  params.jitter_frac = 0.0;
  params.slow_epoch_seconds = 0.0;
  return params;
}

TEST(OstFaults, OutageSwallowsRequestsWithoutSideEffects) {
  const auto params = quiet_params();
  fault::FaultPlan plan;
  plan.outages.push_back({0, 0.0, 1.0});
  fault::FaultState state;

  fs::OstModel ost(0, params);
  ost.set_fault(&plan, &state);
  const fs::ServeOutcome down = ost.serve(0.5, 0, 1, 0, 1000, 1000, false);
  EXPECT_FALSE(down.ok);
  EXPECT_DOUBLE_EQ(down.done, 0.5);
  EXPECT_EQ(ost.rpcs_served(), 0u);          // the OST never saw it
  EXPECT_DOUBLE_EQ(ost.busy_until(), 0.0);   // no busy time reserved

  // After the window (and under force) requests are served normally.
  EXPECT_TRUE(ost.serve(1.0, 0, 1, 0, 1000, 1000, false).ok);
  EXPECT_TRUE(ost.serve(0.5, 0, 1, 0, 1000, 1000, false, 1, true).ok);
}

TEST(OstFaults, DegradeWindowScalesServiceTime) {
  const auto params = quiet_params();
  fs::OstModel plain(0, params);
  const double base = plain.serve(0.0, 0, 1, 0, 1000, 1000, false).done;

  fault::FaultPlan plan;
  plan.degrades.push_back({0, 0.0, 10.0, 3.0});
  fault::FaultState state;
  fs::OstModel degraded(0, params);
  degraded.set_fault(&plan, &state);
  const double slow = degraded.serve(0.0, 0, 1, 0, 1000, 1000, false).done;
  EXPECT_DOUBLE_EQ(slow, 3.0 * base);
}

TEST(OstFaults, NeverFiringPlanLeavesServiceIdentical) {
  const auto params = quiet_params();
  fs::OstModel plain(0, params);
  fault::FaultPlan plan;
  plan.outages.push_back({0, 1e8, 1e9});  // scheduled far in the future
  fault::FaultState state;
  fs::OstModel hooked(0, params);
  hooked.set_fault(&plan, &state);
  for (int i = 0; i < 20; ++i) {
    const auto a = plain.serve(0.0, 0, 1, 0, 1000, 1000, true);
    const auto b = hooked.serve(0.0, 0, 1, 0, 1000, 1000, true);
    EXPECT_TRUE(b.ok);
    EXPECT_DOUBLE_EQ(a.done, b.done);
  }
}

// ---------------------------------------------------------------------------
// Aggregator re-election (pure roster logic)
// ---------------------------------------------------------------------------

TEST(Reelection, ReplacesStalledAggregatorDeterministically) {
  const mpi::Comm subcomm(/*context_id=*/99, {4, 5, 6, 7});
  fault::FaultPlan plan;
  plan.agg_stall_threshold = 0.05;
  plan.stalls.push_back({/*world rank*/ 5, 0.0, 10.0});

  int replaced = 0;
  const auto roster = core::reelect_stalled_aggregators(
      subcomm, {1, 3}, plan, /*agreed_now=*/1.0, &replaced);
  // Local rank 1 (world 5) is stalled; lowest healthy non-aggregator is
  // local 0. Local 3 (world 7) is healthy and keeps its seat.
  EXPECT_EQ(replaced, 1);
  EXPECT_EQ(roster, (std::vector<int>{0, 3}));

  // Identical inputs -> identical roster on every caller.
  const auto again = core::reelect_stalled_aggregators(
      subcomm, {1, 3}, plan, 1.0, nullptr);
  EXPECT_EQ(again, roster);

  // Once the stall has passed, the original roster is reinstated.
  const auto later = core::reelect_stalled_aggregators(
      subcomm, {1, 3}, plan, 20.0, &replaced);
  EXPECT_EQ(replaced, 0);
  EXPECT_EQ(later, (std::vector<int>{1, 3}));
}

TEST(Reelection, KeepsStalledAggregatorWhenNoHealthySubstitute) {
  const mpi::Comm subcomm(99, {0, 1});
  fault::FaultPlan plan;
  plan.stalls.push_back({0, 0.0, 10.0});
  plan.stalls.push_back({1, 0.0, 10.0});
  int replaced = 0;
  const auto roster =
      core::reelect_stalled_aggregators(subcomm, {0}, plan, 1.0, &replaced);
  EXPECT_EQ(replaced, 0);
  EXPECT_EQ(roster, (std::vector<int>{0}));
}

// ---------------------------------------------------------------------------
// End-to-end: collective write/read under faults
// ---------------------------------------------------------------------------

struct FaultRun {
  double elapsed = 0.0;
  std::vector<mpi::TimeBreakdown> times;
  bool write_verified = true;
  bool read_verified = true;
  mpiio::FileStats stats;
  fault::FaultCounters faults;
  double open_time = 0.0;
  std::vector<double> after_first_write;  // per-rank clock, first write done
  std::vector<std::vector<int>> aggregators_per_group;
};

/// Serial pattern (rank r owns a contiguous 4 KiB block), one collective
/// write (two when `two_writes`, exercising the cached-partition path)
/// then one collective read, bytes verified against the store.
FaultRun run_serial(int nranks, int groups, const fault::FaultPlan& plan,
                    bool two_writes = false, int cb_nodes = 0) {
  mpi::World world(machine::MachineModel::jaguar(nranks));
  world.set_fault(plan);
  mpiio::Hints hints;
  hints.parcoll_num_groups = groups;
  hints.parcoll_min_group_size = 2;
  hints.cb_nodes = cb_nodes;
  hints.cb_buffer_size = 1024;  // several exchange cycles per call
  FaultRun result;
  result.after_first_write.resize(static_cast<std::size_t>(nranks));

  world.run([&](mpi::Rank& self) {
    mpiio::FileHandle file(self, self.comm_world(), "fault.dat", hints);
    if (self.rank() == 0) {
      result.open_time = self.now();
    }
    const std::uint64_t bytes = 4096;
    file.set_view(static_cast<std::uint64_t>(self.rank()) * bytes, 1,
                  dtype::Datatype::bytes(bytes));
    const dtype::Datatype memtype = dtype::Datatype::bytes(bytes);
    const auto extents = file.view().map(0, bytes);
    if (groups != 0) {
      const auto decision = core::plan_decision(file, 0, 1, memtype);
      if (self.rank() == 0) {
        result.aggregators_per_group = decision.aggregators_per_group;
      }
    }

    std::vector<std::byte> buffer(bytes);
    workloads::fill_buffer_for_extents(buffer.data(), memtype, 1, extents,
                                       kSalt);
    core::write_at_all(file, 0, buffer.data(), 1, memtype);
    result.after_first_write[static_cast<std::size_t>(self.rank())] =
        self.now();
    if (two_writes) {
      // Same data to the same offsets: the second call reuses the cached
      // partition, so its first collective is the degraded-mode agreement.
      core::write_at_all(file, 0, buffer.data(), 1, memtype);
    }
    mpi::barrier(self, self.comm_world());

    auto* store = dynamic_cast<fs::MemoryStore*>(&self.world().fs().store());
    result.write_verified =
        result.write_verified && store != nullptr &&
        workloads::verify_store(*store, file.fs_id(), extents, kSalt);

    std::vector<std::byte> back(bytes);
    core::read_at_all(file, 0, back.data(), 1, memtype);
    result.read_verified =
        result.read_verified &&
        workloads::check_buffer_for_extents(back.data(), memtype, 1, extents,
                                            kSalt);
    mpi::barrier(self, self.comm_world());
    if (self.rank() == 0) result.stats = file.stats();
    file.close();
  });
  result.elapsed = world.elapsed();
  result.times = world.rank_times();
  result.faults = world.fault_state().total();
  return result;
}

void expect_identical(const FaultRun& a, const FaultRun& b) {
  EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
  ASSERT_EQ(a.times.size(), b.times.size());
  for (std::size_t r = 0; r < a.times.size(); ++r) {
    for (std::size_t c = 0; c < mpi::kNumTimeCats; ++c) {
      EXPECT_DOUBLE_EQ(a.times[r].seconds[c], b.times[r].seconds[c])
          << "rank " << r << " cat " << c;
    }
  }
}

TEST(FaultFreePath, EmptyPlanIsNeverInstalled) {
  mpi::World world(machine::MachineModel::jaguar(4));
  world.set_fault(fault::FaultPlan{});
  EXPECT_EQ(world.fault_plan(), nullptr);
}

/// The golden-seed equivalence demanded by the fault-model contract: a run
/// with no plan, and a run with a plan whose every event lies outside the
/// simulated time range, produce identical elapsed time and identical
/// per-rank breakdowns — for the baseline and for ParColl.
TEST(FaultFreePath, NeverFiringPlanMatchesSeedTimings) {
  fault::FaultPlan dormant;
  dormant.outages.push_back({0, 1e8, 1e9});
  dormant.degrades.push_back({1, 1e8, 1e9, 5.0});
  // No rank stalls on purpose: stalls gate the re-election reduction, and
  // this test asserts the *timing-identical* guarantee of the plain hooks.
  for (int groups : {0, 2}) {
    const FaultRun seed = run_serial(8, groups, fault::FaultPlan{});
    const FaultRun hooked = run_serial(8, groups, dormant);
    expect_identical(seed, hooked);
    EXPECT_FALSE(hooked.faults.any());
    EXPECT_EQ(hooked.stats.fault_retries, 0u);
    EXPECT_DOUBLE_EQ(
        hooked.times[0].seconds[static_cast<std::size_t>(
            mpi::TimeCat::Faulted)],
        0.0);
  }
}

/// A single-OST outage across the whole write window: the serial pattern
/// stores everything on stripe 0 (OST 0), so every data RPC initially hits
/// the dead target. The write must complete with correct bytes through
/// retry and failover, for ext2ph (groups=0) and ParColl (groups=2).
TEST(FaultRecovery, SingleOstOutageMidWriteCompletesCorrectly) {
  fault::FaultPlan plan = fault::FaultPlan::parse(
      "seed=3;ost-outage=0:0:0.5;timeout=0.002;backoff=0.001:0.004;"
      "max-retries=1");
  for (int groups : {0, 2}) {
    const FaultRun run = run_serial(8, groups, plan);
    EXPECT_TRUE(run.write_verified) << "groups=" << groups;
    EXPECT_TRUE(run.read_verified) << "groups=" << groups;
    EXPECT_GT(run.faults.retries, 0u) << "groups=" << groups;
    EXPECT_GT(run.faults.failovers, 0u) << "groups=" << groups;
    EXPECT_GT(run.faults.faulted_seconds, 0.0) << "groups=" << groups;
    // The recovery shows up in the file's close-time summary too.
    EXPECT_EQ(run.stats.fault_retries, run.faults.retries);
    EXPECT_EQ(run.stats.fault_failovers, run.faults.failovers);
  }
}

/// The blocking independent families fold their fault events into the
/// file's close-time stats, as the collectives do: 16-rank IOR with
/// dropped RPCs reports the same retries and drops in the summary as in
/// the run's fault counters.
TEST(FaultRecovery, IndependentCallsFoldFaultsIntoFileStats) {
  for (workloads::Impl impl :
       {workloads::Impl::Independent, workloads::Impl::PosixIndependent,
        workloads::Impl::Sieving, workloads::Impl::Ext2ph}) {
    workloads::RunSpec spec;
    spec.impl = impl;
    spec.byte_true = false;
    spec.fault = fault::FaultPlan::parse("seed=3;rpc-drop=0.02");
    const workloads::RunResult run =
        workloads::run_ior(workloads::IorConfig{}, 16, spec, /*write=*/true);
    const char* name = workloads::to_string(impl);
    EXPECT_GT(run.faults.retries, 0u) << name;
    EXPECT_EQ(run.stats.fault_retries, run.faults.retries) << name;
    EXPECT_EQ(run.stats.fault_drops, run.faults.drops) << name;
    EXPECT_EQ(run.stats.fault_failovers, run.faults.failovers) << name;
  }
}

/// Per-OST metrics credit the OST that served each RPC. Rank r writes one
/// 4 MiB stripe, so OST r gets it; OST 3 is down for the whole run, so its
/// stripe fails over to OST 4, and the registry's per-OST RPC and byte
/// counts must still match what every OST served.
TEST(FaultRecovery, PerOstMetricsCreditTheServingOst) {
  constexpr int kRanks = 8;
  constexpr std::uint64_t kStripe = 4ull << 20;
  mpi::World world(machine::MachineModel::jaguar(kRanks));
  const obs::MetricsRegistry& metrics = world.enable_metrics();
  world.set_fault(fault::FaultPlan::parse(
      "seed=7;ost-outage=3:0:1000;timeout=0.005;backoff=0.001:0.01;"
      "max-retries=1"));
  world.run([&](mpi::Rank& self) {
    mpiio::FileHandle file(self, self.comm_world(), "per_ost.dat");
    std::vector<std::byte> data(kStripe);
    core::write_at_all(file, static_cast<std::uint64_t>(self.rank()) * kStripe,
                       data.data(), 1, dtype::Datatype::bytes(kStripe));
    file.close();
  });
  const auto counter = [&](const char* name, int ost) -> std::uint64_t {
    const auto it =
        metrics.counters().find(obs::MetricsRegistry::indexed(name, ost));
    return it == metrics.counters().end() ? 0 : it->second;
  };
  const fs::LustreSim& lustre = world.fs();
  EXPECT_GT(world.fault_state().total().failovers, 0u);
  EXPECT_EQ(lustre.ost(3).rpcs_served(), 0u);
  EXPECT_GT(lustre.ost(4).rpcs_served(), 0u);
  for (int i = 0; i < lustre.num_osts(); ++i) {
    const auto ost = static_cast<std::size_t>(i);
    EXPECT_EQ(counter("fs.ost.rpcs", i), lustre.ost(ost).rpcs_served())
        << "OST " << i;
    EXPECT_EQ(counter("fs.ost.bytes", i), lustre.ost(ost).bytes_served())
        << "OST " << i;
  }
}

TEST(FaultRecovery, DegradedRunsAreReproducible) {
  fault::FaultPlan plan = fault::FaultPlan::parse(
      "seed=9;ost-outage=0:0:0.4;rpc-drop=0.05;timeout=0.002;"
      "backoff=0.001:0.004;max-retries=2");
  const FaultRun a = run_serial(8, 2, plan);
  const FaultRun b = run_serial(8, 2, plan);
  expect_identical(a, b);
  EXPECT_EQ(a.faults.retries, b.faults.retries);
  EXPECT_EQ(a.faults.failovers, b.faults.failovers);
  EXPECT_EQ(a.faults.drops, b.faults.drops);
  EXPECT_TRUE(a.write_verified);
  EXPECT_TRUE(b.write_verified);
}

TEST(FaultRecovery, RankStallIsChargedToFaultedTime) {
  fault::FaultPlan plan;
  plan.stalls.push_back({3, 0.0, 0.25});
  const FaultRun run = run_serial(8, 0, plan);
  EXPECT_TRUE(run.write_verified);
  EXPECT_EQ(run.faults.stalls, 1u);
  EXPECT_DOUBLE_EQ(
      run.times[3].seconds[static_cast<std::size_t>(mpi::TimeCat::Faulted)],
      0.25);
}

/// A ParColl subgroup re-elects an aggregator stalled past the threshold.
/// Staging: with persistent groups, the second write's first collective is
/// the degraded-mode time agreement itself, so a stall scheduled exactly
/// at the aggregator's clock after the first write fires there — the
/// agreed time lands inside the stall window with nearly the full
/// duration remaining, and the subgroup elects a substitute. The stall
/// time is calibrated from an identically-timed run whose only stall is
/// scheduled far beyond the simulated range (the simulator is
/// deterministic, so both runs agree on every clock up to that point).
TEST(FaultRecovery, StalledAggregatorIsReelected) {
  fault::FaultPlan dormant;
  dormant.agg_stall_threshold = 0.01;
  dormant.stalls.push_back({0, 1e9, 1.0});  // never fires; enables agreement
  // cb_nodes=2: one aggregator node per group, so each subgroup has
  // healthy non-aggregator members available as substitutes. (With the
  // all-aggregate default there is nobody to re-elect.)
  const FaultRun calibration =
      run_serial(8, 2, dormant, /*two_writes=*/true, /*cb_nodes=*/2);
  EXPECT_EQ(calibration.faults.reelections, 0u);
  EXPECT_EQ(calibration.faults.stalls, 0u);
  ASSERT_FALSE(calibration.aggregators_per_group.empty());
  ASSERT_FALSE(calibration.aggregators_per_group[0].empty());
  const int aggregator = calibration.aggregators_per_group[0][0];

  fault::FaultPlan plan;
  plan.agg_stall_threshold = 0.01;
  plan.stalls.push_back(
      {aggregator,
       calibration.after_first_write[static_cast<std::size_t>(aggregator)],
       /*duration=*/2.0});

  const FaultRun run =
      run_serial(8, 2, plan, /*two_writes=*/true, /*cb_nodes=*/2);
  EXPECT_TRUE(run.write_verified);
  EXPECT_TRUE(run.read_verified);
  EXPECT_GT(run.faults.reelections, 0u);
  EXPECT_EQ(run.faults.stalls, 1u);
  EXPECT_EQ(run.stats.fault_reelections, run.faults.reelections);
}

// ---------------------------------------------------------------------------
// Hint validation
// ---------------------------------------------------------------------------

TEST(HintValidation, StringInterfaceRejectsImpossibleValues) {
  mpiio::Hints hints;
  EXPECT_THROW(hints.set("cb_buffer_size", "0"), std::invalid_argument);
  EXPECT_THROW(hints.set("parcoll_num_groups", "0"), std::invalid_argument);
  EXPECT_THROW(hints.set("parcoll_num_groups", "-3"), std::invalid_argument);
  EXPECT_THROW(hints.set("parcoll_min_group_size", "0"),
               std::invalid_argument);
  hints.set("parcoll_num_groups", "auto");
  EXPECT_EQ(hints.parcoll_num_groups, -1);
  hints.set("parcoll_num_groups", "4");
  EXPECT_EQ(hints.parcoll_num_groups, 4);
}

TEST(HintValidation, ValidateChecksAgainstCommunicatorSize) {
  mpiio::Hints hints;
  hints.parcoll_num_groups = 16;
  EXPECT_THROW(hints.validate(/*comm_size=*/8), std::invalid_argument);
  EXPECT_NO_THROW(hints.validate(16));
  hints.parcoll_num_groups = -1;  // auto is always acceptable
  EXPECT_NO_THROW(hints.validate(2));
  hints.cb_buffer_size = 0;
  EXPECT_THROW(hints.validate(8), std::invalid_argument);
}

TEST(HintValidation, OpenRejectsGroupCountBeyondCommSize) {
  mpi::World world(machine::MachineModel::jaguar(4));
  mpiio::Hints hints;
  hints.parcoll_num_groups = 64;  // 4 ranks cannot host 64 groups
  bool threw = false;
  world.run([&](mpi::Rank& self) {
    try {
      mpiio::FileHandle file(self, self.comm_world(), "bad.dat", hints);
      file.close();
    } catch (const std::invalid_argument&) {
      threw = true;
      // All ranks throw identically, so nobody is left in the barrier.
    }
  });
  EXPECT_TRUE(threw);
}

}  // namespace
}  // namespace parcoll
