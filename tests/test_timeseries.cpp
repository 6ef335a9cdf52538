// Time-series telemetry, quantile histograms, per-job attribution, and
// the exporters (timeline JSON, folded stacks, top report, per-OST wall
// section) — plus the bit-identity guarantee: with the sampler off, a
// fully-observed run matches the pre-telemetry goldens exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "machine/machine_model.hpp"
#include "mpi/runtime.hpp"
#include "mpi/trace.hpp"
#include "mpiio/file.hpp"
#include "obs/folded.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/quantile.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "obs/wall_report.hpp"
#include "workloads/ior.hpp"
#include "workloads/runner.hpp"
#include "workloads/tileio.hpp"

namespace parcoll {
namespace {

// ------------------------------------------------------------ quantile --

/// Deterministic 64-bit LCG; the test needs reproducible draws, not
/// statistical quality.
std::uint64_t lcg(std::uint64_t& state) {
  state = state * 6364136223846793005ull + 1442695040888963407ull;
  return state >> 11;
}

TEST(QuantileHistogram, AccuracyWithinOnePercentOfSortedReference) {
  obs::QuantileHistogram hist;
  std::vector<double> reference;
  std::uint64_t state = 42;
  // Log-uniform latencies spanning microseconds to ~10 s: the range the
  // log-bucketed layout must resolve at ~1% everywhere.
  for (int i = 0; i < 20000; ++i) {
    const double u =
        static_cast<double>(lcg(state) % 1000000) / 1000000.0;
    const double value = 1e-6 * std::pow(1e7, u);
    hist.observe(value);
    reference.push_back(value);
  }
  std::sort(reference.begin(), reference.end());
  for (const double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    const std::size_t target = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(reference.size())));
    const double exact = reference[target - 1];
    const double approx = hist.quantile(q);
    EXPECT_NEAR(approx, exact, 0.0101 * exact)
        << "q=" << q << " exact=" << exact << " approx=" << approx;
  }
  EXPECT_EQ(hist.count(), reference.size());
  EXPECT_DOUBLE_EQ(hist.min(), reference.front());
  EXPECT_DOUBLE_EQ(hist.max(), reference.back());
  // p0/p100 clamp to the exact extremes.
  EXPECT_DOUBLE_EQ(hist.quantile(0.0), reference.front());
  EXPECT_DOUBLE_EQ(hist.quantile(1.0), reference.back());
}

TEST(QuantileHistogram, MergeEqualsCombinedObservations) {
  obs::QuantileHistogram a;
  obs::QuantileHistogram b;
  obs::QuantileHistogram all;
  std::uint64_t state = 7;
  for (int i = 0; i < 5000; ++i) {
    const double value =
        1e-4 * (1.0 + static_cast<double>(lcg(state) % 10000));
    ((i % 2) == 0 ? a : b).observe(value);
    all.observe(value);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  // Sums accumulate in a different order, so only near-equality holds.
  EXPECT_NEAR(a.sum(), all.sum(), 1e-9 * all.sum());
  for (const double q : {0.01, 0.5, 0.99}) {
    EXPECT_DOUBLE_EQ(a.quantile(q), all.quantile(q));
  }
}

// -------------------------------------------------------------- sampler --

workloads::RunSpec golden_ior_spec() {
  workloads::RunSpec spec;
  spec.impl = workloads::Impl::Ext2ph;
  spec.byte_true = true;
  return spec;
}

workloads::IorConfig golden_ior_config() {
  workloads::IorConfig config;
  config.block_size = 256 << 10;
  config.xfer_size = 64 << 10;
  return config;
}

TEST(Sampler, OffKeepsFullyObservedRunBitIdentical) {
  // Every observer on (trace, metrics, job tags) but the sampler off: the
  // run must still match the pre-telemetry goldens bit for bit.
  workloads::RunSpec spec = golden_ior_spec();
  spec.trace = true;
  spec.metrics = true;
  spec.job = "golden";
  spec.sample_interval = 0;
  const workloads::RunResult got =
      workloads::run_ior(golden_ior_config(), 32, spec, true);
  EXPECT_EQ(got.file_digest, 372189963690044911ull);
  EXPECT_EQ(got.schedule_token, "p");
  EXPECT_EQ(got.elapsed, 0.11984201252554912);
  EXPECT_EQ(got.total_elapsed, 0.12049201252554911);
  EXPECT_TRUE(got.verified);
  EXPECT_EQ(got.timeline, nullptr);
}

TEST(Sampler, TimelineByteIdenticalAcrossRuns) {
  workloads::RunSpec spec = golden_ior_spec();
  spec.sample_interval = 1e-3;
  const workloads::RunResult first =
      workloads::run_ior(golden_ior_config(), 32, spec, true);
  const workloads::RunResult second =
      workloads::run_ior(golden_ior_config(), 32, spec, true);
  ASSERT_NE(first.timeline, nullptr);
  ASSERT_NE(second.timeline, nullptr);
  EXPECT_EQ(first.timeline->to_json().dump(2),
            second.timeline->to_json().dump(2));
  EXPECT_FALSE(first.timeline->times_s.empty());
  // The headline series the telemetry exists for.
  EXPECT_NE(first.timeline->find("engine.events"), nullptr);
  EXPECT_NE(first.timeline->find("fs.ost.queue_depth_s[0000]"), nullptr);
  EXPECT_NE(first.timeline->find("mpi.rank.sync_s[0000]"), nullptr);
  // Sampling must not move the measured phase.
  EXPECT_EQ(first.elapsed, 0.11984201252554912);
}

TEST(Sampler, BbOccupancySeriesRecorded) {
  workloads::RunSpec spec;
  spec.impl = workloads::Impl::Ext2ph;
  spec.byte_true = false;
  spec.bb.enabled = true;
  spec.sample_interval = 1e-3;
  workloads::TileIOConfig tile;
  tile.tiles_x = 4;
  tile.tile_w = 16;
  tile.tile_h = 8;
  tile.elem_size = 8;
  const workloads::RunResult got =
      workloads::run_tileio(tile, 16, spec, true);
  ASSERT_NE(got.timeline, nullptr);
  bool used = false;
  bool backlog = false;
  for (const obs::TimeSeries::Series& series : got.timeline->series) {
    used = used || series.name.rfind("bb.node.used_bytes[", 0) == 0;
    backlog = backlog || series.name.rfind("bb.node.backlog_bytes[", 0) == 0;
  }
  EXPECT_TRUE(used);
  EXPECT_TRUE(backlog);
}

TEST(Sampler, DecimationBoundsMemoryDeterministically) {
  obs::TimeSeriesSampler sampler(1.0, /*max_samples=*/16);
  double level = 0;
  sampler.add_probe("level", [&level] { return level; });
  for (int tick = 0; tick < 1000; ++tick) {
    level = static_cast<double>(tick);
    sampler.sample(static_cast<double>(tick));
  }
  const auto snap = sampler.snapshot();
  ASSERT_NE(snap, nullptr);
  // Bounded: decimation keeps the sample count inside (max/2, max].
  EXPECT_LE(snap->times_s.size(), 16u);
  EXPECT_GT(snap->times_s.size(), 8u);
  // Whole-run coverage at a uniform stride, recorded values intact.
  ASSERT_EQ(snap->series.size(), 1u);
  const auto& values = snap->series[0].values;
  ASSERT_EQ(values.size(), snap->times_s.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_DOUBLE_EQ(values[i], snap->times_s[i]);
    if (i > 0) {
      EXPECT_DOUBLE_EQ(snap->times_s[i] - snap->times_s[i - 1],
                       static_cast<double>(snap->stride));
    }
  }
}

TEST(Sampler, RejectsNonPositiveAndNonFiniteIntervals) {
  // Each tick posts the next one an interval later, so a NaN or infinite
  // interval would put a time on the engine's clock that never comes due.
  for (const double bad :
       {0.0, -1e-3, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(obs::TimeSeriesSampler sampler(bad), std::invalid_argument)
        << bad;
  }
  EXPECT_NO_THROW(obs::TimeSeriesSampler sampler(1e-9));
  // A run spec's interval fails the same way, before anything runs,
  // instead of turning the sampler off.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    workloads::RunSpec spec;
    spec.sample_interval = bad;
    EXPECT_THROW(workloads::run_ior(workloads::IorConfig{}, 4, spec, true),
                 std::invalid_argument)
        << bad;
  }
}

// ------------------------------------------------------------ job tags --

TEST(JobTags, TwoJobMetricsSlice) {
  mpi::World world(machine::MachineModel::jaguar(4), /*byte_true=*/false);
  world.enable_metrics();
  // Two tenants sharing the file system: ranks 0-1 are "astro", 2-3
  // "clima". Every RPC must land in exactly one job slice.
  world.set_job(0, "astro");
  world.set_job(1, "astro");
  world.set_job(2, "clima");
  world.set_job(3, "clima");
  world.run([&](mpi::Rank& self) {
    mpiio::FileHandle file(self, self.comm_world(), "jobs.dat");
    const std::uint64_t offset =
        static_cast<std::uint64_t>(self.rank()) * (1 << 20);
    file.write_at(offset, nullptr, 1, dtype::Datatype::bytes(1 << 20));
    file.close();
  });
  const auto& counters = world.metrics()->counters();
  ASSERT_TRUE(counters.count("fs.rpcs{job=astro}"));
  ASSERT_TRUE(counters.count("fs.rpcs{job=clima}"));
  EXPECT_GT(counters.at("fs.rpcs{job=astro}"), 0u);
  EXPECT_GT(counters.at("fs.rpcs{job=clima}"), 0u);
  ASSERT_TRUE(counters.count("fs.bytes{job=astro}"));
  EXPECT_EQ(counters.at("fs.bytes{job=astro}"), 2u << 20);
  EXPECT_EQ(counters.at("fs.bytes{job=clima}"), 2u << 20);
  // The per-job latency slices partition the global instrument.
  const auto& quantiles = world.metrics()->quantiles();
  ASSERT_TRUE(quantiles.count("fs.rpc.latency_s"));
  ASSERT_TRUE(quantiles.count("fs.rpc.latency_s{job=astro}"));
  ASSERT_TRUE(quantiles.count("fs.rpc.latency_s{job=clima}"));
  EXPECT_EQ(quantiles.at("fs.rpc.latency_s{job=astro}").count() +
                quantiles.at("fs.rpc.latency_s{job=clima}").count(),
            quantiles.at("fs.rpc.latency_s").count());
}

// ------------------------------------------------------- folded stacks --

TEST(FoldedStacks, TotalWeightMatchesSpanTreeWithinOnePercent) {
  workloads::RunSpec spec = golden_ior_spec();
  spec.trace = true;
  const workloads::RunResult got =
      workloads::run_ior(golden_ior_config(), 32, spec, true);
  ASSERT_NE(got.trace, nullptr);
  const obs::SpanStore& spans = got.trace->spans();
  double tree_seconds = 0;
  for (const obs::Span& span : spans.spans()) {
    if (span.parent == obs::kNoSpan) {
      tree_seconds += span.end - span.begin;
    }
  }
  ASSERT_GT(tree_seconds, 0.0);
  const std::string folded = obs::folded_stacks(spans);
  const double folded_seconds =
      static_cast<double>(obs::folded_total_weight(folded)) * 1e-9;
  EXPECT_NEAR(folded_seconds, tree_seconds, 0.01 * tree_seconds);
}

TEST(FoldedStacks, JobTableAddsTenantRootFrame) {
  workloads::RunSpec spec = golden_ior_spec();
  spec.trace = true;
  spec.job = "astro";
  const workloads::RunResult got =
      workloads::run_ior(golden_ior_config(), 32, spec, true);
  ASSERT_NE(got.trace, nullptr);
  ASSERT_FALSE(got.jobs.empty());
  const std::string folded =
      obs::folded_stacks(got.trace->spans(), &got.jobs);
  ASSERT_FALSE(folded.empty());
  EXPECT_NE(folded.find("job:astro;rank_0000;"), std::string::npos);
  // Weight is invariant under relabeling the roots.
  EXPECT_EQ(obs::folded_total_weight(folded),
            obs::folded_total_weight(obs::folded_stacks(got.trace->spans())));
}

// ------------------------------------------------ top report and walls --

TEST(TopReport, ListsEngineRateAndOstQueues) {
  workloads::RunSpec spec = golden_ior_spec();
  spec.sample_interval = 1e-3;
  const workloads::RunResult got =
      workloads::run_ior(golden_ior_config(), 32, spec, true);
  ASSERT_NE(got.timeline, nullptr);
  const std::string report = obs::top_report(*got.timeline);
  ASSERT_FALSE(report.empty());
  EXPECT_NE(report.find("t="), std::string::npos);
  EXPECT_NE(report.find("ev/s="), std::string::npos);
  EXPECT_NE(report.find("ost_q:"), std::string::npos);
}

TEST(WallReport, PerOstSectionAndLatencyQuantiles) {
  workloads::RunSpec spec = golden_ior_spec();
  spec.trace = true;
  spec.metrics = true;
  const workloads::RunResult got =
      workloads::run_ior(golden_ior_config(), 32, spec, true);
  ASSERT_NE(got.trace, nullptr);
  ASSERT_NE(got.metrics, nullptr);
  const obs::WallReport report =
      obs::build_wall_report(got.trace->spans(), got.metrics.get());
  ASSERT_FALSE(report.osts.empty());
  for (std::size_t i = 1; i < report.osts.size(); ++i) {
    EXPECT_GE(report.osts[i - 1].service_s, report.osts[i].service_s);
  }
  EXPECT_GT(report.osts.front().rpcs, 0u);
  EXPECT_GT(report.osts.front().bytes, 0u);
  bool rpc_latency = false;
  for (const obs::LatencySummary& lat : report.latencies) {
    if (lat.name == "fs.rpc.latency_s") {
      rpc_latency = true;
      EXPECT_GT(lat.count, 0u);
      EXPECT_LE(lat.p50, lat.p99);
      EXPECT_LE(lat.p99, lat.max);
    }
    // Per-job slices stay out of the wall report.
    EXPECT_EQ(lat.name.find("{job="), std::string::npos);
  }
  EXPECT_TRUE(rpc_latency);
  const std::string text = obs::format_wall_report(report);
  EXPECT_NE(text.find("busiest OSTs"), std::string::npos);
  EXPECT_NE(text.find("latency quantiles"), std::string::npos);
  // The span-only overload stays metrics-free.
  const obs::WallReport plain = obs::build_wall_report(got.trace->spans());
  EXPECT_TRUE(plain.osts.empty());
  EXPECT_TRUE(plain.latencies.empty());
  EXPECT_EQ(plain.total_sync, report.total_sync);
}

}  // namespace
}  // namespace parcoll
