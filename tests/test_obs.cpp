// Observability layer: JSON model, span store, metrics registry, Chrome
// trace export, collective-wall attribution, run export, and the
// bit-identity guarantee (observers never perturb simulated time).
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/run_export.hpp"
#include "obs/span.hpp"
#include "obs/wall_report.hpp"
#include "workloads/runner.hpp"
#include "workloads/tileio.hpp"

namespace parcoll {
namespace {

using obs::JsonValue;
using obs::SpanKind;
using obs::SpanStore;

// ---------------------------------------------------------------- JSON --

TEST(Json, BuildsAndDumpsCompact) {
  JsonValue doc = JsonValue::object();
  doc.set("name", "parcoll").set("count", 42).set("ratio", 0.5);
  doc.set("flag", true).set("missing", nullptr);
  JsonValue list = JsonValue::array();
  list.push(1);
  list.push(2);
  doc.set("list", std::move(list));
  EXPECT_EQ(doc.dump(),
            "{\"name\":\"parcoll\",\"count\":42,\"ratio\":0.5,"
            "\"flag\":true,\"missing\":null,\"list\":[1,2]}");
}

TEST(Json, RoundTripsThroughParse) {
  JsonValue doc = JsonValue::object();
  doc.set("int", -7).set("uint", 18446744073709551615ull);
  doc.set("pi", 3.141592653589793).set("text", "a \"quoted\"\nline");
  JsonValue inner = JsonValue::object();
  inner.set("deep", JsonValue::array());
  doc.set("inner", std::move(inner));

  const JsonValue parsed = JsonValue::parse(doc.dump());
  EXPECT_EQ(parsed.find("int")->as_int(), -7);
  EXPECT_EQ(parsed.find("uint")->as_uint(), 18446744073709551615ull);
  EXPECT_DOUBLE_EQ(parsed.find("pi")->as_double(), 3.141592653589793);
  EXPECT_EQ(parsed.find("text")->as_string(), "a \"quoted\"\nline");
  ASSERT_NE(parsed.find("inner"), nullptr);
  EXPECT_TRUE(parsed.find("inner")->find("deep")->is_array());
  // The pretty form parses back to the same document too.
  EXPECT_EQ(JsonValue::parse(doc.dump(2)).dump(), parsed.dump());
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse("{\"a\": }"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("[1, 2"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("true false"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse(""), std::runtime_error);
}

TEST(Json, ParseHandlesEscapesAndNumbers) {
  const JsonValue doc =
      JsonValue::parse("{\"s\": \"tab\\tnl\\nuni\\u00e9\", \"e\": 1.5e3}");
  EXPECT_EQ(doc.find("s")->as_string(), "tab\tnl\nuni\xc3\xa9");
  EXPECT_DOUBLE_EQ(doc.find("e")->as_double(), 1500.0);
}

TEST(Json, NonFiniteDoublesSerializeAsNull) {
  JsonValue doc = JsonValue::object();
  doc.set("inf", std::numeric_limits<double>::infinity());
  EXPECT_EQ(doc.dump(), "{\"inf\":null}");
}

TEST(Json, DoublesDumpAsTheShortestGFormThatReadsBack) {
  const auto dumped = [](double v) { return JsonValue(v).dump(); };
  EXPECT_EQ(dumped(0.0), "0");
  EXPECT_EQ(dumped(-0.0), "-0");
  EXPECT_EQ(dumped(0.1), "0.1");
  EXPECT_EQ(dumped(1.0 / 3.0), "0.3333333333333333");
  EXPECT_EQ(dumped(1e-05), "1e-05");
  EXPECT_EQ(dumped(1e+05), "1e+05");
  EXPECT_EQ(dumped(123456.0), "123456");
  EXPECT_EQ(dumped(1e16), "1e+16");
  EXPECT_EQ(dumped(1e17), "1e+17");
  EXPECT_EQ(dumped(123456789012345678.0), "1.2345678901234568e+17");
  EXPECT_EQ(dumped(5e-324), "5e-324");
  EXPECT_EQ(dumped(std::numeric_limits<double>::max()),
            "1.7976931348623157e+308");
  // A power of two whose 16 shortest digits are not its nearest 16: %g
  // needs the 17th.
  EXPECT_EQ(dumped(std::ldexp(1.0, -1017)), "7.1202363472230444e-307");
}

TEST(Json, SetOverwritesExistingKey) {
  JsonValue doc = JsonValue::object();
  doc.set("k", 1).set("k", 2);
  EXPECT_EQ(doc.find("k")->as_int(), 2);
  EXPECT_EQ(doc.members().size(), 1u);
}

// ------------------------------------------------------------- metrics --

TEST(Metrics, CountersAndGauges) {
  obs::MetricsRegistry metrics;
  ++metrics.counter("calls");
  metrics.counter("calls") += 2;
  EXPECT_EQ(metrics.counters().at("calls"), 3u);

  metrics.gauge("depth") = 4.5;
  metrics.gauge_max("peak", 2.0);
  metrics.gauge_max("peak", 1.0);  // lower value must not win
  metrics.gauge_max("peak", 7.0);
  EXPECT_DOUBLE_EQ(metrics.gauges().at("depth"), 4.5);
  EXPECT_DOUBLE_EQ(metrics.gauges().at("peak"), 7.0);
}

TEST(Metrics, IndexedNamesSortNumerically) {
  EXPECT_EQ(obs::MetricsRegistry::indexed("fs.ost.bytes", 3),
            "fs.ost.bytes[0003]");
  EXPECT_EQ(obs::MetricsRegistry::indexed("fs.ost.bytes", 41),
            "fs.ost.bytes[0041]");
  obs::MetricsRegistry metrics;
  metrics.counter("c", 10) = 1;
  metrics.counter("c", 2) = 1;
  // Ordered-map iteration yields numeric order thanks to the zero padding.
  EXPECT_EQ(metrics.counters().begin()->first, "c[0002]");
}

// --------------------------------------------------------------- spans --

TEST(SpanStore, NestsAndInheritsLabels) {
  SpanStore store;
  const auto call = store.open(0, 0, SpanKind::Call, "write_at_all", 1.0);
  const auto group =
      store.open(0, 0, SpanKind::Subgroup, "subgroup", 1.5, /*group=*/3);
  const auto cycle = store.open(0, 0, SpanKind::Stage, "cycle", 2.0,
                                /*group=*/-1, /*cycle=*/5);
  store.leaf(0, 0, mpi::TimeCat::Sync, 2.0, 2.5);
  store.close(0, cycle, 3.0);
  store.close(0, group, 3.5);
  store.close(0, call, 4.0);

  ASSERT_EQ(store.spans().size(), 4u);
  const obs::Span& call_span = store.at(call);
  EXPECT_EQ(call_span.parent, obs::kNoSpan);
  EXPECT_EQ(call_span.call, 0);  // first call ordinal on rank 0
  const obs::Span& group_span = store.at(group);
  EXPECT_EQ(group_span.parent, call);
  EXPECT_EQ(group_span.call, 0);
  EXPECT_EQ(group_span.group, 3);
  const obs::Span& cycle_span = store.at(cycle);
  EXPECT_EQ(cycle_span.group, 3);  // inherited from the subgroup span
  EXPECT_EQ(cycle_span.cycle, 5);
  const obs::Span& phase = store.spans().back();
  EXPECT_EQ(phase.kind, SpanKind::Phase);
  EXPECT_EQ(phase.parent, cycle);
  EXPECT_EQ(phase.call, 0);
  EXPECT_EQ(phase.group, 3);
  EXPECT_EQ(phase.cycle, 5);

  // Second call on the same rank gets the next ordinal.
  const auto call2 = store.open(0, 0, SpanKind::Call, "read_at_all", 5.0);
  EXPECT_EQ(store.at(call2).call, 1);
  store.close(0, call2, 6.0);
}

TEST(SpanStore, EnforcesLifoPerStream) {
  SpanStore store;
  const auto outer = store.open(0, 0, SpanKind::Call, "call", 0.0);
  const auto inner = store.open(0, 0, SpanKind::Stage, "stage", 0.5);
  EXPECT_THROW(store.close(0, outer, 1.0), std::logic_error);
  store.close(0, inner, 1.0);
  store.close(0, outer, 1.5);
}

TEST(SpanStore, StreamsNestIndependently) {
  // Two fibers sharing rank 0 (e.g. split-phase helper): each stream keeps
  // its own stack, so interleaved open/close across streams is legal.
  SpanStore store;
  const auto main_span = store.open(7, 0, SpanKind::Call, "call", 0.0);
  const auto helper_span = store.open(9, 0, SpanKind::Stage, "helper", 0.1);
  store.leaf(9, 0, mpi::TimeCat::IO, 0.1, 0.2);
  store.close(7, main_span, 0.3);  // closes fine: stream 7's own top
  store.close(9, helper_span, 0.4);
  const obs::Span& leaf = store.spans()[2];
  EXPECT_EQ(leaf.parent, helper_span);  // parented within its own stream
}

TEST(SpanStore, DropsEmptyLeaves) {
  SpanStore store;
  store.leaf(0, 0, mpi::TimeCat::Sync, 1.0, 1.0);
  store.leaf(0, 0, mpi::TimeCat::Sync, 2.0, 1.5);
  EXPECT_TRUE(store.empty());
}

// -------------------------------------------------------- chrome trace --

TEST(ChromeTrace, EmitsWellFormedTraceEvents) {
  SpanStore store;
  const auto call = store.open(0, 0, SpanKind::Call, "write_at_all", 0.0);
  store.leaf(0, 0, mpi::TimeCat::Sync, 0.25, 1.0);
  store.close(0, call, 1.0);
  store.leaf(1, 1, mpi::TimeCat::IO, 0.0, 0.5);

  std::ostringstream os;
  obs::write_chrome_trace(os, store);
  const JsonValue doc = JsonValue::parse(os.str());

  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  // 2 thread_name metadata rows (ranks 0, 1) + 3 X span rows.
  ASSERT_EQ(events->items().size(), 5u);
  int metadata = 0;
  int complete = 0;
  for (const JsonValue& event : events->items()) {
    const std::string& ph = event.find("ph")->as_string();
    if (ph == "M") {
      ++metadata;
      EXPECT_EQ(event.find("name")->as_string(), "thread_name");
    } else {
      ASSERT_EQ(ph, "X");
      ++complete;
      EXPECT_GE(event.find("dur")->as_double(), 0.0);
      EXPECT_NE(event.find("ts"), nullptr);
      EXPECT_NE(event.find("tid"), nullptr);
    }
  }
  EXPECT_EQ(metadata, 2);
  EXPECT_EQ(complete, 3);
  // Times are exported in microseconds.
  bool found_call = false;
  for (const JsonValue& event : events->items()) {
    if (event.find("ph")->as_string() == "X" &&
        event.find("name")->as_string() == "write_at_all") {
      found_call = true;
      EXPECT_DOUBLE_EQ(event.find("dur")->as_double(), 1e6);
    }
  }
  EXPECT_TRUE(found_call);
}

// --------------------------------------------------------- wall report --

TEST(WallReport, AttributesCycleSyncToStraggler) {
  // Two ranks, one call, one exchange cycle. Rank 1 arrives last (smallest
  // sync wait): the cycle's total sync must be attributed to rank 1.
  SpanStore store;
  for (int rank = 0; rank < 2; ++rank) {
    const std::uint64_t stream = static_cast<std::uint64_t>(rank);
    const auto call =
        store.open(stream, rank, SpanKind::Call, "write_at_all", 0.0);
    const auto cycle = store.open(stream, rank, SpanKind::Stage, "cycle", 0.0,
                                  /*group=*/-1, /*cycle=*/0);
    if (rank == 0) {
      store.leaf(stream, rank, mpi::TimeCat::Sync, 0.0, 0.9);  // waited 0.9
    } else {
      store.leaf(stream, rank, mpi::TimeCat::Sync, 0.8, 0.9);  // waited 0.1
    }
    store.close(stream, cycle, 1.0);
    store.close(stream, call, 1.0);
  }

  const obs::WallReport report = obs::build_wall_report(store);
  EXPECT_NEAR(report.total_sync, 1.0, 1e-12);
  EXPECT_NEAR(report.attributed_sync, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(report.coverage(), 1.0);
  ASSERT_EQ(report.cycles.size(), 1u);
  EXPECT_EQ(report.cycles[0].straggler, 1);
  EXPECT_NEAR(report.cycles[0].sync_seconds, 1.0, 1e-12);
  EXPECT_NEAR(report.cycles[0].straggler_lag, 0.8, 1e-12);
  ASSERT_EQ(report.ranks.size(), 2u);
  EXPECT_NEAR(report.ranks[1].caused, 1.0, 1e-12);
  EXPECT_NEAR(report.ranks[0].caused, 0.0, 1e-12);
  EXPECT_NEAR(report.ranks[0].suffered, 0.9, 1e-12);

  const std::string text = obs::format_wall_report(report);
  EXPECT_NE(text.find("collective wall report"), std::string::npos);
  const JsonValue json = obs::wall_report_json(report);
  EXPECT_NE(json.find("coverage"), nullptr);
}

TEST(WallReport, SyncOutsideCallsIsUnattributed) {
  SpanStore store;
  store.leaf(0, 0, mpi::TimeCat::Sync, 0.0, 1.0);  // no enclosing call
  const obs::WallReport report = obs::build_wall_report(store);
  EXPECT_NEAR(report.total_sync, 1.0, 1e-12);
  EXPECT_NEAR(report.attributed_sync, 0.0, 1e-12);
  EXPECT_NEAR(report.coverage(), 0.0, 1e-12);
}

TEST(WallReport, TileWorkloadCoverageMeetsBar) {
  // The acceptance criterion: on the Fig. 2 tile workload, >= 99 % of all
  // measured Sync time attributes to specific (cycle, rank) pairs.
  workloads::RunSpec spec;
  spec.impl = workloads::Impl::Ext2ph;
  spec.trace = true;
  const int nprocs = 32;
  const auto config = workloads::TileIOConfig::paper(nprocs);
  const auto result =
      workloads::run_tileio(config, nprocs, spec, /*write=*/true);
  ASSERT_NE(result.trace, nullptr);

  const obs::WallReport report =
      obs::build_wall_report(result.trace->spans());
  EXPECT_GT(report.total_sync, 0.0);
  EXPECT_GE(report.coverage(), 0.99);
  // The report's sync total matches the profiler's Sync bucket.
  EXPECT_NEAR(report.total_sync, result.sum[mpi::TimeCat::Sync], 1e-9);
  // Attribution is exhaustive over ranks: caused sums to attributed.
  double caused = 0;
  for (const auto& rank : report.ranks) caused += rank.caused;
  EXPECT_NEAR(caused, report.attributed_sync, 1e-9);
}

TEST(WallReport, ParCollGroupsShowUpInShares) {
  workloads::RunSpec spec;
  spec.impl = workloads::Impl::ParColl;
  spec.parcoll_groups = 4;
  spec.trace = true;
  const int nprocs = 32;
  const auto config = workloads::TileIOConfig::paper(nprocs);
  const auto result =
      workloads::run_tileio(config, nprocs, spec, /*write=*/true);
  ASSERT_NE(result.trace, nullptr);
  const obs::WallReport report =
      obs::build_wall_report(result.trace->spans());
  EXPECT_GE(report.coverage(), 0.99);
  // Partitioned run: at least one named subgroup carries sync share.
  EXPECT_FALSE(report.group_shares.empty());
}

// ---------------------------------------------------------- run export --

TEST(RunExport, MetricsMigrationAndDocument) {
  workloads::RunSpec spec;
  spec.impl = workloads::Impl::Ext2ph;
  spec.metrics = true;
  spec.byte_true = true;
  const int nprocs = 16;
  const auto config = workloads::TileIOConfig::paper(nprocs);
  const auto result =
      workloads::run_tileio(config, nprocs, spec, /*write=*/true);
  ASSERT_NE(result.metrics, nullptr);
  EXPECT_TRUE(result.verified);

  // The registry holds only its own instruments: the file's counts stay
  // in FileStats and the fault counts in FaultCounters.
  const auto& counters = result.metrics->counters();
  for (const auto& [name, value] : counters) {
    EXPECT_NE(name.rfind("stats.", 0), 0u) << name;
    EXPECT_NE(name.rfind("fault.", 0), 0u) << name;
  }

  // Collective instrumentation recorded sync waits.
  EXPECT_GT(counters.at("mpi.coll.calls.barrier"), 0u);
  const auto& quants = result.metrics->quantiles();
  ASSERT_TRUE(quants.count("mpi.coll.sync_wait_s"));
  EXPECT_GT(quants.at("mpi.coll.sync_wait_s").count(), 0u);
  ASSERT_TRUE(quants.count("fs.rpc.latency_s"));
  EXPECT_GT(quants.at("fs.rpc.latency_s").count(), 0u);
  ASSERT_TRUE(quants.count("coll.cycle_s"));
  EXPECT_GT(quants.at("coll.cycle_s").count(), 0u);
  // Per-OST I/O series populated.
  bool has_ost_bytes = false;
  for (const auto& [name, value] : counters) {
    if (name.rfind("fs.ost.bytes[", 0) == 0 && value > 0) {
      has_ost_bytes = true;
    }
  }
  EXPECT_TRUE(has_ost_bytes);

  // The run document round-trips through the parser.
  JsonValue doc = obs::run_document("test", JsonValue::object());
  doc.set("result", workloads::run_result_json(result));
  const JsonValue parsed = JsonValue::parse(doc.dump(1));
  EXPECT_EQ(parsed.find("schema")->as_string(), obs::kRunSchema);
  EXPECT_EQ(parsed.find("version")->as_int(), obs::kRunSchemaVersion);
  const JsonValue* result_json = parsed.find("result");
  ASSERT_NE(result_json, nullptr);
  EXPECT_EQ(result_json->find("bytes")->as_uint(), result.bytes);
  // Each count is exported once, from its owner.
  EXPECT_EQ(result_json->find("stats")->find("bytes_written")->as_uint(),
            result.stats.bytes_written);
  EXPECT_EQ(result_json->find("stats")->find("collective_writes")->as_uint(),
            result.stats.collective_writes);
  EXPECT_EQ(result_json->find("faults")->find("retries")->as_uint(),
            result.faults.retries);
  const JsonValue* metrics_json = result_json->find("metrics");
  ASSERT_NE(metrics_json, nullptr);
  EXPECT_EQ(metrics_json->find("counters")->find("stats.bytes_written"),
            nullptr);
  EXPECT_EQ(metrics_json->find("histograms"), nullptr);
  ASSERT_NE(metrics_json->find("quantiles"), nullptr);
  EXPECT_NE(metrics_json->find("quantiles")->find("fs.rpc.latency_s"),
            nullptr);
}

// --------------------------------------------------------- bit identity --

TEST(Observability, DisabledIsBitIdenticalToObserved) {
  // The same run with observability off, with tracing, and with tracing +
  // metrics must produce bit-identical simulated time, per-category
  // breakdowns, file statistics, and (byte-true) verified contents.
  const int nprocs = 16;
  const auto config = workloads::TileIOConfig::paper(nprocs);
  const auto run_with = [&](bool trace, bool metrics) {
    workloads::RunSpec spec;
    spec.impl = workloads::Impl::ParColl;
    spec.parcoll_groups = 4;
    spec.byte_true = true;
    spec.trace = trace;
    spec.metrics = metrics;
    return workloads::run_tileio(config, nprocs, spec, /*write=*/true);
  };
  const auto off = run_with(false, false);
  const auto traced = run_with(true, false);
  const auto full = run_with(true, true);

  for (const auto* observed : {&traced, &full}) {
    EXPECT_EQ(off.elapsed, observed->elapsed);  // exact, not approximate
    EXPECT_EQ(off.bytes, observed->bytes);
    for (std::size_t c = 0; c < mpi::kNumTimeCats; ++c) {
      EXPECT_EQ(off.sum.seconds[c], observed->sum.seconds[c]);
    }
    EXPECT_EQ(off.fs_rpcs, observed->fs_rpcs);
    EXPECT_EQ(off.stats.bytes_written, observed->stats.bytes_written);
    EXPECT_EQ(off.stats.exchange_cycles, observed->stats.exchange_cycles);
    EXPECT_TRUE(observed->verified);
  }
  EXPECT_TRUE(off.verified);
  EXPECT_EQ(off.trace, nullptr);
  EXPECT_EQ(off.metrics, nullptr);
  ASSERT_NE(traced.trace, nullptr);
  EXPECT_FALSE(traced.trace->spans().empty());
}

}  // namespace
}  // namespace parcoll
