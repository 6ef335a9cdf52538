// bench_to_trajectory — fold per-bench JSON documents into a trajectory
// file (BENCH_smoke.json) that accumulates one entry per recorded run.
//
// Each input is a "parcoll-run" document written by a bench's --json flag
// (bench/common.hpp BenchReport). The trajectory keeps only the trend
// signal per point — series, nprocs, bandwidth, elapsed, sync share — so
// the file stays small as history accumulates.
//
// Usage:
//   bench_to_trajectory --out BENCH_smoke.json --label baseline
//       abl_group_size.json abl_seeds.json ...
//   bench_to_trajectory --check-regression BENCH_smoke.json 2
//       abl_group_size.json abl_seeds.json ...
// (each command is one line; the inputs are wrapped here for width)
//
// When --out already exists and is a valid trajectory document, the new
// entry is appended to its "runs" array; otherwise a fresh document is
// started. Exit status 0 on success, 2 on usage errors, 1 when an input
// cannot be read or parsed.
//
// --check-regression BASELINE.json PCT compares the inputs against the
// *last* run recorded in the baseline trajectory and exits non-zero when
// any deterministic perf key worsened by more than PCT percent. Only
// virtual-time metrics are gated (bandwidth, elapsed, durability, latency
// quantiles) — host-wall throughput (events_per_s, wall_s, ...) varies
// machine to machine and is reported but never gated. Three host-cost
// proxies are gated exactly: `events` (the events a run executed),
// `peak_queue_depth` (the deepest the event queue grew) and
// `stacks_allocated` (fiber stacks the pool had to allocate) repeat bit
// for bit, so any increase fails the check whatever PCT says, and a
// decrease is only reported. Points or keys the baseline lacks are
// skipped, so new benches and new keys land cleanly.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <cstdlib>

#include "obs/json.hpp"
#include "obs/run_export.hpp"

namespace {

using parcoll::obs::JsonValue;

constexpr const char* kTrajectorySchema = "parcoll-bench-trajectory";
constexpr int kTrajectoryVersion = 1;

JsonValue load_json(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("cannot open: " + path);
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return JsonValue::parse(buffer.str());
}

/// The trajectory entry for one bench document: bench name plus the
/// compact per-point trend row.
JsonValue fold_bench(const JsonValue& doc) {
  JsonValue entry = JsonValue::object();
  const JsonValue* tool = doc.find("tool");
  entry.set("bench", tool != nullptr ? tool->as_string() : "?");
  const JsonValue* config = doc.find("config");
  if (config != nullptr) {
    const JsonValue* smoke = config->find("smoke");
    if (smoke != nullptr) entry.set("smoke", smoke->as_bool());
  }
  JsonValue points = JsonValue::array();
  const JsonValue* in_points = doc.find("points");
  if (in_points != nullptr) {
    for (const JsonValue& point : in_points->items()) {
      JsonValue row = JsonValue::object();
      for (const char* key :
           {"series", "nprocs", "bandwidth_mib_s", "elapsed_s",
            "sync_fraction",
            // tail-latency rows: virtual-time quantile trend signal.
            "rpc_p50_s", "rpc_p99_s", "cycle_p50_s", "cycle_p99_s",
            // burst-buffer rows: write-behind trend signal.
            "durable_elapsed_s", "drain_s", "drain_wait_s", "bb_spills",
            // integrity rows: corruption-handling trend signal.
            "detected", "repaired", "scrub_repairs", "checksum_overhead_pct",
            // parcoll_check rows: checker throughput and coverage.
            "schedules", "distinct_schedules", "invariant_checks",
            "schedules_per_s", "violations",
            // micro_engine rows: DES engine scaling trend signal.
            "events_per_s", "wall_s", "stacks_reused", "peak_rss_mib",
            "speedup_vs_seed", "bit_identical", "allocs_per_rank_call",
            // every simulated run: the schedule's size and the engine's
            // footprint (gated exactly).
            "events", "peak_queue_depth", "stacks_allocated"}) {
        const JsonValue* value = point.find(key);
        if (value != nullptr) row.set(key, *value);
      }
      points.push(std::move(row));
    }
  }
  entry.set("points", std::move(points));
  return entry;
}

/// Gated keys: deterministic virtual-time metrics only. `higher_better`
/// says which direction is an improvement. Host-wall keys (events_per_s,
/// wall_s, schedules_per_s, peak_rss_mib, speedup_vs_seed) are not listed:
/// they depend on the machine running the bench, so gating them would make
/// CI flaky by construction.
struct GatedKey {
  const char* key;
  bool higher_better;
};

constexpr GatedKey kGatedKeys[] = {
    {"bandwidth_mib_s", true},  {"elapsed_s", false},
    {"durable_elapsed_s", false}, {"rpc_p99_s", false},
    {"cycle_p99_s", false},
};

/// Host-cost counts a run repeats bit for bit: any increase is a
/// regression whatever the percentage gate, and a decrease is reported.
constexpr const char* kExactKeys[] = {"events", "peak_queue_depth",
                                      "stacks_allocated"};

const JsonValue* find_bench(const JsonValue& run, const std::string& name) {
  const JsonValue* benches = run.find("benches");
  if (benches == nullptr) return nullptr;
  for (const JsonValue& bench : benches->items()) {
    const JsonValue* bench_name = bench.find("bench");
    if (bench_name != nullptr && bench_name->as_string() == name) {
      return &bench;
    }
  }
  return nullptr;
}

const JsonValue* find_point(const JsonValue& bench, const std::string& series,
                            double nprocs) {
  const JsonValue* points = bench.find("points");
  if (points == nullptr) return nullptr;
  for (const JsonValue& point : points->items()) {
    const JsonValue* point_series = point.find("series");
    const JsonValue* point_nprocs = point.find("nprocs");
    if (point_series != nullptr && point_series->as_string() == series &&
        point_nprocs != nullptr && point_nprocs->as_double() == nprocs) {
      return &point;
    }
  }
  return nullptr;
}

/// Compare the freshly-folded run against the baseline's last run. Returns
/// the number of regressions beyond `pct` percent.
int check_regression(const JsonValue& fresh, const JsonValue& baseline_run,
                     double pct) {
  int regressions = 0;
  int compared = 0;
  int skipped = 0;
  const JsonValue* benches = fresh.find("benches");
  if (benches == nullptr) return 0;
  for (const JsonValue& bench : benches->items()) {
    const std::string name = bench.find("bench")->as_string();
    const JsonValue* base_bench = find_bench(baseline_run, name);
    if (base_bench == nullptr) {
      std::printf("  %s: no baseline bench, skipping\n", name.c_str());
      continue;
    }
    const JsonValue* points = bench.find("points");
    if (points == nullptr) continue;
    for (const JsonValue& point : points->items()) {
      const JsonValue* series = point.find("series");
      const JsonValue* nprocs = point.find("nprocs");
      if (series == nullptr || nprocs == nullptr) continue;
      const JsonValue* base_point =
          find_point(*base_bench, series->as_string(), nprocs->as_double());
      if (base_point == nullptr) {
        ++skipped;
        continue;
      }
      for (const char* key : kExactKeys) {
        const JsonValue* fresh_value = point.find(key);
        const JsonValue* base_value = base_point->find(key);
        if (fresh_value == nullptr || base_value == nullptr) continue;
        const double now = fresh_value->as_double();
        const double base = base_value->as_double();
        ++compared;
        if (now != base) {
          const bool worse = now > base;
          regressions += worse ? 1 : 0;
          std::printf("  %s %s %s[n=%g] %s: %.0f -> %.0f\n",
                      worse ? "REGRESSION" : "lower:", name.c_str(),
                      series->as_string().c_str(), nprocs->as_double(), key,
                      base, now);
        }
      }
      for (const GatedKey& gated : kGatedKeys) {
        const JsonValue* fresh_value = point.find(gated.key);
        const JsonValue* base_value = base_point->find(gated.key);
        if (fresh_value == nullptr || base_value == nullptr) continue;
        const double now = fresh_value->as_double();
        const double base = base_value->as_double();
        ++compared;
        if (base == 0.0) continue;
        // Worsening as a fraction of the baseline, signed so that
        // improvement is negative in either direction convention.
        const double worse = gated.higher_better ? (base - now) / base
                                                 : (now - base) / std::abs(base);
        if (worse * 100.0 > pct) {
          ++regressions;
          std::printf("  REGRESSION %s %s[n=%g] %s: %g -> %g (%.2f%% worse, "
                      "gate %.2f%%)\n",
                      name.c_str(), series->as_string().c_str(),
                      nprocs->as_double(), gated.key, base, now, worse * 100.0,
                      pct);
        }
      }
    }
  }
  std::printf("  %d value(s) compared, %d point(s) without baseline, "
              "%d regression(s) (counts exact, the rest beyond %.2f%%)\n",
              compared, skipped, regressions, pct);
  return regressions;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string label;
  std::string baseline_path;
  double regression_pct = 0;
  bool check_mode = false;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--label" && i + 1 < argc) {
      label = argv[++i];
    } else if (arg == "--check-regression" && i + 2 < argc) {
      check_mode = true;
      baseline_path = argv[++i];
      regression_pct = std::strtod(argv[++i], nullptr);
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s --out TRAJECTORY.json [--label NAME] INPUT.json...\n"
          "       %s --check-regression BASELINE.json PCT INPUT.json...\n",
          argv[0], argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return 2;
    } else {
      inputs.push_back(arg);
    }
  }
  if ((out_path.empty() && !check_mode) || inputs.empty()) {
    std::fprintf(stderr,
                 "usage: %s --out TRAJECTORY.json [--label NAME] "
                 "INPUT.json...\n"
                 "       %s --check-regression BASELINE.json PCT "
                 "INPUT.json...\n",
                 argv[0], argv[0]);
    return 2;
  }

  JsonValue run = JsonValue::object();
  if (!label.empty()) run.set("label", label);
  JsonValue benches = JsonValue::array();
  for (const std::string& input : inputs) {
    try {
      const JsonValue doc = load_json(input);
      const JsonValue* schema = doc.find("schema");
      if (schema == nullptr ||
          schema->as_string() != parcoll::obs::kRunSchema) {
        std::fprintf(stderr, "%s: not a parcoll-run document, skipping\n",
                     input.c_str());
        continue;
      }
      benches.push(fold_bench(doc));
    } catch (const std::exception& error) {
      std::fprintf(stderr, "%s: %s\n", input.c_str(), error.what());
      return 1;
    }
  }
  run.set("benches", std::move(benches));

  if (check_mode) {
    JsonValue baseline = JsonValue::object();
    try {
      baseline = load_json(baseline_path);
    } catch (const std::exception& error) {
      // A missing baseline is not a regression: the first run on a fresh
      // branch has nothing to compare against.
      std::printf("no baseline (%s), skipping regression check\n",
                  error.what());
      return 0;
    }
    const JsonValue* schema = baseline.find("schema");
    const JsonValue* runs = baseline.find("runs");
    if (schema == nullptr || schema->as_string() != kTrajectorySchema ||
        runs == nullptr || runs->items().empty()) {
      std::fprintf(stderr, "%s: not a trajectory document\n",
                   baseline_path.c_str());
      return 1;
    }
    const JsonValue& last = runs->items().back();
    const JsonValue* last_label = last.find("label");
    std::printf("checking against baseline run \"%s\" (gate %.2f%%):\n",
                last_label != nullptr ? last_label->as_string().c_str() : "?",
                regression_pct);
    const int regressions = check_regression(run, last, regression_pct);
    return regressions > 0 ? 1 : 0;
  }

  // Append to an existing trajectory when the out file already holds one.
  JsonValue trajectory = JsonValue::object();
  trajectory.set("schema", kTrajectorySchema);
  trajectory.set("version", kTrajectoryVersion);
  JsonValue runs = JsonValue::array();
  {
    std::ifstream probe(out_path);
    if (probe) {
      try {
        JsonValue existing = load_json(out_path);
        const JsonValue* schema = existing.find("schema");
        const JsonValue* old_runs = existing.find("runs");
        if (schema != nullptr && schema->as_string() == kTrajectorySchema &&
            old_runs != nullptr) {
          for (const JsonValue& old_run : old_runs->items()) {
            runs.push(old_run);
          }
        }
      } catch (const std::exception&) {
        // Unreadable/foreign file: start a fresh trajectory rather than
        // failing the CI step that calls us.
      }
    }
  }
  runs.push(std::move(run));
  trajectory.set("runs", std::move(runs));

  try {
    parcoll::obs::write_json_file(out_path, trajectory);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return 1;
  }
  std::printf("%s: %zu run(s)\n", out_path.c_str(),
              trajectory.find("runs")->items().size());
  return 0;
}
