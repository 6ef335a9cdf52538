// perfbench — the ParColl simulator's benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//             [--twin-fault SPEC]
//
// One single-threaded process runs one named workload as a batch job: a
// closed loop with one client, one simulation at a time, and then the
// workload's correctness twin. The seed generates kInputSets input sets;
// with --trace 0 it cycles through them for S seconds (at least once each)
// and reports the end-to-end metrics. With --trace 1 it reports the
// per-layer metrics instead: each round runs the workload untraced, once
// with the program's metrics observers on and the benchmark's spans
// recorded, and once per optional layer with only that layer off; then
// the layer probes time each layer's public functions directly. The spans
// and the per-toggle counts go to DIR/<workload>-seed<N>-trace.json.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every simulation ran and passed its checks.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "obs/json.hpp"
#include "obs/quantile.hpp"
#include "obs/run_export.hpp"
#include "probes.hpp"
#include "sim/event_queue.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using parcoll::mpi::TimeCat;
using Clock = std::chrono::steady_clock;

/// Input sets generated from one seed.
constexpr std::uint64_t kInputSets = 4;
constexpr double kMiB = 1024.0 * 1024.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".bench_build/out";
  parcoll::fault::FaultPlan twin_fault;  // planted into the twin only
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Simulations attempted and failed, with one message per failure.
struct Tally {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> errors;

  void fail(const std::string& message) {
    ++failed;
    errors.push_back(message);
  }
};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

/// The sums a metric needs from every run_* call of one simulation.
struct Totals {
  double wall_s = 0;
  double setup_s = 0;
  std::uint64_t bytes = 0;
  double elapsed = 0;
  double total_elapsed = 0;
  std::uint64_t events = 0;
  std::uint64_t rpcs = 0;
};

Totals totals_of(const Sample& sample) {
  Totals totals;
  totals.wall_s = sample.wall_s;
  totals.setup_s = sample.setup_s;
  for (const wl::RunResult& result : sample.results) {
    totals.bytes += result.bytes;
    totals.elapsed += result.elapsed;
    totals.total_elapsed += result.total_elapsed;
    totals.events += result.engine.events_executed;
    totals.rpcs += result.fs_rpcs;
  }
  return totals;
}

/// Run one simulation and check it: every run_* call verified, the
/// expected bytes moved, and (given a reference simulation of the same
/// inputs) bit-equal virtual results. Returns false after recording a
/// failure in `tally`.
bool run_checked(const Workload& workload, const Args& args,
                 SpanRecorder* spans, const Totals* reference, Tally& tally,
                 Sample& sample) {
  ++tally.attempted;
  const std::string what = workload.name + " simulation: ";
  try {
    sample = run_sample(workload, args.out, spans);
  } catch (const std::exception& error) {
    tally.fail(what + "threw: " + error.what());
    return false;
  }
  for (const wl::RunResult& result : sample.results) {
    if (!result.verified) {
      tally.fail(what + "audit failed");
      return false;
    }
  }
  const Totals got = totals_of(sample);
  if (got.bytes != workload.expected_bytes()) {
    tally.fail(what + "moved " + std::to_string(got.bytes) + " bytes, want " +
               std::to_string(workload.expected_bytes()));
    return false;
  }
  if (reference != nullptr &&
      (got.elapsed != reference->elapsed ||
       got.total_elapsed != reference->total_elapsed ||
       got.events != reference->events || got.rpcs != reference->rpcs)) {
    tally.fail(what + "virtual results differ between runs of one seed");
    return false;
  }
  return true;
}

std::vector<Metric> timed_run(const std::vector<Workload>& inputs,
                              const Args& args, Tally& tally) {
  // Simulation j runs input set j % inputs.size(); every set runs at least
  // once, and a repeat must reproduce its set's virtual results exactly.
  std::vector<Totals> samples;
  const std::size_t sets = inputs.size();
  const Clock::time_point start = Clock::now();
  while (samples.size() < sets || seconds_since(start) < args.seconds) {
    const std::size_t set = samples.size() % sets;
    Sample sample;
    if (!run_checked(inputs[set], args, nullptr,
                     samples.size() < sets ? nullptr : &samples[set], tally,
                     sample)) {
      break;
    }
    samples.push_back(totals_of(sample));
  }
  if (samples.size() < sets) return {};

  std::vector<double> walls;
  std::vector<double> setups;
  for (const Totals& totals : samples) {
    walls.push_back(totals.wall_s);
    setups.push_back(totals.setup_s);
  }
  std::printf("samples   :");
  for (double wall : walls) std::printf(" %.4f", wall);
  std::printf(" s\n");
  // The highest percentile with at least ten samples beyond it.
  std::sort(walls.begin(), walls.end());
  const std::size_t n = walls.size();
  if (n >= 20) {
    const double q = 1.0 - 10.0 / static_cast<double>(n);
    std::printf("wall_s    : n=%zu median %.4f s, p%.0f %.4f s\n", n,
                median(walls), 100 * q,
                walls[static_cast<std::size_t>(q * static_cast<double>(n - 1))]);
  } else {
    std::printf(
        "wall_s    : n=%zu median %.4f s, min %.4f s, max %.4f s (no tail "
        "percentile: ten samples beyond p50 need n >= 20)\n",
        n, median(walls), walls.front(), walls.back());
  }
  // Virtual bandwidths: the mean over the input sets.
  double virtual_bw = 0;
  double durable_bw = 0;
  for (std::size_t set = 0; set < sets; ++set) {
    const Totals& totals = samples[set];
    virtual_bw += static_cast<double>(totals.bytes) / totals.elapsed / kMiB;
    durable_bw +=
        static_cast<double>(totals.bytes) / totals.total_elapsed / kMiB;
  }
  return {
      {"wall_s", median(walls), "s"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mib",
       static_cast<double>(parcoll::sim::peak_rss_bytes()) / kMiB, "MiB"},
      {"virtual_bw_mib_s", virtual_bw / static_cast<double>(sets), "MiB/s"},
      {"durable_bw_mib_s", durable_bw / static_cast<double>(sets), "MiB/s"},
  };
}

/// p99 of the named quantile histogram merged over a simulation's calls.
double merged_p99(const Sample& sample, const std::string& name) {
  parcoll::obs::QuantileHistogram merged;
  for (const wl::RunResult& result : sample.results) {
    if (!result.metrics) continue;
    const auto& quantiles = result.metrics->quantiles();
    const auto it = quantiles.find(name);
    if (it != quantiles.end()) merged.merge(it->second);
  }
  return merged.count() > 0 ? merged.quantile(0.99) : 0.0;
}

/// Write the spans and per-toggle counts of a traced run.
void write_trace_file(const std::string& path, const Workload& workload,
                      const Args& args, const SpanRecorder& spans,
                      parcoll::obs::JsonValue toggles) {
  using parcoll::obs::JsonValue;
  JsonValue doc = JsonValue::object();
  doc.set("workload", workload.name).set("seed", args.seed);
  JsonValue list = JsonValue::array();
  for (const Span& span : spans.spans()) {
    JsonValue entry = JsonValue::object();
    entry.set("name", span.name)
        .set("start_s", span.start_s)
        .set("end_s", span.end_s)
        .set("parent", span.parent);
    list.push(std::move(entry));
  }
  doc.set("spans", std::move(list));
  doc.set("toggles", std::move(toggles));
  parcoll::obs::write_json_file(path, doc);
}

std::vector<Metric> traced_run(const Workload& workload, const Args& args,
                               Tally& tally, SpanRecorder& spans) {
  Workload traced = workload;
  traced.spec.metrics = true;  // observers never advance the virtual clock

  std::vector<double> on_walls;
  std::vector<double> traced_walls;
  std::vector<double> export_walls;
  std::map<Layer, std::vector<double>> off_walls;
  std::map<Layer, Sample> off_samples;
  Sample on;
  Sample with_metrics;
  {
    // Warm-up, discarded: the first simulation in a process pays for
    // fresh pages that later ones reuse.
    auto scope = span(&spans, "warmup");
    if (!run_checked(workload, args, nullptr, nullptr, tally, on)) return {};
  }
  const Clock::time_point start = Clock::now();
  while (on_walls.empty() || seconds_since(start) < args.seconds) {
    if (!run_checked(workload, args, nullptr, nullptr, tally, on)) return {};
    const Totals reference = totals_of(on);
    on_walls.push_back(on.host_s());
    export_walls.push_back(on.export_s);
    {
      auto scope = span(&spans, "traced");
      if (!run_checked(traced, args, &spans, &reference, tally,
                       with_metrics)) {
        return {};
      }
    }
    traced_walls.push_back(with_metrics.host_s());
    for (Layer layer : workload.layers) {
      auto scope = span(&spans, std::string("without.") + to_string(layer));
      Sample& off = off_samples[layer];
      if (!run_checked(without(workload, layer), args, &spans, nullptr, tally,
                       off)) {
        return {};
      }
      off_walls[layer].push_back(off.host_s());
    }
  }
  const double wall_on = median(on_walls);
  const auto host_share = [&](Layer layer) {
    return workload.uses(layer) ? 1.0 - median(off_walls[layer]) / wall_on
                                : 0.0;
  };

  PartitionProbe partition;
  double filetypes_s = 0;
  double node_comm_s = 0;
  double integrity_s = 0;
  {
    auto scope = span(&spans, "probes");
    partition = probe_partition(workload, &spans);
    filetypes_s = probe_filetypes(workload, &spans);
    node_comm_s = probe_make_node_comm(workload, &spans);
    integrity_s = probe_integrity_register(workload, &spans);
  }
  // The planner run directly on the workload's table must agree with the
  // groups the simulated ParColl calls used.
  if (partition.groups != 0 &&
      partition.groups != on.results.front().stats.last_num_groups) {
    tally.fail(workload.name + ": core partition probe chose " +
               std::to_string(partition.groups) + " groups, the run used " +
               std::to_string(on.results.front().stats.last_num_groups));
  }

  double sync = 0, p2p = 0, io = 0, integrity = 0, drain_wait = 0, total = 0;
  double drain = 0, run_wall = 0;
  std::uint64_t events = 0, peak_queue = 0, stacks = 0, cycles = 0,
                calls = 0, views = 0, intranode = 0, rpcs = 0, locks = 0,
                blocks = 0, staged = 0, spills = 0, conflicts = 0, series = 0;
  int groups = 0;
  for (const wl::RunResult& r : on.results) {
    sync += r.sum[TimeCat::Sync];
    p2p += r.sum[TimeCat::P2P];
    io += r.sum[TimeCat::IO];
    integrity += r.sum[TimeCat::Integrity];
    drain_wait += r.sum[TimeCat::DrainWait];
    total += r.sum.total();
    drain += r.stats.time[TimeCat::Drain];
    run_wall += r.engine.run_wall_seconds;
    events += r.engine.events_executed;
    peak_queue = std::max(peak_queue, r.engine.peak_queue_depth);
    stacks += r.engine.stacks_allocated;
    cycles += r.stats.exchange_cycles;
    calls += r.stats.collective_writes + r.stats.collective_reads;
    views += r.stats.view_switches;
    groups = std::max(groups, r.stats.last_num_groups);
    intranode += r.stats.intranode_calls;
    rpcs += r.fs_rpcs;
    locks += r.fs_lock_switches;
    blocks += r.stats.integrity_blocks;
    staged += r.stats.bb_staged_segments;
    spills += r.stats.bb_spills;
    conflicts += r.stats.bb_conflict_flushes;
    if (r.timeline) series += r.timeline->series.size();
  }

  using parcoll::obs::JsonValue;
  JsonValue toggles = JsonValue::object();
  for (const auto& [layer, off] : off_samples) {
    std::uint64_t off_intranode = 0, off_staged = 0, off_blocks = 0;
    for (const wl::RunResult& r : off.results) {
      off_intranode += r.stats.intranode_calls;
      off_staged += r.stats.bb_staged_segments;
      off_blocks += r.stats.integrity_blocks;
    }
    const Totals off_totals = totals_of(off);
    JsonValue entry = JsonValue::object();
    entry.set("wall_s", median(off_walls[layer]))
        .set("intranode_calls", off_intranode)
        .set("bb_staged_segments", off_staged)
        .set("integrity_blocks", off_blocks)
        .set("virtual_bw_mib_s", static_cast<double>(off_totals.bytes) /
                                     off_totals.elapsed / kMiB);
    toggles.set(std::string("without.") + to_string(layer), std::move(entry));
  }
  const std::string path = args.out + "/" + workload.name + "-seed" +
                           std::to_string(args.seed) + "-trace.json";
  write_trace_file(path, workload, args, spans, std::move(toggles));
  std::printf("trace     : %zu spans, %zu rounds -> %s\n",
              spans.spans().size(), on_walls.size(), path.c_str());

  const auto count = [](std::uint64_t value) {
    return static_cast<double>(value);
  };
  return {
      {"sim.events", count(events), "count"},
      {"sim.ns_per_event", 1e9 * run_wall / static_cast<double>(events), "ns"},
      {"sim.peak_queue_depth", count(peak_queue), "count"},
      {"sim.stacks_allocated", count(stacks), "count"},
      {"mpi.sync_rank_s", sync, "s"},
      {"mpi.sync_share", total > 0 ? sync / total : 0.0, "ratio"},
      {"mpi.cycle_p99_s", merged_p99(with_metrics, "coll.cycle_s"), "s"},
      {"mpi.p2p_rank_s", p2p, "s"},
      {"mpiio.exchange_cycles", count(cycles), "count"},
      {"mpiio.collective_calls", count(calls), "count"},
      {"core.partition_s", partition.seconds_per_call, "s"},
      {"core.groups", static_cast<double>(groups), "count"},
      {"core.view_switches", count(views), "count"},
      {"dtype.filetype_s", filetypes_s, "s"},
      {"node.make_node_comm_s", node_comm_s, "s"},
      {"node.host_share", host_share(Layer::Intranode), "ratio"},
      {"node.intranode_calls", count(intranode), "count"},
      {"fs.rpcs", count(rpcs), "count"},
      {"fs.lock_switches", count(locks), "count"},
      {"fs.io_rank_s", io, "s"},
      {"fs.rpc_p99_s", merged_p99(with_metrics, "fs.rpc.latency_s"), "s"},
      {"fs.integrity_rank_s", integrity, "s"},
      {"fs.integrity_blocks", count(blocks), "count"},
      {"fs.integrity_register_s", integrity_s, "s"},
      {"fs.integrity_host_share", host_share(Layer::Integrity), "ratio"},
      {"bb.staged_segments", count(staged), "count"},
      {"bb.spills", count(spills), "count"},
      {"bb.conflict_flushes", count(conflicts), "count"},
      {"bb.drain_rank_s", drain, "s"},
      {"bb.drain_wait_rank_s", drain_wait, "s"},
      {"bb.host_share", host_share(Layer::Bb), "ratio"},
      {"obs.export_s", median(export_walls), "s"},
      {"obs.export_bytes", count(on.export_bytes), "B"},
      {"obs.timeline_series", count(series), "count"},
      {"obs.host_share", host_share(Layer::Telemetry), "ratio"},
      {"bench.trace_overhead_s", median(traced_walls) - wall_on, "s"},
  };
}

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--out DIR] [--twin-fault SPEC]\n  workloads:",
               argv0);
  for (const std::string& name : workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        args.workload = value;
      } else if (arg == "--seed") {
        args.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        args.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return false;
        args.trace = value == "1";
      } else if (arg == "--out") {
        args.out = value;
      } else if (arg == "--twin-fault") {
        args.twin_fault = parcoll::fault::FaultPlan::parse(value);
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds >= 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    usage(argv[0]);
    return 2;
  }
  // The seed generates kInputSets input sets (jitter and order seeds
  // seed * kInputSets + i), so one run's medians span several draws of the
  // inputs. The twin and the traced run use the first set.
  std::vector<Workload> inputs;
  try {
    for (std::uint64_t set = 0; set < kInputSets; ++set) {
      inputs.push_back(
          make_workload(args.workload, args.seed * kInputSets + set));
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s\n", error.what());
    usage(argv[0]);
    return 2;
  }
  std::filesystem::create_directories(args.out);
  std::printf("workload  : %s, seed %llu, %s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.trace ? "traced" : "timed");

  Tally tally;
  SpanRecorder spans;
  std::vector<Metric> metrics =
      args.trace ? traced_run(inputs.front(), args, tally, spans)
                 : timed_run(inputs, args, tally);
  {
    // After the measurements, so the twin's byte-true heap does not shape
    // the peak RSS they report.
    TwinResult twin = run_twin(inputs.front(), args.twin_fault);
    tally.attempted += twin.attempted;
    tally.failed += twin.failed;
    tally.errors.insert(tally.errors.end(), twin.errors.begin(),
                        twin.errors.end());
  }
  if (!args.trace && !metrics.empty()) {
    metrics.push_back({"ok_ratio",
                       static_cast<double>(tally.attempted - tally.failed) /
                           tally.attempted,
                       "ratio"});
  }

  for (const std::string& error : tally.errors) {
    std::printf("FAILED    : %s\n", error.c_str());
  }
  for (const Metric& metric : metrics) {
    std::printf("%-24s %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  const bool correct = tally.failed == 0 && !metrics.empty();
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              correct ? "true" : "false", tally.attempted, tally.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
