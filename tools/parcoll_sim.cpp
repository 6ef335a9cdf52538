// parcoll_sim — command-line driver for the simulator.
//
// Runs one workload under one I/O implementation on the simulated machine
// and reports bandwidth, the time breakdown, and the file summary.
//
// Examples:
//   parcoll_sim --workload tileio --nprocs 512 --impl parcoll --groups 64
//   parcoll_sim --workload ior --nprocs 128 --impl ext2ph
//   parcoll_sim --workload btio --nprocs 256 --impl parcoll --groups auto 
//               --cb-nodes 16
//   parcoll_sim --workload flash --nprocs 256 --impl sieving
//   parcoll_sim --workload tileio --nprocs 32 --impl parcoll --groups 4
//               --trace trace.csv --gantt
//   parcoll_sim --workload ior --nprocs 64 --impl parcoll
//               --fault "seed=7;ost-outage=3:0.05:0.4;rpc-drop=0.02"
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "core/file_area.hpp"
#include "fault/fault.hpp"
#include "mpi/trace.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/folded.hpp"
#include "obs/run_export.hpp"
#include "obs/timeseries.hpp"
#include "obs/wall_report.hpp"
#include "workloads/btio.hpp"
#include "workloads/flashio.hpp"
#include "workloads/ior.hpp"
#include "workloads/tileio.hpp"

namespace {

using namespace parcoll;
using workloads::Impl;
using workloads::RunResult;
using workloads::RunSpec;

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --workload tileio|ior|btio|flash|flash-plot   (default tileio)\n"
      "  --nprocs N              simulated MPI processes (default 64)\n"
      "  --impl ext2ph|parcoll|independent|posix|sieving (default ext2ph)\n"
      "  --groups N|auto         ParColl subgroup count (default auto)\n"
      "  --min-group-size N      least subgroup size (default 8)\n"
      "  --no-view-switch        disable the intermediate file view\n"
      "  --no-persistent-groups  re-partition on every collective call\n"
      "  --cb-nodes N            aggregator nodes (default: all processes)\n"
      "  --cb-buffer BYTES       collective buffer size (default 4 MiB)\n"
      "  --cores-per-node N      processes per physical node (default 2)\n"
      "  --mapping block|cyclic  rank-to-node placement (default block)\n"
      "  --intranode MODE        two-level intra-node aggregation:\n"
      "                          on|off|auto (default auto)\n"
      "  --no-intranode          shorthand for --intranode off\n"
      "  --leader lowest|spread  intra-node leader selection (default lowest)\n"
      "  --bb                    enable the node-local burst-buffer staging\n"
      "                          tier (writes return once staged; drains\n"
      "                          write behind to Lustre)\n"
      "  --bb-capacity BYTES     staging capacity per node (default 256 MiB)\n"
      "  --bb-drain POLICY       write-behind policy: immediate|watermark|\n"
      "                          deadline|arbitrate (default immediate)\n"
      "  --integrity LEVEL       end-to-end checksum pipeline: off|detect|\n"
      "                          repair (default off; repair heals detected\n"
      "                          corruption from the retained replica)\n"
      "  --integrity-block BYTES checksum block granularity (default 64 KiB)\n"
      "  --no-scrub              disable the background scrubber that walks\n"
      "                          the store after latent media corruption\n"
      "  --read                  measure collective read instead of write\n"
      "  --steps N               BT-IO time steps (default 3)\n"
      "  --nvars N               Flash variables (default 24)\n"
      "  --osts N                storage targets (default 72)\n"
      "  --seed N                jitter seed (default 42)\n"
      "  --stack-bytes N         per-rank fiber stack size in bytes\n"
      "                          (default 64 KiB; 256 KiB under sanitizers;\n"
      "                          minimum 16 KiB)\n"
      "  --engine-stats          print engine self-instrumentation (events/s,\n"
      "                          queue depth, stack pool, peak RSS)\n"
      "  --schedule-seed N       explore a seeded-random event tie-break\n"
      "                          schedule instead of program order\n"
      "  --schedule-replay TOK   replay a schedule token (p, r<seed>, or\n"
      "                          d<c0>.<c1>..., as printed by failures and\n"
      "                          parcoll_check violations)\n"
      "  --byte-true             store and audit real file bytes (slower;\n"
      "                          enables the content digest in --json)\n"
      "  --trace FILE.csv        write a per-rank interval trace\n"
      "  --trace-json FILE.json  write a Chrome trace-event file (load in\n"
      "                          Perfetto / chrome://tracing; implies tracing)\n"
      "  --gantt                 print a text timeline (implies tracing)\n"
      "  --wall-report           print the collective-wall report: per-cycle\n"
      "                          sync attributed to the straggler rank, the\n"
      "                          busiest OSTs, and the latency quantiles\n"
      "                          (implies tracing and metrics)\n"
      "  --json FILE.json        write the parcoll-run document (result,\n"
      "                          metrics, wall report; implies tracing and\n"
      "                          metrics)\n"
      "  --sample-interval S     sample time-series telemetry every S virtual\n"
      "                          seconds (per-OST queue depth, bb occupancy,\n"
      "                          per-rank time, events/s); 0 = off (default)\n"
      "  --timeline FILE.json    write the sampled timeline document (implies\n"
      "                          --sample-interval 1e-3 if unset)\n"
      "  --top                   print the per-interval parcoll_top report\n"
      "                          (implies --sample-interval 1e-3 if unset)\n"
      "  --folded FILE           write collapsed stacks for flamegraph.pl /\n"
      "                          inferno (implies tracing)\n"
      "  --job NAME              tag every rank with tenant NAME; metrics\n"
      "                          gain {job=NAME} slices and folded stacks a\n"
      "                          job: root frame\n"
      "  --fault SPEC            deterministic fault plan, e.g.\n"
      "                          \"seed=7;ost-outage=3:0.05:0.4;rpc-drop=0.02;"
      "rank-stall=5:0:0.2\"\n"
      "                          (keys: seed, ost-outage=OST:BEGIN:END,\n"
      "                           ost-degrade=OST:BEGIN:END:FACTOR,\n"
      "                           rank-stall=RANK:AT:DURATION, rpc-drop=P,\n"
      "                           rpc-delay=PROB:SECONDS, rpc-corrupt=P,\n"
      "                           bb-corrupt=P, media-corrupt=OST:AT,\n"
      "                           timeout=T, backoff=BASE:MAX, max-retries=N,\n"
      "                           agg-stall-threshold=T)\n",
      argv0);
}

int parse_groups(const std::string& value) {
  if (value == "auto") return core::kAutoGroups;
  return std::stoi(value);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload = "tileio";
  std::string impl = "ext2ph";
  int nprocs = 64;
  int groups = core::kAutoGroups;
  int steps = 3;
  int nvars = 24;
  bool write = true;
  bool gantt = false;
  bool wall_report = false;
  bool engine_stats = false;
  bool top = false;
  std::string trace_path;
  std::string trace_json_path;
  std::string json_path;
  std::string timeline_path;
  std::string folded_path;
  RunSpec spec;
  spec.byte_true = false;
  spec.intranode = node::IntranodeMode::Auto;
  int osts = 0;
  std::uint64_t seed = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = next();
    } else if (arg == "--nprocs") {
      nprocs = std::stoi(next());
    } else if (arg == "--impl") {
      impl = next();
    } else if (arg == "--groups") {
      groups = parse_groups(next());
    } else if (arg == "--min-group-size") {
      spec.min_group_size = std::stoi(next());
    } else if (arg == "--no-view-switch") {
      spec.view_switch = false;
    } else if (arg == "--no-persistent-groups") {
      spec.persistent_groups = false;
    } else if (arg == "--cb-nodes") {
      spec.cb_nodes = std::stoi(next());
    } else if (arg == "--cb-buffer") {
      spec.cb_buffer_size = std::stoull(next());
    } else if (arg == "--cores-per-node") {
      spec.cores_per_node = std::stoi(next());
    } else if (arg == "--mapping") {
      const std::string value = next();
      if (value == "block") {
        spec.mapping = machine::Mapping::Block;
      } else if (value == "cyclic") {
        spec.mapping = machine::Mapping::Cyclic;
      } else {
        std::fprintf(stderr, "bad --mapping (block|cyclic): %s\n",
                     value.c_str());
        return 2;
      }
    } else if (arg == "--intranode") {
      try {
        spec.intranode = node::parse_intranode_mode(next());
      } catch (const std::exception& error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 2;
      }
    } else if (arg == "--no-intranode") {
      spec.intranode = node::IntranodeMode::Off;
    } else if (arg == "--leader") {
      try {
        spec.intranode_leader = node::parse_leader_policy(next());
      } catch (const std::exception& error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 2;
      }
    } else if (arg == "--bb") {
      spec.bb.enabled = true;
    } else if (arg == "--bb-capacity") {
      spec.bb.enabled = true;
      spec.bb.capacity = std::stoull(next());
    } else if (arg == "--bb-drain") {
      try {
        spec.bb.enabled = true;
        spec.bb.policy = bb::parse_drain_policy(next());
      } catch (const std::exception& error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 2;
      }
    } else if (arg == "--integrity") {
      try {
        spec.integrity.level = fs::parse_integrity_level(next());
      } catch (const std::exception& error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 2;
      }
    } else if (arg == "--integrity-block") {
      spec.integrity.block = std::stoull(next());
    } else if (arg == "--no-scrub") {
      spec.integrity.scrub = false;
    } else if (arg == "--read") {
      write = false;
    } else if (arg == "--steps") {
      steps = std::stoi(next());
    } else if (arg == "--nvars") {
      nvars = std::stoi(next());
    } else if (arg == "--osts") {
      osts = std::stoi(next());
    } else if (arg == "--seed") {
      seed = std::stoull(next());
    } else if (arg == "--stack-bytes") {
      spec.stack_bytes = std::stoull(next());
      if (spec.stack_bytes < sim::Engine::kMinStackBytes) {
        std::fprintf(stderr,
                     "--stack-bytes %zu is below the %zu-byte safety floor "
                     "(deep collective call chains overflow smaller stacks)\n",
                     spec.stack_bytes, sim::Engine::kMinStackBytes);
        return 2;
      }
    } else if (arg == "--engine-stats") {
      engine_stats = true;
    } else if (arg == "--schedule-seed") {
      spec.schedule = sim::SchedulePolicy::random(std::stoull(next()));
    } else if (arg == "--schedule-replay") {
      try {
        spec.schedule = sim::SchedulePolicy::parse(next());
      } catch (const std::exception& error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 2;
      }
    } else if (arg == "--byte-true") {
      spec.byte_true = true;
    } else if (arg == "--fault") {
      try {
        spec.fault = fault::FaultPlan::parse(next());
      } catch (const std::exception& error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 2;
      }
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--trace-json") {
      trace_json_path = next();
    } else if (arg == "--gantt") {
      gantt = true;
    } else if (arg == "--wall-report") {
      wall_report = true;
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--sample-interval") {
      spec.sample_interval = std::stod(next());
      if (!std::isfinite(spec.sample_interval) || spec.sample_interval < 0) {
        std::fprintf(stderr, "--sample-interval must be finite and >= 0\n");
        return 2;
      }
    } else if (arg == "--timeline") {
      timeline_path = next();
    } else if (arg == "--top") {
      top = true;
    } else if (arg == "--folded") {
      folded_path = next();
    } else if (arg == "--job") {
      spec.job = next();
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  if (impl == "ext2ph") {
    spec.impl = Impl::Ext2ph;
  } else if (impl == "parcoll") {
    spec.impl = Impl::ParColl;
    spec.parcoll_groups = groups;
  } else if (impl == "independent") {
    spec.impl = Impl::Independent;
  } else if (impl == "posix") {
    spec.impl = Impl::PosixIndependent;
  } else if (impl == "sieving") {
    spec.impl = Impl::Sieving;
  } else {
    std::fprintf(stderr, "unknown impl: %s\n", impl.c_str());
    return 2;
  }
  if (osts > 0 || seed > 0) {
    spec.tweak_model = [osts, seed](machine::MachineModel& model) {
      if (osts > 0) {
        model.storage.num_osts = osts;
        model.storage.default_stripe_count = std::min(64, osts);
      }
      if (seed > 0) model.storage.seed = seed;
    };
  }
  spec.trace = gantt || wall_report || !trace_path.empty() ||
               !trace_json_path.empty() || !json_path.empty() ||
               !folded_path.empty();
  if ((!timeline_path.empty() || top) && spec.sample_interval <= 0) {
    spec.sample_interval = 1e-3;  // a sensible default tick for exports
  }
  // Sampling implies metrics so the timeline document can carry the
  // latency quantile summaries next to the series.
  spec.metrics =
      !json_path.empty() || wall_report || spec.sample_interval > 0;

  RunResult result;
  try {
  if (workload == "tileio") {
    result = workloads::run_tileio(workloads::TileIOConfig::paper(nprocs),
                                   nprocs, spec, write);
  } else if (workload == "ior") {
    result = workloads::run_ior(workloads::IorConfig{}, nprocs, spec, write);
  } else if (workload == "btio") {
    workloads::BtIOConfig config;
    config.nsteps = steps;
    result = workloads::run_btio(config, nprocs, spec, write);
  } else if (workload == "flash" || workload == "flash-plot") {
    auto config = workload == "flash"
                      ? workloads::FlashConfig::checkpoint()
                      : workloads::FlashConfig::plotfile_centered();
    config.nvars = std::min(nvars, config.nvars);
    result = workloads::run_flashio(config, nprocs, spec, write);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", workload.c_str());
    return 2;
  }
  } catch (const std::exception& error) {
    // Bad hints (validated at open) and model misconfigurations surface
    // here; report them as a usage error instead of terminating.
    std::fprintf(stderr, "%s\n", error.what());
    return 2;
  }

  std::printf("workload  : %s (%s, %d procs)\n", workload.c_str(),
              write ? "write" : "read", nprocs);
  std::printf("impl      : %s", impl.c_str());
  if (spec.impl == Impl::ParColl) {
    std::printf(" (groups used: %d%s)", result.stats.last_num_groups,
                result.stats.view_switches ? ", intermediate views" : "");
  }
  if (result.stats.intranode_calls > 0) {
    std::printf(" (two-level: %llu calls, %.1f MiB intra-node)",
                static_cast<unsigned long long>(result.stats.intranode_calls),
                static_cast<double>(result.stats.intranode_bytes) / (1 << 20));
  }
  std::printf("\n");
  std::printf("bytes     : %.1f MiB\n",
              static_cast<double>(result.bytes) / (1 << 20));
  std::printf("elapsed   : %.4f s (virtual)\n", result.elapsed);
  std::printf("bandwidth : %.1f MiB/s\n", result.bandwidth_mib());
  const double total = result.sum.total();
  std::printf("breakdown : compute %.1f%%  p2p %.1f%%  sync %.1f%%  io %.1f%%"
              "  faulted %.1f%%  intra %.1f%%",
              100 * result.sum[mpi::TimeCat::Compute] / total,
              100 * result.sum[mpi::TimeCat::P2P] / total,
              100 * result.sum[mpi::TimeCat::Sync] / total,
              100 * result.sum[mpi::TimeCat::IO] / total,
              100 * result.sum[mpi::TimeCat::Faulted] / total,
              100 * result.sum[mpi::TimeCat::Intra] / total);
  if (result.sum[mpi::TimeCat::DrainWait] > 0) {
    std::printf("  dwait %.1f%%",
                100 * result.sum[mpi::TimeCat::DrainWait] / total);
  }
  std::printf("  (rank-seconds: %.2f)\n", total);
  if (spec.bb.enabled) {
    std::printf(
        "bb        : %s, staged %llu segs (%.1f MiB), spills %llu, "
        "hidden drain %.4fs, exposed wait %.4fs (%.1f%%), durable at %.4fs\n",
        bb::to_string(spec.bb.policy),
        static_cast<unsigned long long>(result.stats.bb_staged_segments),
        static_cast<double>(result.stats.bb_staged_bytes) / (1 << 20),
        static_cast<unsigned long long>(result.stats.bb_spills),
        result.stats.time[mpi::TimeCat::Drain],
        result.sum[mpi::TimeCat::DrainWait],
        100 * result.sum[mpi::TimeCat::DrainWait] / total,
        result.total_elapsed);
  }
  std::printf("fs        : %llu RPCs, %llu lock revocations\n",
              static_cast<unsigned long long>(result.fs_rpcs),
              static_cast<unsigned long long>(result.fs_lock_switches));
  if (engine_stats) {
    const sim::EngineStats& es = result.engine;
    std::printf(
        "engine    : %llu events (%.0f/s wall), queue peak %llu, "
        "%llu choice points\n",
        static_cast<unsigned long long>(es.events_executed),
        es.events_per_second(),
        static_cast<unsigned long long>(es.peak_queue_depth),
        static_cast<unsigned long long>(es.choice_points));
    std::printf(
        "fibers    : %llu spawned (peak %llu live), stacks %llu KiB: "
        "%llu allocated, %llu pooled; peak RSS %.1f MiB\n",
        static_cast<unsigned long long>(es.fibers_spawned),
        static_cast<unsigned long long>(es.peak_live_fibers),
        static_cast<unsigned long long>(es.default_stack_bytes / 1024),
        static_cast<unsigned long long>(es.stacks_allocated),
        static_cast<unsigned long long>(es.stacks_reused),
        static_cast<double>(sim::peak_rss_bytes()) / (1 << 20));
  }
  if (spec.schedule.kind != sim::TieBreak::Program) {
    std::printf("schedule  : %s (%llu choice points)\n",
                result.schedule_token.c_str(),
                static_cast<unsigned long long>(result.choice_points));
  }
  if (!spec.fault.empty()) {
    std::printf("fault plan: %s\n", spec.fault.describe().c_str());
    std::printf(
        "faults    : retries=%llu failovers=%llu drops=%llu delays=%llu "
        "reelections=%llu stalls=%llu faulted=%.4fs\n",
        static_cast<unsigned long long>(result.faults.retries),
        static_cast<unsigned long long>(result.faults.failovers),
        static_cast<unsigned long long>(result.faults.drops),
        static_cast<unsigned long long>(result.faults.delays),
        static_cast<unsigned long long>(result.faults.reelections),
        static_cast<unsigned long long>(result.faults.stalls),
        result.faults.faulted_seconds);
    if (result.faults.corrupt_injected > 0) {
      std::printf(
          "corruption: injected=%llu detected=%llu repaired=%llu "
          "scrub_repairs=%llu\n",
          static_cast<unsigned long long>(result.faults.corrupt_injected),
          static_cast<unsigned long long>(result.faults.corrupt_detected),
          static_cast<unsigned long long>(result.faults.corrupt_repaired),
          static_cast<unsigned long long>(result.faults.scrub_repairs));
    }
  }
  if (spec.integrity.enabled()) {
    std::printf(
        "integrity : %s, %llu blocks (%.1f MiB checksummed), %.4fs overhead, "
        "errors=%llu\n",
        fs::to_string(spec.integrity.level),
        static_cast<unsigned long long>(result.stats.integrity_blocks),
        static_cast<double>(result.stats.integrity_bytes) / (1 << 20),
        result.sum[mpi::TimeCat::Integrity],
        static_cast<unsigned long long>(result.stats.integrity_errors));
  }
  std::printf("%s\n", result.stats.summary(workload).c_str());
  if (result.trace) {
    if (!trace_path.empty()) {
      std::ofstream os(trace_path);
      result.trace->write_csv(os);
      std::size_t intervals = 0;
      for (const obs::Span& span : result.trace->spans().spans()) {
        intervals += span.kind == obs::SpanKind::Phase ? 1 : 0;
      }
      std::printf("trace     : %zu intervals -> %s\n", intervals,
                  trace_path.c_str());
    }
    if (!trace_json_path.empty()) {
      std::ofstream os(trace_json_path);
      obs::write_chrome_trace(os, result.trace->spans());
      std::printf("trace-json: %zu spans -> %s\n",
                  result.trace->spans().spans().size(),
                  trace_json_path.c_str());
    }
    if (gantt) {
      std::printf("%s", result.trace->gantt(96, 16).c_str());
    }
    if (wall_report) {
      const obs::WallReport report =
          obs::build_wall_report(result.trace->spans(), result.metrics.get());
      std::printf("%s", obs::format_wall_report(report).c_str());
    }
    if (!folded_path.empty()) {
      const std::string folded =
          obs::folded_stacks(result.trace->spans(), &result.jobs);
      std::ofstream os(folded_path);
      os << folded;
      std::printf("folded    : %llu ns total -> %s\n",
                  obs::folded_total_weight(folded), folded_path.c_str());
    }
  }
  if (result.timeline) {
    if (top) {
      std::printf("%s", obs::top_report(*result.timeline).c_str());
    }
    if (!timeline_path.empty()) {
      obs::JsonValue doc = result.timeline->to_json();
      if (result.metrics) {
        obs::JsonValue quantiles = obs::JsonValue::object();
        for (const auto& [name, hist] : result.metrics->quantiles()) {
          quantiles.set(name, hist.summary_json());
        }
        doc.set("quantiles", std::move(quantiles));
      }
      try {
        obs::write_json_file(timeline_path, doc);
      } catch (const std::exception& error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 1;
      }
      std::printf("timeline  : %zu samples x %zu series -> %s\n",
                  result.timeline->times_s.size(),
                  result.timeline->series.size(), timeline_path.c_str());
    }
  }
  if (!json_path.empty()) {
    obs::JsonValue config = obs::JsonValue::object();
    config.set("workload", workload)
        .set("impl", impl)
        .set("nprocs", nprocs)
        .set("groups", groups)
        .set("mode", write ? "write" : "read")
        .set("cores_per_node", spec.cores_per_node)
        .set("cb_nodes", spec.cb_nodes);
    if (!spec.fault.empty()) {
      config.set("fault", spec.fault.describe());
    }
    obs::JsonValue doc = obs::run_document("parcoll_sim", std::move(config));
    doc.set("result", workloads::run_result_json(result));
    if (result.trace) {
      doc.set("wall_report",
              obs::wall_report_json(obs::build_wall_report(
                  result.trace->spans(), result.metrics.get())));
    }
    if (result.timeline) {
      doc.set("timeline", result.timeline->to_json());
    }
    try {
      obs::write_json_file(json_path, doc);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "%s\n", error.what());
      return 1;
    }
    std::printf("json      : %s\n", json_path.c_str());
  }
  return 0;
}
