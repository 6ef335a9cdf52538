// Shared scaffolding for the figure-reproduction benches: table printing
// and the standard run configurations (series named as in the paper:
// "Cray" = plain ext2ph with default hints, "ParColl-N" = N subgroups,
// "Cray w/o Coll" = POSIX-style independent writes).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "obs/run_export.hpp"
#include "workloads/runner.hpp"

namespace parcoll::bench {

/// --smoke: CI runs every ablation as a tiny smoke test. Benches pass
/// their full process count through scaled(), which shrinks it when the
/// flag was given (full figures by default).
inline bool smoke_requested(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") return true;
  }
  return false;
}

inline int scaled(bool smoke, int full_nprocs) {
  return smoke ? std::max(8, full_nprocs / 8) : full_nprocs;
}

/// Like scaled(), but lands on a perfect square (BT-IO's sqrt(P) x sqrt(P)
/// process grid requirement survives the smoke shrink).
inline int scaled_square(bool smoke, int full_nprocs) {
  const int s = scaled(smoke, full_nprocs);
  int root = static_cast<int>(std::sqrt(static_cast<double>(s)));
  while ((root + 1) * (root + 1) <= s) ++root;
  return std::max(9, root * root);
}

inline void header(const std::string& figure, const std::string& caption) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure.c_str(), caption.c_str());
  std::printf("==============================================================\n");
}

inline void footnote(const std::string& text) {
  std::printf("  note: %s\n", text.c_str());
}

/// A row of the standard bandwidth table.
inline void row(const std::string& series, const workloads::RunResult& result) {
  std::printf("  %-22s %10.1f MiB/s  elapsed %8.3f s  sync %5.1f%%\n",
              series.c_str(), result.bandwidth_mib(), result.elapsed,
              100.0 * result.sync_fraction());
}

/// The per-category breakdown row (Fig. 2 style), seconds summed over ranks.
inline void breakdown_row(int nprocs, const workloads::RunResult& result) {
  using mpi::TimeCat;
  std::printf("  %6d %10.2f %10.2f %10.2f %10.2f %10.2f  %5.1f%%\n", nprocs,
              result.sum[TimeCat::Compute], result.sum[TimeCat::P2P],
              result.sum[TimeCat::Sync], result.sum[TimeCat::IO],
              result.sum.total(), 100.0 * result.sync_fraction());
}

/// Machine-readable bench export: `--json FILE` makes the bench write a
/// versioned "parcoll-run" document with one point per measured run, for
/// tools/bench_to_trajectory and the CI perf-trajectory job. Without the
/// flag every method is a no-op, so benches call add() unconditionally.
class BenchReport {
 public:
  BenchReport(std::string bench, int argc, char** argv)
      : bench_(std::move(bench)), points_(obs::JsonValue::array()) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::string(argv[i]) == "--json") path_ = argv[i + 1];
    }
    smoke_ = smoke_requested(argc, argv);
  }
  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  /// Record one measured point (series label + process count + result).
  /// `extras` are bench-specific top-level keys the trajectory folder
  /// keeps (e.g. abl_integrity's checksum_overhead_pct).
  void add(const std::string& series, int nprocs,
           const workloads::RunResult& result,
           const std::vector<std::pair<std::string, double>>& extras = {}) {
    if (path_.empty()) return;
    obs::JsonValue point = obs::JsonValue::object();
    point.set("series", series)
        .set("nprocs", nprocs)
        .set("bandwidth_mib_s", result.bandwidth_mib())
        .set("elapsed_s", result.elapsed)
        .set("sync_fraction", result.sync_fraction())
        .set("events", static_cast<double>(result.engine.events_executed))
        .set("peak_queue_depth",
             static_cast<double>(result.engine.peak_queue_depth))
        .set("stacks_allocated",
             static_cast<double>(result.engine.stacks_allocated))
        .set("result", workloads::run_result_json(result));
    if (result.stats.bb_staged_segments > 0 || result.stats.bb_spills > 0) {
      // Burst-buffer runs carry the write-behind trend signal too.
      point.set("durable_elapsed_s", result.total_elapsed)
          .set("drain_s", result.stats.time[mpi::TimeCat::Drain])
          .set("drain_wait_s", result.sum[mpi::TimeCat::DrainWait])
          .set("bb_spills", result.stats.bb_spills);
    }
    if (result.metrics) {
      // Tail-latency trend signal (virtual-time, so deterministic): the
      // RPC and collective-cycle quantiles, when the run recorded them.
      const auto& quantiles = result.metrics->quantiles();
      auto tail = [&](const char* name, const char* p50_key,
                      const char* p99_key) {
        const auto it = quantiles.find(name);
        if (it == quantiles.end() || it->second.count() == 0) return;
        point.set(p50_key, it->second.quantile(0.50));
        point.set(p99_key, it->second.quantile(0.99));
      };
      tail("fs.rpc.latency_s", "rpc_p50_s", "rpc_p99_s");
      tail("coll.cycle_s", "cycle_p50_s", "cycle_p99_s");
    }
    for (const auto& extra : extras) {
      point.set(extra.first, extra.second);
    }
    points_.push(std::move(point));
  }

  /// Record a host-side measurement with no simulated run behind it (the
  /// engine micro-benchmarks): only the series, process count and
  /// `extras`. Host seconds go under wall_s; elapsed_s is virtual time.
  void add_host(const std::string& series, int nprocs,
                const std::vector<std::pair<std::string, double>>& extras) {
    if (path_.empty()) return;
    obs::JsonValue point = obs::JsonValue::object();
    point.set("series", series).set("nprocs", nprocs);
    for (const auto& extra : extras) {
      point.set(extra.first, extra.second);
    }
    points_.push(std::move(point));
  }

  ~BenchReport() {
    if (path_.empty()) return;
    try {
      obs::JsonValue config = obs::JsonValue::object();
      config.set("smoke", smoke_);
      obs::JsonValue doc = obs::run_document(bench_, std::move(config));
      doc.set("points", std::move(points_));
      obs::write_json_file(path_, doc);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "bench json: %s\n", error.what());
    }
  }

 private:
  std::string bench_;
  std::string path_;
  bool smoke_ = false;
  obs::JsonValue points_;
};

// The standard specs run with metrics on: observers never advance the
// virtual clock, so the figures are unchanged, and every bench point gets
// the tail-latency quantiles (rpc_p50_s/rpc_p99_s/...) for the trajectory.

inline workloads::RunSpec baseline_spec() {
  workloads::RunSpec spec;
  spec.impl = workloads::Impl::Ext2ph;
  spec.byte_true = false;
  spec.metrics = true;
  return spec;
}

inline workloads::RunSpec parcoll_spec(int groups, int min_group_size = 8) {
  workloads::RunSpec spec;
  spec.impl = workloads::Impl::ParColl;
  spec.parcoll_groups = groups;
  spec.min_group_size = min_group_size;
  spec.byte_true = false;
  spec.metrics = true;
  return spec;
}

inline workloads::RunSpec posix_spec() {
  workloads::RunSpec spec;
  spec.impl = workloads::Impl::PosixIndependent;
  spec.byte_true = false;
  spec.metrics = true;
  return spec;
}

}  // namespace parcoll::bench
