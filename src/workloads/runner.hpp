// Experiment runner: one place that turns (workload, implementation,
// machine) into the numbers the paper's figures plot.
//
// A RunResult reports each count from its one owner: the file's close-time
// FileStats (`stats`), the world's FaultCounters (`faults`), and — when
// metrics are on — the registry's own instruments (`metrics`).
// run_result_json exports them under "stats", "faults" and "metrics".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "dtype/datatype.hpp"
#include "fault/fault.hpp"
#include "fs/stripe.hpp"
#include "machine/machine_model.hpp"
#include "mpi/runtime.hpp"
#include "mpi/timecat.hpp"
#include "mpi/trace.hpp"
#include "mpiio/hints.hpp"
#include "mpiio/stats.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "sim/engine.hpp"
#include "sim/schedule.hpp"

namespace parcoll::check {
class InvariantChecker;
}  // namespace parcoll::check

namespace parcoll::mpiio {
class FileHandle;
}  // namespace parcoll::mpiio

namespace parcoll::workloads {

/// Which I/O implementation a run exercises. The paper's series names:
///   "Cray"          -> Ext2ph (plain extended two-phase, default hints)
///   "ParColl-N"     -> ParColl with N subgroups
///   "Cray w/o Coll" -> PosixIndependent
enum class Impl {
  PosixIndependent,  // one blocking call per contiguous extent
  Sieving,           // ROMIO data-sieving independent I/O (locked RMW)
  Independent,       // batched independent I/O (pipelined RPCs)
  Ext2ph,            // collective, plain extended two-phase
  ParColl,           // collective, partitioned (needs parcoll_groups)
};

[[nodiscard]] const char* to_string(Impl impl);

struct RunSpec {
  Impl impl = Impl::Ext2ph;
  int parcoll_groups = 0;  // ParColl-N
  int min_group_size = 8;  // paper: "a least group size of 8"
  bool view_switch = true;
  bool persistent_groups = true;
  int cb_nodes = 0;  // 0 = all nodes
  std::vector<int> cb_node_list;
  std::uint64_t cb_buffer_size = 4ull << 20;
  /// Move and verify real bytes (tests) or run phantom payloads (benches).
  bool byte_true = false;
  /// Record per-rank time intervals; the result carries the trace.
  bool trace = false;
  /// Record counters/gauges/quantiles; the result carries the registry.
  bool metrics = false;
  /// Virtual-time telemetry sampling interval in seconds; 0 (the default)
  /// disables the sampler entirely, keeping the run bit-identical. When
  /// set, the result carries the timeline snapshot. A NaN, infinite or
  /// negative interval throws std::invalid_argument before the run.
  double sample_interval = 0;
  /// Tenant name applied to every rank of the run ("" = untagged). Flows
  /// into per-job metric slices and the folded-stack exporter.
  std::string job;
  machine::Mapping mapping = machine::Mapping::Block;
  /// Processes per physical node (the paper's dual-core PEs).
  int cores_per_node = 2;
  /// Two-level collective I/O: aggregate requests within each node before
  /// the inter-node exchange. Off keeps the historical single-level runs.
  node::IntranodeMode intranode = node::IntranodeMode::Off;
  node::LeaderPolicy intranode_leader = node::LeaderPolicy::Lowest;
  /// Burst-buffer staging tier (disabled keeps the historical direct
  /// writes; see bb/options.hpp for the policy knobs).
  bb::BbConfig bb;
  /// End-to-end checksum pipeline (Off keeps the historical runs
  /// bit-identical; see fs/integrity.hpp for the knobs).
  fs::IntegrityConfig integrity;
  /// Optional calibration tweak applied to the machine model before a run.
  std::function<void(machine::MachineModel&)> tweak_model;
  /// Deterministic fault plan injected into the run (empty = fault-free;
  /// an empty plan leaves the run bit-for-bit identical to no plan).
  fault::FaultPlan fault;
  /// Event tie-break policy. Program order (the default) keeps the engine's
  /// historical fast path; Random/Dfs make the run a model-checking probe.
  sim::SchedulePolicy schedule;
  /// Non-owning invariant sink; null (the default) disables all hooks.
  check::InvariantChecker* checker = nullptr;
  /// Per-rank fiber stack size in bytes; 0 keeps the engine default
  /// (Engine::kDefaultStackBytes). Values below Engine::kMinStackBytes are
  /// rejected with std::invalid_argument before any fiber is spawned.
  std::size_t stack_bytes = 0;

  [[nodiscard]] mpiio::Hints hints() const;
  [[nodiscard]] machine::MachineModel model(int nranks) const;
};

struct RunResult {
  double elapsed = 0;        // virtual seconds of the measured I/O phase
  /// Virtual seconds until everything (including trailing burst-buffer
  /// drains and timers) went quiet: the time-to-durability of the run.
  /// Equals the wall clock at collect time; without bb it tracks the
  /// workload's own span.
  double total_elapsed = 0;
  std::uint64_t bytes = 0;   // total bytes moved by the measured phase
  mpi::TimeBreakdown sum;    // per-category time, summed over ranks
  mpiio::FileStats stats;    // the file's close-time summary
  bool verified = false;     // byte-true runs: did the file audit pass
  std::uint64_t fs_rpcs = 0;          // RPCs served across OSTs
  std::uint64_t fs_lock_switches = 0; // DLM revocations across OSTs
  std::shared_ptr<mpi::Tracer> trace; // set when RunSpec::trace was on
  /// Set when RunSpec::metrics was on: the registry's own instruments
  /// (quantiles, per-OST/per-subgroup series, job slices). The file's
  /// counts are in `stats`, the fault counts in `faults`.
  std::shared_ptr<obs::MetricsRegistry> metrics;
  /// Set when RunSpec::sample_interval was > 0: the run's time-series
  /// telemetry snapshot (per-OST pressure, bb occupancy, per-rank time).
  std::shared_ptr<obs::TimeSeries> timeline;
  /// Rank -> job table of the run (empty when no tenant tags were set).
  std::vector<std::string> jobs;
  fault::FaultCounters faults;        // degraded-mode events, all ranks
  std::string schedule_token;         // replay token of the executed schedule
  std::uint64_t choice_points = 0;    // equal-time ties the policy resolved
  /// MemoryStore content digest at collect time (0 for phantom stores);
  /// equal digests mean byte-identical file contents across runs.
  std::uint64_t file_digest = 0;
  /// Engine self-instrumentation (events, throughput, queue and stack-pool
  /// behavior) snapshotted at collect time.
  sim::EngineStats engine;

  [[nodiscard]] double bandwidth() const {
    return elapsed > 0 ? static_cast<double>(bytes) / elapsed : 0.0;
  }
  [[nodiscard]] double bandwidth_mib() const {
    return bandwidth() / (1024.0 * 1024.0);
  }
  /// Share of summed rank time spent in synchronization (the paper's
  /// collective-wall metric, Fig. 1/2/8).
  [[nodiscard]] double sync_fraction() const {
    const double total = sum.total();
    return total > 0 ? sum[mpi::TimeCat::Sync] / total : 0.0;
  }
};

/// Issue one call through the entry point `spec.impl` names: posix_*_at,
/// sieve_*_at, FileHandle::write_at/read_at, or core::write_at_all/
/// read_at_all (Ext2ph and ParColl differ only in their hints).
void transfer(const RunSpec& spec, mpiio::FileHandle& file, bool write,
              std::uint64_t offset, void* buffer, std::uint64_t count,
              const dtype::Datatype& memtype);

/// The skeleton every run_* driver shares: a World with the spec's fault
/// plan and observers, the measured-phase clock, the byte-true audit
/// verdict, and rank 0's close-time file stats. A driver supplies only the
/// per-rank body.
class Driver {
 public:
  /// Run `rank_main` on every rank, then collect the result of a measured
  /// phase that moved `bytes` in total.
  static RunResult run(
      int nranks, const RunSpec& spec, std::uint64_t bytes,
      const std::function<void(mpi::Rank&, Driver&)>& rank_main);

  /// The measured phase: everyone starts after a barrier on `comm`, and
  /// the phase ends when the last rank leaves the closing barrier.
  void measure(mpi::Rank& self, const mpi::Comm& comm,
               const std::function<void()>& phase);
  /// After the rank closed its file (close drains staged burst-buffer data,
  /// so the store is final): fold in its audit verdict, and keep rank 0's
  /// close-time stats.
  void report(mpi::Rank& self, const mpiio::FileStats& stats, bool verified);
  /// True if the stored bytes over `extents` carry the verification
  /// pattern (needs a byte-true run).
  [[nodiscard]] static bool stored(mpi::Rank& self, int fs_id,
                                   std::span<const fs::Extent> extents,
                                   std::uint64_t salt);

 private:
  Driver() = default;
  Driver(const Driver&) = delete;  // every rank's fiber holds it
  Driver& operator=(const Driver&) = delete;

  double t0_ = 0;
  double t1_ = 0;
  bool started_ = false;
  bool verified_ = true;
  mpiio::FileStats stats_;
};

/// The result's "parcoll-run" JSON fragment (elapsed, bandwidth, time
/// breakdown, file stats, fault counters, metrics dump when present).
[[nodiscard]] obs::JsonValue run_result_json(const RunResult& result);

}  // namespace parcoll::workloads
