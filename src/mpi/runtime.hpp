// SPMD runtime: World owns the simulated machine, Rank is the per-process
// handle a simulated MPI program receives.
//
// Usage:
//   World world(machine::MachineModel::jaguar(64));
//   world.run([&](Rank& self) { ... ordinary blocking MPI-style code ... });
//
// Every rank runs the same function on its own fiber; the World collects
// each rank's time breakdown when the program finishes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/fault.hpp"
#include "machine/machine_model.hpp"
#include "mpi/comm.hpp"
#include "mpi/timecat.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"

namespace parcoll::fs {
class LustreSim;
class IntegrityManager;
struct IntegrityConfig;
enum class StoreMode;
}  // namespace parcoll::fs

namespace parcoll::obs {
class MetricsRegistry;
class TimeSeriesSampler;
}  // namespace parcoll::obs

namespace parcoll::check {
class InvariantChecker;
}  // namespace parcoll::check

namespace parcoll::mpi {

class P2PEngine;
class CollEngine;
class Rank;
class Tracer;

class World {
 public:
  /// `byte_true` selects the file-system payload mode: true stores and
  /// verifies real bytes (tests), false tracks extents only (large benches).
  explicit World(machine::MachineModel model, bool byte_true = true);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Run the SPMD `program` on every rank to completion. One run per World.
  void run(std::function<void(Rank&)> program);

  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] P2PEngine& p2p() { return *p2p_; }
  [[nodiscard]] CollEngine& colls() { return *colls_; }
  [[nodiscard]] fs::LustreSim& fs() { return *fs_; }
  [[nodiscard]] const machine::MachineModel& model() const { return model_; }
  [[nodiscard]] Comm world_comm() const { return world_comm_; }
  [[nodiscard]] int nranks() const { return model_.topology.nranks(); }

  /// Virtual time at which the last rank finished (valid after run()).
  [[nodiscard]] double elapsed() const { return elapsed_; }

  /// True when the file system stores real bytes (tests) rather than
  /// phantom extents (benches). Protocol engines consult this to decide
  /// whether to materialize exchange buffers.
  [[nodiscard]] bool byte_true() const { return byte_true_; }

  /// Record per-rank time intervals for this run (call before run()).
  /// Returns the tracer to query afterwards.
  Tracer& enable_tracing();
  [[nodiscard]] Tracer* tracer() { return tracer_.get(); }

  /// Collect counters/gauges/quantiles for this run (call before run()).
  /// Null when disabled: every instrumentation site guards with
  /// `if (auto* m = world.metrics())`, so the off path costs one pointer
  /// test and cannot perturb simulated time.
  obs::MetricsRegistry& enable_metrics();
  [[nodiscard]] obs::MetricsRegistry* metrics() { return metrics_.get(); }

  /// Turn on time-series telemetry, sampled every `interval` seconds of
  /// virtual time (call before run()). Registers the standard probes:
  /// engine event throughput, per-OST queue depth / in-flight bytes /
  /// utilization, and per-rank blocked-time categories; model layers
  /// created later (burst-buffer stores) add their own. Null when disabled
  /// — no tick is ever scheduled, so unsampled runs stay bit-identical.
  obs::TimeSeriesSampler& enable_sampler(double interval);
  [[nodiscard]] obs::TimeSeriesSampler* sampler() { return sampler_.get(); }

  /// Per-tenant attribution: name the job that client id `client` (a rank,
  /// or a synthetic drain/scrub client) belongs to. `set_job_all` tags
  /// every rank at once. Tags flow into fs-layer accounting ("{job=...}"
  /// metric slices) and the folded-stack exporter.
  void set_job(int client, const std::string& job);
  void set_job_all(const std::string& job);
  [[nodiscard]] const std::string& job_of(int client) const;
  [[nodiscard]] const std::vector<std::string>& client_jobs() const {
    return client_jobs_;
  }

  /// Live per-rank time-breakdown registry for the sampler (the accounts
  /// live on rank fiber stacks; registration bounds their visibility).
  /// First-wins: a helper Rank sharing the id of a live main Rank is not
  /// registered (returns false), so its teardown cannot blind the sampler.
  bool register_times(int rank, const TimeBreakdown* times);
  void unregister_times(int rank, const TimeBreakdown* times);

  /// Install a collective-correctness observer (non-owning; call before
  /// run()). Null when absent: every hook site guards with
  /// `if (auto* chk = world.checker())`, so normal runs pay one pointer
  /// test and the checker cannot perturb simulated time (it never sleeps).
  void set_checker(check::InvariantChecker* checker) { checker_ = checker; }
  [[nodiscard]] check::InvariantChecker* checker() { return checker_; }

  /// Turn on the end-to-end checksum pipeline (idempotent; the first
  /// caller's config wins, matching MPI-IO hint semantics where the first
  /// opener's hints establish the file's shared state). Null when
  /// disabled: every hook site guards with `if (auto* integ =
  /// world.integrity())`, keeping the off path bit-identical.
  fs::IntegrityManager& enable_integrity(const fs::IntegrityConfig& config);
  [[nodiscard]] fs::IntegrityManager* integrity() { return integrity_.get(); }

  /// Install a fault plan (call before run()). An empty plan is never
  /// installed, so the fault-free path stays free of fault bookkeeping.
  void set_fault(const fault::FaultPlan& plan);
  [[nodiscard]] const fault::FaultPlan* fault_plan() const {
    return fault_plan_.get();
  }
  [[nodiscard]] fault::FaultState& fault_state() { return fault_state_; }
  /// Rank-local fault counters ({} when no plan is installed).
  [[nodiscard]] fault::FaultCounters fault_counters(int rank) const {
    return fault_state_.of(rank);
  }

  /// Per-rank time breakdowns (valid after run()).
  [[nodiscard]] const std::vector<TimeBreakdown>& rank_times() const {
    return rank_times_;
  }

  /// Named shared objects: comm-wide state that all ranks of a collective
  /// operation need to share (e.g. an open file's common info). The first
  /// caller's factory creates the object; later callers get the same one.
  template <typename T, typename Make>
  std::shared_ptr<T> shared_object(const std::string& key, Make&& make) {
    auto it = objects_.find(key);
    if (it == objects_.end()) {
      it = objects_.emplace(key, make()).first;
    }
    return std::static_pointer_cast<T>(it->second);
  }

 private:
  void schedule_scrub(double at);
  void schedule_sample(double at);

  machine::MachineModel model_;
  sim::Engine engine_;
  net::Network network_;
  std::unique_ptr<P2PEngine> p2p_;
  std::unique_ptr<CollEngine> colls_;
  std::unique_ptr<fs::LustreSim> fs_;
  Comm world_comm_;
  std::vector<TimeBreakdown> rank_times_;
  // Declared before objects_ so shared model objects (burst-buffer stores)
  // can deregister their probes from a still-alive sampler on teardown.
  std::unique_ptr<obs::TimeSeriesSampler> sampler_;
  std::vector<const TimeBreakdown*> live_times_;
  std::vector<std::string> client_jobs_;
  std::unordered_map<std::string, std::shared_ptr<void>> objects_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  check::InvariantChecker* checker_ = nullptr;
  std::unique_ptr<fs::IntegrityManager> integrity_;
  std::unique_ptr<fault::FaultPlan> fault_plan_;
  fault::FaultState fault_state_;
  double elapsed_ = 0.0;
  bool ran_ = false;
  bool byte_true_ = true;
};

/// The per-process handle: identity, clock access, and time accounting.
/// Constructed by World::run on each rank's fiber; never copied.
class Rank {
 public:
  Rank(World& world, int rank);
  ~Rank();

  Rank(const Rank&) = delete;
  Rank& operator=(const Rank&) = delete;

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return world_.nranks(); }
  [[nodiscard]] int node() const {
    return world_.model().topology.node_of(rank_);
  }
  [[nodiscard]] World& world() { return world_; }
  [[nodiscard]] sim::Engine& engine() { return world_.engine(); }
  [[nodiscard]] TimeAccount& times() { return times_; }
  [[nodiscard]] Comm comm_world() const { return world_.world_comm(); }
  [[nodiscard]] sim::ProcId pid() const { return pid_; }
  [[nodiscard]] double now() const { return world_.engine().now(); }

  /// Spend `seconds` of virtual time, charged to `cat`.
  void busy(TimeCat cat, double seconds);

  /// Charge a memory-bandwidth-bound operation over `bytes` as Compute.
  void touch_bytes(double bytes);

  /// Per-communicator collective sequence number (MPI ordering guarantee:
  /// all members call collectives on a communicator in the same order).
  std::uint64_t next_coll_seq(std::uint64_t context_id) {
    return coll_seq_[context_id]++;
  }
  /// The sequence number the next collective on `context_id` will take,
  /// without taking it: equal on every member between two collectives.
  [[nodiscard]] std::uint64_t coll_seq(std::uint64_t context_id) const {
    const auto it = coll_seq_.find(context_id);
    return it == coll_seq_.end() ? 0 : it->second;
  }

  /// Apply any scheduled fault-plan stall for this rank that is due at the
  /// current virtual time. Called at synchronization points; each scheduled
  /// stall fires at most once. No-op without an installed plan.
  void maybe_fault_stall();

 private:
  World& world_;
  int rank_;
  sim::ProcId pid_;
  TimeAccount times_;
  std::unordered_map<std::uint64_t, std::uint64_t> coll_seq_;
  std::vector<char> stalls_applied_;
};

}  // namespace parcoll::mpi
