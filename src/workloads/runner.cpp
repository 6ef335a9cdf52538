#include "workloads/runner.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/parcoll.hpp"
#include "fs/lustre.hpp"
#include "mpi/collectives.hpp"
#include "mpiio/independent.hpp"
#include "mpiio/sieve.hpp"
#include "obs/run_export.hpp"
#include "workloads/pattern.hpp"

namespace parcoll::workloads {

const char* to_string(Impl impl) {
  switch (impl) {
    case Impl::PosixIndependent:
      return "posix-independent";
    case Impl::Sieving:
      return "sieving";
    case Impl::Independent:
      return "independent";
    case Impl::Ext2ph:
      return "ext2ph";
    case Impl::ParColl:
      return "parcoll";
  }
  return "?";
}

mpiio::Hints RunSpec::hints() const {
  mpiio::Hints hints;
  hints.cb_buffer_size = cb_buffer_size;
  hints.cb_nodes = cb_nodes;
  hints.cb_node_list = cb_node_list;
  if (impl == Impl::ParColl) {
    hints.parcoll_num_groups = parcoll_groups;
  }
  hints.parcoll_min_group_size = min_group_size;
  hints.parcoll_view_switch = view_switch;
  hints.parcoll_persistent_groups = persistent_groups;
  hints.cb_intranode = intranode;
  hints.cb_intranode_leader = intranode_leader;
  hints.bb = bb;
  hints.integrity = integrity;
  return hints;
}

machine::MachineModel RunSpec::model(int nranks) const {
  machine::MachineModel model =
      machine::MachineModel::jaguar(nranks, mapping, cores_per_node);
  if (tweak_model) {
    tweak_model(model);
  }
  return model;
}

void transfer(const RunSpec& spec, mpiio::FileHandle& file, bool write,
              std::uint64_t offset, void* buffer, std::uint64_t count,
              const dtype::Datatype& memtype) {
  switch (spec.impl) {
    case Impl::PosixIndependent:
      write ? mpiio::posix_write_at(file, offset, buffer, count, memtype)
            : mpiio::posix_read_at(file, offset, buffer, count, memtype);
      break;
    case Impl::Sieving:
      write ? mpiio::sieve_write_at(file, offset, buffer, count, memtype)
            : mpiio::sieve_read_at(file, offset, buffer, count, memtype);
      break;
    case Impl::Independent:
      write ? file.write_at(offset, buffer, count, memtype)
            : file.read_at(offset, buffer, count, memtype);
      break;
    case Impl::Ext2ph:
    case Impl::ParColl:
      write ? core::write_at_all(file, offset, buffer, count, memtype)
            : core::read_at_all(file, offset, buffer, count, memtype);
      break;
  }
}

namespace {

/// Turn on the observers a spec asks for before World::run. A no-op for
/// the default spec, keeping the simulated run bit-identical to an
/// unobserved one.
void apply_observability(mpi::World& world, const RunSpec& spec) {
  if (spec.stack_bytes != 0) {
    // Before any rank fiber is spawned, so every stack gets the size (and
    // an invalid knob fails fast instead of mid-run).
    world.engine().set_default_stack_bytes(spec.stack_bytes);
  }
  if (spec.trace) {
    world.enable_tracing();
  }
  if (spec.metrics) {
    world.enable_metrics();
  }
  if (spec.sample_interval > 0) {
    world.enable_sampler(spec.sample_interval);
  }
  if (!spec.job.empty()) {
    world.set_job_all(spec.job);
  }
  if (spec.schedule.kind != sim::TieBreak::Program) {
    world.engine().set_schedule(spec.schedule);
  }
  if (spec.checker != nullptr) {
    world.set_checker(spec.checker);
  }
}

}  // namespace

RunResult Driver::run(
    int nranks, const RunSpec& spec, std::uint64_t bytes,
    const std::function<void(mpi::Rank&, Driver&)>& rank_main) {
  if (!std::isfinite(spec.sample_interval) || spec.sample_interval < 0) {
    throw std::invalid_argument(
        "RunSpec: sample_interval must be finite and >= 0 (got " +
        std::to_string(spec.sample_interval) + ")");
  }
  mpi::World world(spec.model(nranks), spec.byte_true);
  world.set_fault(spec.fault);
  apply_observability(world, spec);
  Driver driver;
  world.run([&](mpi::Rank& self) { rank_main(self, driver); });

  RunResult result;
  result.elapsed = driver.t1_ - driver.t0_;
  result.total_elapsed = world.elapsed();
  result.bytes = bytes;
  for (const mpi::TimeBreakdown& breakdown : world.rank_times()) {
    result.sum += breakdown;
  }
  result.stats = driver.stats_;
  result.verified = driver.verified_;
  auto& fs = world.fs();
  result.fs_rpcs = fs.total_rpcs();
  result.fs_lock_switches = fs.total_lock_switches();
  result.schedule_token = world.engine().schedule_token();
  result.choice_points = world.engine().choice_log().size();
  result.file_digest = fs.store().content_digest();
  result.engine = world.engine().stats();
  if (world.tracer() != nullptr) {
    result.trace = std::make_shared<mpi::Tracer>(*world.tracer());
  }
  result.faults = world.fault_state().total();
  if (world.metrics() != nullptr) {
    result.metrics = std::make_shared<obs::MetricsRegistry>(*world.metrics());
  }
  if (world.sampler() != nullptr) {
    result.timeline = world.sampler()->snapshot();
  }
  result.jobs = world.client_jobs();
  return result;
}

void Driver::measure(mpi::Rank& self, const mpi::Comm& comm,
                     const std::function<void()>& phase) {
  mpi::barrier(self, comm);
  if (!started_) {
    t0_ = self.now();
    started_ = true;
  }
  phase();
  mpi::barrier(self, comm);
  t1_ = self.now() > t1_ ? self.now() : t1_;
}

void Driver::report(mpi::Rank& self, const mpiio::FileStats& stats,
                    bool verified) {
  verified_ = verified_ && verified;
  if (self.rank() == 0) {
    stats_ = stats;
  }
}

bool Driver::stored(mpi::Rank& self, int fs_id,
                    std::span<const fs::Extent> extents, std::uint64_t salt) {
  auto* store = dynamic_cast<fs::MemoryStore*>(&self.world().fs().store());
  return store != nullptr && verify_store(*store, fs_id, extents, salt);
}

obs::JsonValue run_result_json(const RunResult& result) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("elapsed_s", result.elapsed);
  doc.set("total_elapsed_s", result.total_elapsed);
  doc.set("bytes", result.bytes);
  doc.set("bandwidth_mib_s", result.bandwidth_mib());
  doc.set("sync_fraction", result.sync_fraction());
  doc.set("verified", result.verified);
  doc.set("fs_rpcs", result.fs_rpcs);
  doc.set("fs_lock_switches", result.fs_lock_switches);
  doc.set("schedule", result.schedule_token);
  doc.set("choice_points", result.choice_points);
  doc.set("file_digest", result.file_digest);
  obs::JsonValue engine = obs::JsonValue::object();
  engine.set("events_executed", result.engine.events_executed);
  engine.set("callback_events", result.engine.callback_events);
  engine.set("events_per_s", result.engine.events_per_second());
  engine.set("run_wall_s", result.engine.run_wall_seconds);
  engine.set("fibers_spawned", result.engine.fibers_spawned);
  engine.set("peak_live_fibers", result.engine.peak_live_fibers);
  engine.set("stacks_allocated", result.engine.stacks_allocated);
  engine.set("stacks_reused", result.engine.stacks_reused);
  engine.set("default_stack_bytes", result.engine.default_stack_bytes);
  engine.set("peak_queue_depth", result.engine.peak_queue_depth);
  engine.set("peak_rss_bytes", sim::peak_rss_bytes());
  doc.set("engine", engine);
  doc.set("time", obs::time_breakdown_json(result.sum));
  doc.set("stats", obs::file_stats_json(result.stats));
  doc.set("faults", obs::fault_counters_json(result.faults));
  if (result.metrics) {
    doc.set("metrics", obs::metrics_json(*result.metrics));
  }
  return doc;
}

}  // namespace parcoll::workloads
