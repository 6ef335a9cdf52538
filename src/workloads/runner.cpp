#include "workloads/runner.hpp"

#include "fs/lustre.hpp"
#include "obs/run_export.hpp"

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

RunResult collect(const mpi::World& world, const PhaseClock& clock,
                  std::uint64_t bytes, const mpiio::FileStats& stats) {
  RunResult result;
  result.elapsed = clock.elapsed();
  result.total_elapsed = world.elapsed();
  result.bytes = bytes;
  for (const mpi::TimeBreakdown& breakdown : world.rank_times()) {
    result.sum += breakdown;
  }
  result.stats = stats;
  auto& mutable_world = const_cast<mpi::World&>(world);
  auto& fs = mutable_world.fs();
  result.fs_rpcs = fs.total_rpcs();
  result.fs_lock_switches = fs.total_lock_switches();
  result.schedule_token = mutable_world.engine().schedule_token();
  result.choice_points = mutable_world.engine().choice_log().size();
  result.file_digest = fs.store().content_digest();
  result.engine = mutable_world.engine().stats();
  if (mutable_world.tracer() != nullptr) {
    result.trace = std::make_shared<mpi::Tracer>(*mutable_world.tracer());
  }
  result.faults = mutable_world.fault_state().total();
  if (mutable_world.metrics() != nullptr) {
    result.metrics =
        std::make_shared<obs::MetricsRegistry>(*mutable_world.metrics());
  }
  if (mutable_world.sampler() != nullptr) {
    result.timeline = mutable_world.sampler()->snapshot();
  }
  result.jobs = world.client_jobs();
  return result;
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
