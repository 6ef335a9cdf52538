#include "bb/drain.hpp"

#include <utility>

#include "bb/staging.hpp"
#include "fs/integrity.hpp"
#include "fs/lustre.hpp"
#include "mpi/trace.hpp"
#include "obs/metrics.hpp"

namespace parcoll::bb {

void DrainScheduler::on_stage(int node) {
  StagingStore::NodeArena& arena =
      store_.arenas_[static_cast<std::size_t>(node)];
  const BbConfig& config = store_.config_;
  switch (config.policy) {
    case DrainPolicy::Immediate:
      kick(node);
      break;
    case DrainPolicy::Watermark:
      if (arena.used >= config.hi_bytes()) {
        kick(node);
      }
      break;
    case DrainPolicy::Deadline:
      arm_deadline(node, store_.world_.engine().now() + config.drain_deadline);
      break;
    case DrainPolicy::Arbitrate:
      // Start the fiber now — it parks while the foreground is busy — and
      // back it with the deadline so parked data cannot wait unboundedly.
      kick(node);
      arm_deadline(node, store_.world_.engine().now() + config.drain_deadline);
      break;
  }
  if (store_.flush_waiters_ > 0) {
    kick(node);  // a waiting flush overrides every policy gate
  }
}

void DrainScheduler::kick(int node) {
  StagingStore::NodeArena& arena =
      store_.arenas_[static_cast<std::size_t>(node)];
  if (arena.drainer_active || arena.queue.empty()) {
    return;
  }
  arena.drainer_active = true;
  store_.world_.engine().spawn([this, node] { drain_loop(node); });
}

void DrainScheduler::kick_all() {
  for (std::size_t node = 0; node < store_.arenas_.size(); ++node) {
    kick(static_cast<int>(node));
  }
}

void DrainScheduler::poke() { arbitration_.notify_all(store_.world_.engine()); }

void DrainScheduler::arm_deadline(int node, double at) {
  StagingStore::NodeArena& arena =
      store_.arenas_[static_cast<std::size_t>(node)];
  if (arena.timer_armed) {
    return;  // coalesced: the pending timer covers this segment's deadline
  }
  arena.timer_armed = true;
  store_.world_.engine().post(at, [this, node] {
    StagingStore::NodeArena& fired =
        store_.arenas_[static_cast<std::size_t>(node)];
    fired.timer_armed = false;
    if (!fired.queue.empty()) {
      fired.overdue = true;
      kick(node);
      poke();
    }
  });
}

void DrainScheduler::drain_loop(int node) {
  StagingStore::NodeArena& arena =
      store_.arenas_[static_cast<std::size_t>(node)];
  sim::Engine& engine = store_.world_.engine();
  const BbConfig& config = store_.config_;
  while (!arena.queue.empty()) {
    // Policy gates — all overridden while a flush waits or the arena is
    // overdue, so neither durability nor deadline depends on the policy.
    if (store_.flush_waiters_ == 0 && !arena.overdue) {
      if (config.policy == DrainPolicy::Watermark &&
          arena.used <= config.lo_bytes()) {
        break;  // drained down to the low watermark; stop the burst
      }
      if (config.policy == DrainPolicy::Arbitrate && store_.foreground_ > 0 &&
          arena.used < config.hi_bytes()) {
        arbitration_.wait(engine, "bb drain arbitration");
        continue;  // re-evaluate everything after the wake
      }
    }
    write_segment(node);
  }
  arena.drainer_active = false;
  if (arena.queue.empty()) {
    arena.overdue = false;
  }
}

void DrainScheduler::write_segment(int node) {
  StagingStore::NodeArena& arena =
      store_.arenas_[static_cast<std::size_t>(node)];
  mpi::World& world = store_.world_;
  sim::Engine& engine = world.engine();

  StagingStore::StagedSegment seg = std::move(arena.queue.front());
  arena.queue.pop_front();
  arena.in_flight_bytes = seg.bytes;

  // Synthetic fs client id: the node's drain agent, distinct from every
  // rank so per-rank fault counters (snapshot-and-diff around collective
  // calls) never see interleaved drain activity.
  const int client = world.nranks() + node;
  const auto stream = static_cast<std::uint64_t>(engine.current());

  // The drain fiber's hidden time goes straight into the file's stats.
  mpiio::FileStats& stats = store_.stats_;
  const auto charge = [&stats](mpi::TimeCat cat, double seconds) {
    stats.time.seconds[static_cast<std::size_t>(cat)] += seconds;
  };

  mpi::Tracer* tracer = world.tracer();
  obs::SpanId span = obs::kNoSpan;
  const double begin = engine.now();
  if (tracer != nullptr) {
    span = tracer->spans().open(stream, seg.client, obs::SpanKind::Drain,
                                "drain", begin);
  }
  // Pre-drain integrity audit: a segment that decayed while resident is
  // healed from the checksum replica (Repair) or reported for collective
  // agreement (Detect) before its bytes go durable. Only records fully
  // inside the segment are checkable here; straddlers are caught by the
  // store-side passes (read-verify, scrub, close sweep). Records registered
  // after the segment was staged are skipped: a read-modify-written window
  // carries old file bytes for offsets that a later call rewrites.
  if (auto* integ = world.integrity()) {
    double seconds = 0.0;
    if (!seg.data.empty()) {
      seconds = integ->verify_buffer(seg.client, store_.fs_id_, seg.extents,
                                     seg.data.data(), seg.writes_registered);
    } else if (seg.corrupted) {
      // Phantom arenas keep no bytes; account the detection by draw.
      integ->note_detected(seg.client, store_.fs_id_);
      if (integ->config().level == fs::IntegrityLevel::Repair) {
        integ->note_repaired(seg.client, store_.fs_id_, /*by_scrubber=*/false);
      } else {
        integ->record_error(store_.fs_id_, seg.extents.front().offset,
                            seg.extents.front().length);
      }
    }
    if (seconds > 0) {
      engine.sleep(seconds);
      charge(mpi::TimeCat::Integrity, seconds);
    }
  }
  const fault::FaultCounters before = world.fault_state().of(client);
  const fs::IoResult result =
      world.fs().write(client, store_.fs_id_, seg.extents,
                       seg.data.empty() ? nullptr : seg.data.data());
  const fault::FaultCounters after = world.fault_state().of(client);
  const double end = engine.now();

  charge(mpi::TimeCat::Drain, end - begin - result.faulted_seconds);
  charge(mpi::TimeCat::Faulted, result.faulted_seconds);
  stats.bb_drain_retries += after.retries - before.retries;
  stats.bb_drain_failovers += after.failovers - before.failovers;
  stats.bb_drained_bytes += seg.bytes;
  if (tracer != nullptr) {
    tracer->record(stream, seg.client, mpi::TimeCat::Drain, begin, end);
    tracer->spans().close(stream, span, end);
  }
  if (auto* metrics = world.metrics()) {
    metrics->quantile("bb.drain_seconds").observe(end - begin);
  }

  arena.used -= seg.bytes;
  arena.in_flight_bytes = 0;
  store_.land(node, seg.extents);
}

}  // namespace parcoll::bb
