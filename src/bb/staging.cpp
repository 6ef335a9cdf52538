#include "bb/staging.hpp"

#include "bb/drain.hpp"
#include "fs/integrity.hpp"
#include "mpi/trace.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

namespace parcoll::bb {

StagingStore::StagingStore(mpi::World& world, int fs_id, BbConfig config,
                           mpiio::FileStats& stats)
    : world_(world), fs_id_(fs_id), config_(config), stats_(stats) {
  arenas_.resize(
      static_cast<std::size_t>(world.model().topology.num_nodes()));
  sched_ = std::make_unique<DrainScheduler>(*this);
  if (auto* sampler = world.sampler()) {
    // Per-node occupancy (queued + in-flight bytes) and drain backlog
    // (bytes still queued behind the drain fiber). The store may outlive
    // this run's sampling window; the destructor detaches.
    for (std::size_t n = 0; n < arenas_.size(); ++n) {
      probe_ids_.push_back(sampler->add_probe(
          obs::MetricsRegistry::indexed("bb.node.used_bytes", n),
          [this, n] { return static_cast<double>(arenas_[n].used); }));
      probe_ids_.push_back(sampler->add_probe(
          obs::MetricsRegistry::indexed("bb.node.backlog_bytes", n),
          [this, n] {
            return static_cast<double>(arenas_[n].used -
                                       arenas_[n].in_flight_bytes);
          }));
    }
  }
}

StagingStore::~StagingStore() {
  if (auto* sampler = world_.sampler()) {
    for (std::size_t id : probe_ids_) {
      sampler->remove_probe(id);
    }
  }
}

bool StagingStore::stage(mpi::Rank& self, std::span<const fs::Extent> extents,
                         const std::byte* data) {
  std::uint64_t bytes = 0;
  for (const fs::Extent& extent : extents) {
    bytes += extent.length;
  }
  if (bytes == 0) {
    return true;  // nothing to make durable
  }
  NodeArena& arena = arenas_[static_cast<std::size_t>(self.node())];
  if (arena.used + bytes > config_.capacity) {
    return false;
  }
  StagedSegment seg;
  seg.client = self.rank();
  seg.staged_at = self.now();
  seg.bytes = bytes;
  seg.extents.assign(extents.begin(), extents.end());
  if (data != nullptr) {
    seg.data.assign(data, data + bytes);
  }
  if (const fs::IntegrityManager* integ = world_.integrity()) {
    seg.writes_registered = integ->writes_registered();
  }
  if (const fault::FaultPlan* plan = world_.fault_plan();
      plan != nullptr && plan->bb_corrupt_prob > 0.0) {
    const auto rank = static_cast<std::size_t>(self.rank());
    if (bb_draws_.size() <= rank) bb_draws_.resize(rank + 1, 0);
    if (plan->corrupt_bb(self.rank(), bb_draws_[rank]++)) {
      // The segment decays while resident: flip one bit of a seeded byte
      // of the arena copy. The durable source (the rank's buffer / the
      // checksum replica) is untouched, which is what drain-time repair
      // replays.
      seg.corrupted = true;
      ++world_.fault_state().of(self.rank()).corrupt_injected;
      if (!seg.data.empty()) {
        const std::uint64_t site = plan->corrupt_site(
            static_cast<std::uint64_t>(self.rank()), bb_draws_[rank]);
        seg.data[static_cast<std::size_t>(site % seg.data.size())] ^=
            static_cast<std::byte>(1u << ((site >> 32) & 7));
      }
    }
  }
  arena.used += bytes;
  index_.add(self.node(), extents);
  arena.queue.push_back(std::move(seg));
  ++stats_.bb_staged_segments;
  stats_.bb_staged_bytes += bytes;
  if (auto* metrics = world_.metrics()) {
    metrics->gauge_max("bb.node.peak_bytes",
                       static_cast<std::size_t>(self.node()),
                       static_cast<double>(arena.used));
  }
  // The absorb itself: one memcpy into the node arena, at memory speed.
  self.touch_bytes(static_cast<double>(bytes));
  sched_->on_stage(self.node());
  return true;
}

void StagingStore::flush_until_clear(mpi::Rank& self,
                                     std::span<const fs::Extent> extents) {
  auto pending = [&] {
    return extents.empty() ? !idle() : index_.overlaps(extents);
  };
  if (!pending()) {
    return;
  }
  const double start = self.now();
  mpi::SpanGuard flush_span(self, obs::SpanKind::Stage, "bb_flush");
  const int waits_on_extents = extents.empty() ? 0 : 1;
  ++flush_waiters_;
  extent_waiters_ += waits_on_extents;
  // A waiting flush overrides every policy gate: the drain loop checks
  // flush_waiters_, and on_stage kicks the nodes that stage meanwhile, so
  // progress only needs the fibers running now.
  sched_->kick_all();
  sched_->poke();
  while (pending()) {
    drained_.wait(world_.engine(), "bb flush");
  }
  extent_waiters_ -= waits_on_extents;
  --flush_waiters_;
  self.times().add(mpi::TimeCat::DrainWait, self.now() - start);
  if (auto* metrics = world_.metrics()) {
    metrics->quantile("bb.drain_wait_s").observe(self.now() - start);
  }
}

void StagingStore::flush_overlapping(mpi::Rank& self,
                                     std::span<const fs::Extent> extents) {
  if (extents.empty()) {
    return;
  }
  flush_until_clear(self, extents);
}

void StagingStore::flush_all(mpi::Rank& self) {
  flush_until_clear(self, {});
}

void StagingStore::foreground_end() {
  if (--foreground_ == 0) {
    sched_->poke();
  }
}

void StagingStore::land(int node, std::span<const fs::Extent> extents) {
  index_.remove(node, extents);
  // A flush_all waiter can finish only once the store is idle; one waiting
  // on extents rechecks after every landing.
  if (extent_waiters_ > 0 || idle()) {
    drained_.notify_all(world_.engine());
  }
}

}  // namespace parcoll::bb
