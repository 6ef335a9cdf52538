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
            std::uint64_t queued = 0;
            for (const StagedSegment& seg : arenas_[n].queue) {
              queued += seg.bytes;
            }
            return static_cast<double>(queued);
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

bool StagingStore::overlaps(std::span<const fs::Extent> a,
                            std::span<const fs::Extent> b) {
  // Extent lists are monotone (view mapping and staging both keep them
  // sorted), so a linear merge-walk suffices.
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].end() <= b[j].offset) {
      ++i;
    } else if (b[j].end() <= a[i].offset) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

bool StagingStore::arena_overlaps(const NodeArena& arena,
                                  std::span<const fs::Extent> extents) const {
  if (!arena.in_flight.empty() && overlaps(arena.in_flight, extents)) {
    return true;
  }
  for (const StagedSegment& seg : arena.queue) {
    if (overlaps(seg.extents, extents)) {
      return true;
    }
  }
  return false;
}

bool StagingStore::any_overlap(std::span<const fs::Extent> extents) const {
  for (const NodeArena& arena : arenas_) {
    if (arena_overlaps(arena, extents)) {
      return true;
    }
  }
  return false;
}

bool StagingStore::conflicts_elsewhere(
    int node, std::span<const fs::Extent> extents) const {
  for (std::size_t n = 0; n < arenas_.size(); ++n) {
    if (static_cast<int>(n) == node) {
      continue;
    }
    if (arena_overlaps(arenas_[n], extents)) {
      return true;
    }
  }
  return false;
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
    return extents.empty() ? !idle() : any_overlap(extents);
  };
  if (!pending()) {
    return;
  }
  const double start = self.now();
  mpi::SpanGuard flush_span(self, obs::SpanKind::Stage, "bb_flush");
  ++flush_waiters_;
  while (pending()) {
    // A waiting flush overrides every policy gate (the drain loop checks
    // flush_waiters_), so progress only needs the fibers to be running.
    sched_->kick_all();
    sched_->poke();
    drained_.wait(world_.engine(), "bb flush");
  }
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

bool StagingStore::idle() const {
  for (const NodeArena& arena : arenas_) {
    if (!arena.queue.empty() || arena.in_flight_bytes != 0) {
      return false;
    }
  }
  return true;
}

std::uint64_t StagingStore::pending_bytes() const {
  std::uint64_t total = 0;
  for (const NodeArena& arena : arenas_) {
    total += arena.used;
  }
  return total;
}

}  // namespace parcoll::bb
