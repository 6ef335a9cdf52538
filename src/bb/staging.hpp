// Node-local burst-buffer staging store.
//
// A StagingStore keeps one capacity-limited arena per physical node (keyed
// by machine::Topology). Collective writes land in the arena at memory
// speed and return; a per-node drain agent (bb/drain.hpp) writes the
// staged segments behind to the simulated Lustre backend under a pluggable
// policy. The store is the single consistency authority:
//
//   * Same-node program order — each arena is a FIFO served by one drain
//     fiber at a time, so a rank's overlapping writes reach the file in
//     issue order.
//   * Cross-node overlaps — a stage or spill that overlaps another node's
//     staged/in-flight data first flushes that data synchronously, so the
//     later writer still wins.
//   * Read-your-writes — reads through BbTarget flush overlapping staged
//     data before touching the file.
//
// Crash consistency under the fault model: a staged segment is freed only
// after LustreSim::write returns, and that call internally retries, backs
// off, and fails over per the installed FaultPlan. A drain hit by an OST
// outage therefore replays the same staged bytes until they are durable —
// no loss, and no double-apply beyond idempotent overwrite of the same
// extents. All staged data is durable by FileHandle::close().
//
// The open file owns its store (mpiio::FileCommon::bb), and the store
// counts straight into that file's FileStats: staged/spilled/drained
// segments and bytes, conflict flushes, drain retries and failovers, and
// the drain fibers' hidden time (Drain, Faulted, Integrity).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "bb/options.hpp"
#include "fs/stripe.hpp"
#include "mpi/runtime.hpp"
#include "mpiio/stats.hpp"
#include "sim/engine.hpp"

namespace parcoll::bb {

class DrainScheduler;

/// Every extent a StagingStore holds, queued or being drained, ordered by
/// offset and tagged with its node: overlap checks and flush conditions
/// visit only entries that can overlap, not every node's queue. Two
/// extents overlap when each starts before the other ends: touching
/// extents do not, and a zero-length extent overlaps only an extent that
/// strictly contains its offset.
class ExtentIndex {
 public:
  void add(int node, std::span<const fs::Extent> extents) {
    for (const fs::Extent& extent : extents) {
      by_offset_.emplace(extent.offset, Entry{extent.end(), node});
      if (extent.length > longest_) longest_ = extent.length;
    }
  }

  /// Remove one entry per extent, as added by `add(node, extents)`.
  void remove(int node, std::span<const fs::Extent> extents) {
    for (const fs::Extent& extent : extents) {
      auto it = by_offset_.lower_bound(extent.offset);
      while (it->second.end != extent.end() || it->second.node != node) ++it;
      by_offset_.erase(it);
    }
    if (by_offset_.empty()) longest_ = 0;
  }

  /// Does an extent of a node other than `except` overlap `extents`?
  /// (`except` = -1 excludes no node.)
  [[nodiscard]] bool overlaps(std::span<const fs::Extent> extents,
                              int except = -1) const {
    for (const fs::Extent& extent : extents) {
      // An entry starting at or before offset - longest_ ends by offset.
      const std::uint64_t from =
          extent.offset >= longest_ ? extent.offset - longest_ + 1 : 0;
      for (auto it = by_offset_.lower_bound(from);
           it != by_offset_.end() && it->first < extent.end(); ++it) {
        if (it->second.end > extent.offset && it->second.node != except) {
          return true;
        }
      }
    }
    return false;
  }

  [[nodiscard]] bool empty() const { return by_offset_.empty(); }

 private:
  struct Entry { std::uint64_t end; int node; };
  std::multimap<std::uint64_t, Entry> by_offset_;
  std::uint64_t longest_ = 0;  // longest extent added since last empty
};

class StagingStore {
 public:
  /// `stats` is the owning file's statistics; it must outlive the store.
  StagingStore(mpi::World& world, int fs_id, BbConfig config,
               mpiio::FileStats& stats);
  ~StagingStore();

  StagingStore(const StagingStore&) = delete;
  StagingStore& operator=(const StagingStore&) = delete;

  /// Absorb `extents` (+ concatenated payload, may be null in phantom
  /// mode) into the calling rank's node arena, charging memcpy time.
  /// Returns false — staging nothing — when the segment does not fit.
  bool stage(mpi::Rank& self, std::span<const fs::Extent> extents,
             const std::byte* data);

  /// Block until no staged or in-flight segment overlaps `extents`
  /// (any node). Wait time is charged to TimeCat::DrainWait.
  void flush_overlapping(mpi::Rank& self, std::span<const fs::Extent> extents);

  /// Block until every arena is empty and nothing is in flight.
  void flush_all(mpi::Rank& self);

  /// Does any node other than `node` hold staged/in-flight data
  /// overlapping `extents`? (Same-node overlaps are ordered by the FIFO.)
  [[nodiscard]] bool conflicts_elsewhere(
      int node, std::span<const fs::Extent> extents) const {
    return index_.overlaps(extents, node);
  }

  /// Foreground-activity bracket, used by the Arbitrate policy: drains
  /// defer while any rank is inside a collective I/O call.
  void foreground_begin() { ++foreground_; }
  void foreground_end();

  void note_spill(std::uint64_t bytes) {
    ++stats_.bb_spills;
    stats_.bb_spill_bytes += bytes;
  }
  void note_conflict_flush() { ++stats_.bb_conflict_flushes; }

  /// Nothing staged or in flight. Every staged segment holds at least one
  /// byte, so it has at least one indexed extent until it lands.
  [[nodiscard]] bool idle() const { return index_.empty(); }
  [[nodiscard]] const BbConfig& config() const { return config_; }
  [[nodiscard]] mpi::World& world() { return world_; }
  [[nodiscard]] int fs_id() const { return fs_id_; }

 private:
  friend class DrainScheduler;

  struct StagedSegment {
    int client = -1;        // staging rank (labels drain spans)
    double staged_at = 0;   // deadline bookkeeping
    std::uint64_t bytes = 0;
    std::vector<fs::Extent> extents;
    std::vector<std::byte> data;  // empty in phantom mode
    /// The fault plan decayed this segment while resident (phantom mode
    /// keeps no bytes, so the pre-drain audit keys off this flag instead).
    bool corrupted = false;
    /// IntegrityManager::writes_registered() when staged: the pre-drain
    /// audit checks the segment only against checksums at least this old.
    std::uint32_t writes_registered = 0;
  };

  struct NodeArena {
    std::uint64_t used = 0;  // queued + in-flight bytes
    std::deque<StagedSegment> queue;
    std::uint64_t in_flight_bytes = 0;  // of the segment being drained
    bool drainer_active = false;
    /// A deadline timer fired with data still queued: policy gates are
    /// overridden until the arena empties.
    bool overdue = false;
    bool timer_armed = false;
  };

  /// Shared flush loop: kick every drainer and wait on segment completions
  /// until `extents` is clear (or, with empty extents, everything is).
  void flush_until_clear(mpi::Rank& self, std::span<const fs::Extent> extents);
  /// A segment of `node` reached the file: drop its extents and wake the
  /// flush waiters if one of them can now finish.
  void land(int node, std::span<const fs::Extent> extents);

  mpi::World& world_;
  int fs_id_;
  BbConfig config_;
  std::vector<NodeArena> arenas_;  // one per topology node
  /// Extents of every queued and in-flight segment, erased when it lands:
  /// flushes wait for in-flight data too, or a later overlapping write
  /// could complete before an older one.
  ExtentIndex index_;
  std::unique_ptr<DrainScheduler> sched_;
  mpiio::FileStats& stats_;
  int foreground_ = 0;
  int flush_waiters_ = 0;
  int extent_waiters_ = 0;  // flush waiters with extents (not flush_all)
  /// Per-rank monotone draw counters for the bb decay process (keyed by
  /// the staging rank, so draws are schedule-independent).
  std::vector<std::uint64_t> bb_draws_;
  /// Sampler probes registered by the constructor (occupancy and drain
  /// backlog per node); detached in the destructor.
  std::vector<std::size_t> probe_ids_;
  /// Flush waiters. Notified when the store goes idle, and after every
  /// landing while a flush waits on extents.
  sim::WaitQueue drained_;
};

/// RAII foreground-activity bracket (no-op on a null store).
class ForegroundGuard {
 public:
  explicit ForegroundGuard(StagingStore* store) : store_(store) {
    if (store_ != nullptr) store_->foreground_begin();
  }
  ~ForegroundGuard() {
    if (store_ != nullptr) store_->foreground_end();
  }
  ForegroundGuard(const ForegroundGuard&) = delete;
  ForegroundGuard& operator=(const ForegroundGuard&) = delete;

 private:
  StagingStore* store_;
};

}  // namespace parcoll::bb
