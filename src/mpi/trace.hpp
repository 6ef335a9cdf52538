// Execution tracing: per-rank timelines of where virtual time goes.
//
// When enabled on a World, every charge to a rank's TimeAccount records a
// Phase leaf in a hierarchical span store (obs::SpanStore): collective
// calls, ParColl subgroups, and exchange/I-O cycles open enclosing spans,
// so each interval knows *which cycle of which call* produced it. The CSV
// export and the text Gantt chart read the Phase leaves — which still make
// the collective wall visible: synchronization intervals piling up behind
// the slowest rank of each cycle. The span tree additionally feeds the
// Chrome-trace exporter and the wall-report analysis (src/obs/).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "mpi/timecat.hpp"
#include "obs/span.hpp"

namespace parcoll::mpi {

class Rank;

class Tracer {
 public:
  /// Record a completed interval (a Phase leaf under the stream's
  /// currently open span). Empty and negative intervals are dropped. The
  /// stream identifies the recording fiber; the two-argument form uses the
  /// rank id, which is only correct when the rank runs a single fiber
  /// (tests and hand-rolled traces).
  void record(std::uint64_t stream, int rank, TimeCat cat, double begin,
              double end) {
    store_.leaf(stream, rank, cat, begin, end);
  }
  void record(int rank, TimeCat cat, double begin, double end) {
    record(static_cast<std::uint64_t>(rank), rank, cat, begin, end);
  }

  /// The structured span tree (calls, subgroups, stages, phase leaves).
  [[nodiscard]] const obs::SpanStore& spans() const { return store_; }
  [[nodiscard]] obs::SpanStore& spans() { return store_; }

  void clear() { store_.clear(); }

  /// CSV of the Phase leaves in recording order: rank,category,begin,end
  /// (header included).
  void write_csv(std::ostream& os) const;

  /// Text Gantt chart: one row per rank (up to `max_ranks`), `width` time
  /// bins from 0 to the last event. Each cell shows the category that
  /// dominates the bin: '.' idle, 'c' compute, 'p' p2p, 'S' sync, 'I' io,
  /// 'F' faulted, 'n' intra-node aggregation.
  [[nodiscard]] std::string gantt(int width = 72, int max_ranks = 16) const;

 private:
  obs::SpanStore store_;
};

/// RAII structural span: opens a Call/Subgroup/Stage span on construction
/// and closes it on destruction. A no-op when the world's tracer is off,
/// so protocol code can scope spans unconditionally. Never advances the
/// simulated clock.
class SpanGuard {
 public:
  SpanGuard(Rank& self, obs::SpanKind kind, const char* name,
            std::int64_t group = -1, std::int64_t cycle = -1);
  ~SpanGuard();

  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Tracer* tracer_ = nullptr;
  Rank* rank_ = nullptr;
  obs::SpanId id_ = obs::kNoSpan;
};

}  // namespace parcoll::mpi
