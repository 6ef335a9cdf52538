// Hierarchical spans: the structured backbone of the tracing layer.
//
// A span is a (rank, begin, end) interval in virtual time with a kind, a
// static name, and a parent. Collective-I/O calls open Call spans; ParColl
// opens a Subgroup span per subgroup membership; the ext2ph engine opens a
// Stage span per plan/exchange-cycle/finalize step; every TimeAccount
// charge lands as a Phase leaf under whatever span is open on that rank.
// The per-rank CSV and Gantt views read the Phase leaves (see mpi::Tracer).
//
// Identifiers are 1-based; parent 0 means "root" (no enclosing span).
// Spans never affect simulated time: opening/closing reads the clock, it
// does not advance it.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "mpi/timecat.hpp"

namespace parcoll::obs {

enum class SpanKind : std::uint8_t {
  Call = 0,      // one collective-I/O call (write_at_all / read_at_all)
  Subgroup = 1,  // ParColl subgroup-local collective under a call
  Stage = 2,     // plan / exchange-I/O cycle / finalize / intra step
  Phase = 3,     // leaf: a TimeCat charge (sync, p2p, io, intra, faulted)
  Drain = 4,     // burst-buffer write-behind of one staged segment
  Scrub = 5,     // background integrity scrub walking the object store
};

[[nodiscard]] const char* to_string(SpanKind kind);

using SpanId = std::uint32_t;
inline constexpr SpanId kNoSpan = 0;

struct Span {
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  int rank = 0;
  SpanKind kind = SpanKind::Phase;
  mpi::TimeCat cat = mpi::TimeCat::Compute;  // Phase leaves only
  const char* name = "";                     // static string, never owned
  std::int64_t call = -1;   // per-rank call ordinal (aligned across ranks)
  std::int64_t group = -1;  // ParColl subgroup index, -1 outside subgroups
  std::int64_t cycle = -1;  // exchange/I-O cycle index, -1 outside cycles
  double begin = 0;
  double end = 0;
};

/// Append-only store of spans with per-stream open-span stacks. A stream
/// is one fiber of execution (the simulator's ProcId): a rank's main fiber
/// is one stream, an async-I/O or split-collective helper fiber sharing
/// the rank id is another, so concurrent fibers can never corrupt each
/// other's LIFO nesting. Structural spans (Call/Subgroup/Stage) are opened
/// and closed around protocol code; Phase leaves are recorded complete.
/// Copyable (plain data) so a Tracer can be snapshotted out of a finished
/// World.
class SpanStore {
 public:
  /// Open a structural span on `rank` starting at time `at`. The new span
  /// is parented to the stream's innermost open span and inherits its call
  /// / group / cycle labels unless overridden. Call spans are
  /// automatically numbered with a per-rank ordinal; SPMD execution makes
  /// the ordinal line up across ranks, which is what lets the wall report
  /// correlate "cycle 3 of call 2" between ranks.
  SpanId open(std::uint64_t stream, int rank, SpanKind kind, const char* name,
              double at, std::int64_t group = -1, std::int64_t cycle = -1);

  /// Close the innermost open span of `stream`. `id` must be the value
  /// returned by the matching open() (enforced: spans close LIFO per
  /// stream).
  void close(std::uint64_t stream, SpanId id, double at);

  /// Record a completed Phase leaf under the stream's innermost open span.
  /// Zero- and negative-length intervals are dropped, matching the old
  /// Tracer::record contract.
  void leaf(std::uint64_t stream, int rank, mpi::TimeCat cat, double begin,
            double end);

  /// Is the stream's innermost open span inside a collective call (i.e.
  /// does it carry a call ordinal)? Lets standalone collectives decide
  /// whether to open their own Call span for wall attribution.
  [[nodiscard]] bool in_call(std::uint64_t stream) const;

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const Span& at(SpanId id) const {
    return spans_[static_cast<std::size_t>(id - 1)];
  }
  [[nodiscard]] bool empty() const { return spans_.empty(); }

  void clear();

 private:
  Span& grow(int rank);

  std::vector<Span> spans_;
  std::map<std::uint64_t, std::vector<SpanId>> stacks_;  // per-stream
  std::vector<std::int64_t> call_ordinals_;              // per-rank
};

}  // namespace parcoll::obs
