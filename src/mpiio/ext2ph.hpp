// Extended two-phase collective I/O (ext2ph), ROMIO-style.
//
// This is the paper's baseline protocol and the inner aggregation engine
// that ParColl retains per subgroup (paper §4: "The original ext2ph
// protocol is still retained as a part of ParColl"). The processing phases
// match the paper's dissection (§2.2):
//
//   1. file-range gathering      — Allgather of each rank's [start, end)
//   2. file-domain partitioning  — the range is divided evenly among the
//                                  I/O aggregators (deterministic, local)
//   3. request dissemination     — Alltoall of per-aggregator request
//                                  counts + point-to-point offset lists
//   4. interleaved data exchange and file I/O — for each cycle, an
//      Allreduce'd number of times: Alltoall of cycle sizes (the per-cycle
//      synchronization that builds the collective wall), isend/irecv data
//      exchange, and aggregator reads/writes of its collective-buffer
//      window, with read-modify-write when the received data has holes.
//
// Both Alltoalls are charged as dense P-wide exchanges, but every rank
// builds, sends and keeps only the entries of the peers it touches (a
// rank's request reaches aggregators a_lo..a_hi only), so per-rank planning
// and cycle state scale with those peers, not with P.
//
// Extents are expressed in "target space" via the IoTarget seam: the
// physical file for plain collective I/O, or intermediate-view coordinates
// under ParColl's file-view switch.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fs/lustre.hpp"
#include "fs/stripe.hpp"
#include "mpi/comm.hpp"
#include "mpi/runtime.hpp"
#include "mpiio/hints.hpp"

namespace parcoll::mpiio {

/// Where aggregators perform their reads and writes.
class IoTarget {
 public:
  virtual ~IoTarget() = default;
  /// Write `extents` (data = concatenated payload, may be nullptr) and
  /// charge the calling rank's IO time.
  virtual void write(mpi::Rank& self, std::span<const fs::Extent> extents,
                     const std::byte* data) = 0;
  virtual void read(mpi::Rank& self, std::span<const fs::Extent> extents,
                    std::byte* out) = 0;
  /// write() or read(), by direction.
  void transfer(mpi::Rank& self, std::span<const fs::Extent> extents,
                std::byte* data, bool is_write) {
    is_write ? write(self, extents, data) : read(self, extents, data);
  }
};

/// Reads/writes the physical file.
class DirectTarget final : public IoTarget {
 public:
  DirectTarget(fs::LustreSim& fs, int file_id)
      : fs_(fs), file_id_(file_id) {}
  void write(mpi::Rank& self, std::span<const fs::Extent> extents,
             const std::byte* data) override;
  void read(mpi::Rank& self, std::span<const fs::Extent> extents,
            std::byte* out) override;

 private:
  fs::LustreSim& fs_;
  int file_id_;
};

/// One rank's contribution to a collective call: its file extents (target
/// space, monotone, coalesced) and the matching packed data stream. Both
/// are views of the caller's request, which outlives the call.
struct CollRequest {
  std::span<const fs::Extent> extents;
  std::byte* data = nullptr;  // write: source; read: destination; may be null

  [[nodiscard]] std::uint64_t total_bytes() const {
    std::uint64_t total = 0;
    for (const fs::Extent& e : extents) total += e.length;
    return total;
  }
};

/// An aggregator roster: local ranks in the calling communicator, sorted
/// ascending. Shared, so the members of a wide call can all hold one copy.
using Roster = std::shared_ptr<const std::vector<int>>;

[[nodiscard]] inline Roster make_roster(std::vector<int> ranks) {
  return std::make_shared<const std::vector<int>>(std::move(ranks));
}

struct Ext2phOptions {
  std::uint64_t cb_buffer_size = 4ull << 20;
  /// The aggregators. Must not be null or empty.
  Roster aggregators;
  /// When nonzero, file-domain boundaries are rounded up to multiples of
  /// this (the stripe size): the Lustre-aware ADIO optimization that keeps
  /// any one stripe inside a single aggregator's domain, avoiding shared
  /// extent locks at domain boundaries.
  std::uint64_t fd_alignment = 0;
};

struct Ext2phOutcome {
  std::uint64_t cycles = 0;     // data-exchange/file-I/O cycles executed
  std::uint64_t rmw_reads = 0;  // aggregator read-modify-write fills (this rank)
  std::uint64_t intra_bytes = 0;  // payload shipped intra-node (two-level)
};

/// Collective write (`is_write`) or read over `comm`: one plan and one
/// cycle loop for both directions; only each cycle's exchange and file
/// access differ. Every member must call with the same options and
/// direction. Returns per-rank outcome counters.
Ext2phOutcome ext2ph(mpi::Rank& self, const mpi::Comm& comm, IoTarget& target,
                     const CollRequest& request, const Ext2phOptions& options,
                     bool is_write);

}  // namespace parcoll::mpiio
