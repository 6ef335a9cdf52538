// Per-file I/O statistics, mirroring the paper's profiler: "we profiled
// these processing tasks at run-time. When a file is closed, a summary is
// reported." The breakdown categories are the paper's Fig. 2 series.
#pragma once

#include <cstdint>
#include <string>

#include "mpi/timecat.hpp"

namespace parcoll::mpiio {

struct FileStats {
  /// Time spent inside this file's I/O operations, summed over all ranks.
  mpi::TimeBreakdown time;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t collective_writes = 0;
  std::uint64_t collective_reads = 0;
  std::uint64_t independent_writes = 0;
  std::uint64_t independent_reads = 0;
  /// Total data-exchange/file-I/O cycles executed across collective calls.
  std::uint64_t exchange_cycles = 0;
  /// Read-modify-write fills performed by aggregators (write holes).
  std::uint64_t rmw_reads = 0;
  /// Collective calls that went through ParColl partitioning.
  std::uint64_t parcoll_calls = 0;
  /// Collective calls that used two-level (intra-node aggregated) staging.
  std::uint64_t intranode_calls = 0;
  /// Bytes shipped over the intra-node path (request metadata + payload,
  /// counted at the non-leader side).
  std::uint64_t intranode_bytes = 0;
  /// ParColl calls that switched to an intermediate file view (Fig. 4c).
  std::uint64_t view_switches = 0;
  /// Subgroups used by the most recent ParColl call.
  int last_num_groups = 0;
  /// Degraded-mode events observed during this file's operations (all zero
  /// unless a fault plan is installed).
  std::uint64_t fault_retries = 0;
  std::uint64_t fault_failovers = 0;
  std::uint64_t fault_drops = 0;
  std::uint64_t fault_reelections = 0;
  std::uint64_t fault_stalls = 0;
  /// Burst-buffer staging activity (all zero unless bb=enable): counted
  /// here by the file's own StagingStore as segments stage, spill and
  /// drain (its drain fibers also add their Drain/Faulted/Integrity time).
  std::uint64_t bb_staged_segments = 0;
  std::uint64_t bb_staged_bytes = 0;
  std::uint64_t bb_drained_bytes = 0;
  std::uint64_t bb_spills = 0;
  std::uint64_t bb_spill_bytes = 0;
  std::uint64_t bb_conflict_flushes = 0;
  std::uint64_t bb_drain_retries = 0;
  std::uint64_t bb_drain_failovers = 0;
  /// Checksum-pipeline activity (all zero unless the integrity hint is on):
  /// this file's totals, copied from the IntegrityManager at close by the
  /// file's first rank.
  std::uint64_t integrity_blocks = 0;
  std::uint64_t integrity_bytes = 0;
  std::uint64_t corrupt_detected = 0;
  std::uint64_t corrupt_repaired = 0;
  std::uint64_t scrub_repairs = 0;
  std::uint64_t integrity_errors = 0;

  FileStats& operator+=(const FileStats& other);

  /// The close-time summary (single line per category plus counters).
  [[nodiscard]] std::string summary(const std::string& name) const;
};

}  // namespace parcoll::mpiio
