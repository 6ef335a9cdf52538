#include "mpiio/stats.hpp"

#include <sstream>

namespace parcoll::mpiio {

FileStats& FileStats::operator+=(const FileStats& other) {
  time += other.time;
  bytes_written += other.bytes_written;
  bytes_read += other.bytes_read;
  collective_writes += other.collective_writes;
  collective_reads += other.collective_reads;
  independent_writes += other.independent_writes;
  independent_reads += other.independent_reads;
  exchange_cycles += other.exchange_cycles;
  rmw_reads += other.rmw_reads;
  parcoll_calls += other.parcoll_calls;
  intranode_calls += other.intranode_calls;
  intranode_bytes += other.intranode_bytes;
  view_switches += other.view_switches;
  last_num_groups = other.last_num_groups ? other.last_num_groups
                                          : last_num_groups;
  fault_retries += other.fault_retries;
  fault_failovers += other.fault_failovers;
  fault_drops += other.fault_drops;
  fault_reelections += other.fault_reelections;
  fault_stalls += other.fault_stalls;
  bb_staged_segments += other.bb_staged_segments;
  bb_staged_bytes += other.bb_staged_bytes;
  bb_drained_bytes += other.bb_drained_bytes;
  bb_spills += other.bb_spills;
  bb_spill_bytes += other.bb_spill_bytes;
  bb_conflict_flushes += other.bb_conflict_flushes;
  bb_drain_retries += other.bb_drain_retries;
  bb_drain_failovers += other.bb_drain_failovers;
  integrity_blocks += other.integrity_blocks;
  integrity_bytes += other.integrity_bytes;
  corrupt_detected += other.corrupt_detected;
  corrupt_repaired += other.corrupt_repaired;
  scrub_repairs += other.scrub_repairs;
  integrity_errors += other.integrity_errors;
  return *this;
}

std::string FileStats::summary(const std::string& name) const {
  std::ostringstream os;
  os << "file \"" << name << "\" summary:\n";
  os << "  time:   compute=" << time[mpi::TimeCat::Compute]
     << "s p2p=" << time[mpi::TimeCat::P2P]
     << "s sync=" << time[mpi::TimeCat::Sync]
     << "s io=" << time[mpi::TimeCat::IO]
     << "s faulted=" << time[mpi::TimeCat::Faulted]
     << "s intra=" << time[mpi::TimeCat::Intra];
  if (time[mpi::TimeCat::Drain] > 0 || time[mpi::TimeCat::DrainWait] > 0) {
    os << "s drain=" << time[mpi::TimeCat::Drain]
       << "s dwait=" << time[mpi::TimeCat::DrainWait];
  }
  if (time[mpi::TimeCat::Integrity] > 0) {
    os << "s integrity=" << time[mpi::TimeCat::Integrity];
  }
  os << "s (sum over ranks)\n";
  os << "  data:   written=" << bytes_written << "B read=" << bytes_read
     << "B\n";
  os << "  calls:  coll_w=" << collective_writes << " coll_r="
     << collective_reads << " indep_w=" << independent_writes << " indep_r="
     << independent_reads << "\n";
  os << "  cycles: " << exchange_cycles << " (rmw_reads=" << rmw_reads
     << ")\n";
  os << "  parcoll: calls=" << parcoll_calls << " view_switches="
     << view_switches << " last_groups=" << last_num_groups;
  if (intranode_calls || intranode_bytes) {
    os << "\n  intra:  calls=" << intranode_calls
       << " bytes=" << intranode_bytes << "B";
  }
  if (fault_retries || fault_failovers || fault_drops || fault_reelections ||
      fault_stalls) {
    os << "\n  faults: retries=" << fault_retries
       << " failovers=" << fault_failovers << " drops=" << fault_drops
       << " reelections=" << fault_reelections
       << " stalls=" << fault_stalls;
  }
  if (bb_staged_segments || bb_spills) {
    os << "\n  bb:     staged=" << bb_staged_segments << " ("
       << bb_staged_bytes << "B) drained=" << bb_drained_bytes
       << "B spills=" << bb_spills << " (" << bb_spill_bytes
       << "B) conflict_flushes=" << bb_conflict_flushes
       << " drain_retries=" << bb_drain_retries
       << " drain_failovers=" << bb_drain_failovers;
  }
  if (integrity_blocks || corrupt_detected || integrity_errors) {
    os << "\n  integrity: blocks=" << integrity_blocks << " ("
       << integrity_bytes << "B) detected=" << corrupt_detected
       << " repaired=" << corrupt_repaired
       << " scrub_repairs=" << scrub_repairs
       << " errors=" << integrity_errors;
  }
  return os.str();
}

}  // namespace parcoll::mpiio
