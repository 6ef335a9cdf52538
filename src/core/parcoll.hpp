// ParColl: partitioned collective I/O — the public collective entry points.
//
// write_at_all / read_at_all are the MPI_File_write_at_all /
// MPI_File_read_at_all analogues. With hints.parcoll_num_groups <= 1 they
// run the plain extended two-phase protocol over the whole communicator
// (the paper's "Cray implementation" baseline). With N > 1 they run the
// ParColl protocol: the process group and the file are consistently divided
// into subgroups and File Areas, aggregators are re-distributed (Fig. 5),
// an intermediate file view is switched in when the pattern requires it
// (Fig. 4c), and each subgroup then runs ext2ph privately — replacing one
// global synchronization domain by N small ones.
//
// ParColl instruments the internals only; it does not alter MPI-IO
// semantics. The bytes that land in the file are identical either way
// (asserted by the test suite).
#pragma once

#include <cstdint>
#include <memory>

#include "core/config.hpp"
#include "dtype/datatype.hpp"
#include "mpiio/file.hpp"

namespace parcoll::core {

struct CollectiveOutcome {
  std::uint64_t bytes = 0;  // this rank's contribution
  /// True when the call went through ParColl partitioning (ParColl hints
  /// on and collective buffering enabled for the direction).
  bool partitioned = false;
  PartitionMode mode = PartitionMode::SingleGroup;
  int num_groups = 1;
  std::uint64_t cycles = 0;     // exchange/I-O cycles this rank executed
  std::uint64_t rmw_reads = 0;  // aggregator RMW fills on this rank
  /// True when the call used two-level (intra-node aggregated) staging.
  bool two_level = false;
  /// Bytes this rank shipped over the intra-node path.
  std::uint64_t intra_bytes = 0;
  /// The communicator the call synchronized: the subgroup's for a call
  /// partitioned into several groups, else the one the call was made on.
  mpi::Comm comm;
};

/// Collective write through the file's view. All members of the file's
/// communicator must call, with matching (offset, count, memtype).
CollectiveOutcome write_at_all(mpiio::FileHandle& file, std::uint64_t offset,
                               const void* buffer, std::uint64_t count,
                               const dtype::Datatype& memtype);

/// Collective read through the file's view.
CollectiveOutcome read_at_all(mpiio::FileHandle& file, std::uint64_t offset,
                              void* buffer, std::uint64_t count,
                              const dtype::Datatype& memtype);

/// MPI_File_write_all / read_all: collective I/O at the handle's individual
/// file pointer, advancing it by the transfer.
CollectiveOutcome write_all(mpiio::FileHandle& file, const void* buffer,
                            std::uint64_t count, const dtype::Datatype& memtype);
CollectiveOutcome read_all(mpiio::FileHandle& file, void* buffer,
                           std::uint64_t count, const dtype::Datatype& memtype);

/// The collective engine entry used by write_at_all/read_at_all and by the
/// split-collective helper fibers: make (or reuse via `cache_slot`) the
/// call's plan and run the protocol. Collective over `comm`, which is
/// `file.comm` or a split-phase helper's copy of it.
CollectiveOutcome run_collective_engine(mpi::Rank& self,
                                        mpiio::FileCommon& file,
                                        const mpi::Comm& comm,
                                        mpiio::PreparedRequest& prep,
                                        bool is_write,
                                        std::shared_ptr<void>* cache_slot);

/// Close the subgroup-local part of a partitioned call for the invariant
/// checker's sync-scope rule: call once the call's last subgroup collective
/// has run (a no-op without a checker or a partition). `comm` and `outcome`
/// are run_collective_engine's.
void end_subgroup_scope(mpi::Rank& self, const mpi::Comm& comm,
                        const CollectiveOutcome& outcome);

/// The call counters of one completed collective call, for the lifecycle's
/// stats fold (which adds the bytes, time and fault events). Every rank
/// counts its own cycles and intra-node bytes; the file communicator's
/// first rank counts the call-level counters.
[[nodiscard]] mpiio::FileStats collective_counts(
    mpiio::FileHandle& file, const CollectiveOutcome& outcome, bool is_write);

/// The partitioning decision the hints + this request would produce: runs
/// the partition's exchange and build (plan_partition), not the subgroup
/// split, so it must be called by every member. For introspection.
ParcollDecision plan_decision(mpiio::FileHandle& file, std::uint64_t offset,
                              std::uint64_t count,
                              const dtype::Datatype& memtype);

}  // namespace parcoll::core
