// Data-sieving independent I/O (ROMIO's ADIOI_GEN_WriteStrided /
// ADIOI_GEN_ReadStrided).
//
// Non-contiguous independent requests are serviced through a sieve buffer:
// the covering file window is read whole, the request's pieces are merged
// in, and the window is written back. Writes bracket each window with an
// advisory byte-range lock so the read-modify-write stays atomic against
// other writers. This is what an un-aggregated MPI-IO (or HDF5) strided
// write actually does — and for interleaved shared-file patterns the
// window locking plus doubled volume is exactly what makes "without
// collective I/O" collapse (paper Fig. 11, "Cray w/o Coll").
#pragma once

#include <cstdint>

#include "dtype/datatype.hpp"
#include "mpiio/file.hpp"

namespace parcoll::mpiio {

inline constexpr std::uint64_t kDefaultSieveBuffer = 512 * 1024;

/// Strided independent write through a sieve buffer (lock, read window,
/// merge, write back). Contiguous requests bypass the sieve.
void sieve_write_at(FileHandle& file, std::uint64_t offset, const void* buffer,
                    std::uint64_t count, const dtype::Datatype& memtype,
                    std::uint64_t sieve_buffer_size = kDefaultSieveBuffer);

/// Strided independent read through a sieve buffer (read windows, extract
/// the requested pieces). No locking needed.
void sieve_read_at(FileHandle& file, std::uint64_t offset, void* buffer,
                   std::uint64_t count, const dtype::Datatype& memtype,
                   std::uint64_t sieve_buffer_size = kDefaultSieveBuffer);

/// The data-sieving service of a prepared request, shared by sieve_*_at and
/// the collective calls that romio_cb_write/read=disable degrade: a request
/// of one extent goes to `target` whole; a longer one goes through sieve
/// windows, which reach the file system directly (staged burst-buffer data
/// under them must have landed). Handle-independent so helper fibers
/// (split collectives) can call it.
void sieve_serve(mpi::Rank& self, IoTarget& target, int fs_id,
                 PreparedRequest& request, bool is_write,
                 std::uint64_t sieve_buffer_size = kDefaultSieveBuffer);

}  // namespace parcoll::mpiio
