// MPI-IO file handles.
//
// A FileHandle is one rank's handle to a collectively opened file: it holds
// the rank's file view and a pointer to comm-wide shared state (hints,
// statistics, the underlying Lustre file). Independent reads/writes live
// here; collective reads/writes are entered through core/parcoll.hpp
// (parcoll::core::write_at_all / read_at_all), which dispatch to plain
// ext2ph or to ParColl partitioning according to the hints.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dtype/datatype.hpp"
#include "fs/lustre.hpp"
#include "mpi/comm.hpp"
#include "mpi/runtime.hpp"
#include "mpiio/hints.hpp"
#include "mpiio/stats.hpp"
#include "mpiio/view.hpp"

namespace parcoll::bb {
class StagingStore;
}

namespace parcoll::mpiio {

/// Comm-wide shared state of an open file.
struct FileCommon {
  ~FileCommon();  // out of line: bb::StagingStore is incomplete here

  int fs_id = -1;
  std::string name;
  Hints hints;
  FileStats stats;
  mpi::Comm comm;
  /// The shared file pointer (etypes). Guarded by fetch-and-add semantics:
  /// each shared-pointer operation pays a metadata round trip.
  std::uint64_t shared_position = 0;
  /// Burst-buffer staging store (null unless the bb hint enables it),
  /// counting into `stats`. Collective writes — split-phase helpers
  /// included — land here and drain behind; independent I/O and
  /// close/sync flush through it for consistency.
  std::unique_ptr<bb::StagingStore> bb;
};

/// A request prepared for the I/O engines: absolute file extents plus the
/// matching packed byte stream (empty in phantom mode).
struct PreparedRequest {
  std::vector<fs::Extent> extents;
  std::vector<std::byte> packed;
  std::uint64_t bytes = 0;
  [[nodiscard]] std::byte* data() {
    return packed.empty() ? nullptr : packed.data();
  }
  [[nodiscard]] const std::byte* data() const {
    return packed.empty() ? nullptr : packed.data();
  }
};

/// MPI_File_open access modes (combinable bit flags).
enum AccessMode : unsigned {
  kModeRdonly = 1u << 0,
  kModeWronly = 1u << 1,
  kModeRdwr = 1u << 2,
  kModeCreate = 1u << 3,
  kModeExcl = 1u << 4,   // with kModeCreate: error if the file exists
  kModeAppend = 1u << 5, // file pointer starts at end of file
};

class FileHandle {
 public:
  /// Collective open (creates the file if needed, applying the hints'
  /// striping). All members of `comm` must call with identical arguments.
  FileHandle(mpi::Rank& self, const mpi::Comm& comm, const std::string& name,
             const Hints& hints = {},
             unsigned amode = kModeRdwr | kModeCreate);

  FileHandle(const FileHandle&) = delete;
  FileHandle& operator=(const FileHandle&) = delete;

  /// MPI_File_set_view: offsets in subsequent calls count etypes within
  /// the stream the (disp, etype, filetype) triple defines. Local call.
  /// Resets the collective engine's cached partition (the paper ties
  /// pattern detection to file-view initiation).
  void set_view(std::uint64_t disp, std::uint64_t etype_size,
                const dtype::Datatype& filetype);

  /// Opaque per-handle state owned by the collective engine (core/):
  /// caches the ParColl subgroup partition across calls so repeated
  /// collectives need no global re-synchronization. Cleared by set_view.
  [[nodiscard]] std::shared_ptr<void>& engine_cache() { return engine_cache_; }

  // --- Independent I/O (offsets in etypes, relative to the view) ---

  void write_at(std::uint64_t offset, const void* buffer, std::uint64_t count,
                const dtype::Datatype& memtype);
  void read_at(std::uint64_t offset, void* buffer, std::uint64_t count,
               const dtype::Datatype& memtype);

  // --- Individual file pointer (per handle, in etypes) ---

  enum class Whence { Set, Cur, End };

  /// MPI_File_seek. `End` is supported for contiguous views only (the end
  /// of a holey view is not well-defined from the file size alone).
  void seek(std::int64_t offset, Whence whence);
  [[nodiscard]] std::uint64_t position() const { return position_; }
  /// Advance the pointer by a completed transfer of `bytes` of data.
  void advance_bytes(std::uint64_t bytes);

  /// Pointer-based independent I/O: read/write at position(), then advance.
  void write(const void* buffer, std::uint64_t count,
             const dtype::Datatype& memtype);
  void read(void* buffer, std::uint64_t count, const dtype::Datatype& memtype);

  /// MPI_File_sync: flush/visibility round trip (local metadata cost).
  void sync();

  /// MPI_File_set_atomicity: in atomic mode, independent writes bracket
  /// their covering range with an exclusive file lock (sequential
  /// consistency for overlapping writers), at the usual locking cost.
  void set_atomicity(bool atomic) { atomic_ = atomic; }
  [[nodiscard]] bool atomicity() const { return atomic_; }

  // --- Shared file pointer (one per file, MPI_File_*_shared) ---

  /// Atomically claim `count * memtype.size()` bytes worth of etypes at
  /// the shared pointer (a fetch-and-add round trip) and write there.
  void write_shared(const void* buffer, std::uint64_t count,
                    const dtype::Datatype& memtype);
  void read_shared(void* buffer, std::uint64_t count,
                   const dtype::Datatype& memtype);
  [[nodiscard]] std::uint64_t shared_position() const {
    return common_->shared_position;
  }

  /// Collective close: drains staged data, copies the file's integrity
  /// totals into its statistics, and synchronizes. The close-time summary
  /// (the paper's per-file profile report) is available via
  /// stats().summary(name()).
  void close();

  // --- Accessors (used by the collective engines in core/) ---

  [[nodiscard]] mpi::Rank& self() { return self_; }
  [[nodiscard]] const mpi::Comm& comm() const { return common_->comm; }
  [[nodiscard]] const Hints& hints() const { return common_->hints; }
  [[nodiscard]] const FileView& view() const { return view_; }
  [[nodiscard]] int fs_id() const { return common_->fs_id; }
  [[nodiscard]] const std::string& name() const { return common_->name; }
  [[nodiscard]] unsigned amode() const { return amode_; }
  /// Throws if the access mode forbids the operation.
  void require_writable() const;
  void require_readable() const;
  [[nodiscard]] const FileStats& stats() const { return common_->stats; }
  /// The burst-buffer staging store, or null when bb is off.
  [[nodiscard]] bb::StagingStore* bb_store() const {
    return common_->bb.get();
  }
  [[nodiscard]] std::uint64_t size() const {
    return self_.world().fs().file_size(common_->fs_id);
  }

  /// Map a request through the view and, for writes with a real buffer,
  /// pack the data (charging memcpy time). `buffer` may be nullptr.
  PreparedRequest prepare_write(std::uint64_t offset, const void* buffer,
                                std::uint64_t count,
                                const dtype::Datatype& memtype);
  /// Map a read request; allocates the packed landing buffer when `buffer`
  /// is real.
  PreparedRequest prepare_read(std::uint64_t offset, const void* buffer,
                               std::uint64_t count,
                               const dtype::Datatype& memtype);
  /// Unpack a completed read's packed stream into the user buffer.
  void finish_read(PreparedRequest& request, void* buffer, std::uint64_t count,
                   const dtype::Datatype& memtype);

  // --- Burst-buffer and integrity hooks, run by every I/O entry point ---

  /// Writes: checksum the payload where it enters the stack, so the block
  /// records ride alongside the data from here on (integrity on).
  void register_write(const PreparedRequest& request);
  /// Independent I/O: land staged burst-buffer data overlapping the
  /// request first, so a direct write is ordered after it and a direct
  /// read sees it (bb on).
  void flush_staged(const PreparedRequest& request);
  /// Reads: heal (Repair) or record (Detect) latent store corruption under
  /// the request's extents before any byte is served (integrity on).
  /// Overlapping staged data lands first, since its undrained bytes would
  /// mismatch the registered checksums.
  void verify_read(const PreparedRequest& request);

  /// Merge an operation's statistics into the shared per-file stats.
  void add_stats(const FileStats& delta) { common_->stats += delta; }

  /// Snapshot of this rank's time breakdown, for charging deltas to stats.
  [[nodiscard]] mpi::TimeBreakdown time_snapshot() const {
    return self_.times().breakdown();
  }
  [[nodiscard]] static mpi::TimeBreakdown time_delta(
      const mpi::TimeBreakdown& before, const mpi::TimeBreakdown& after);

 private:
  mpi::Rank& self_;
  std::shared_ptr<FileCommon> common_;
  FileView view_;
  std::shared_ptr<void> engine_cache_;
  std::uint64_t position_ = 0;  // individual file pointer, in etypes
  unsigned amode_ = kModeRdwr | kModeCreate;
  bool atomic_ = false;
  bool open_ = true;
};

}  // namespace parcoll::mpiio
