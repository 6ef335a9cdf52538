// MPI-IO file handles.
//
// A FileHandle is one rank's handle to a collectively opened file: it holds
// the rank's file view and a pointer to comm-wide shared state (hints,
// statistics, the underlying Lustre file). Batched independent reads and
// writes live here; collective reads/writes are entered through
// core/parcoll.hpp (parcoll::core::write_at_all / read_at_all), which
// dispatch to plain ext2ph or to ParColl partitioning according to the
// hints. Every entry point runs the one request lifecycle below.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dtype/datatype.hpp"
#include "fault/fault.hpp"
#include "fs/lustre.hpp"
#include "mpi/comm.hpp"
#include "mpi/runtime.hpp"
#include "mpiio/ext2ph.hpp"
#include "mpiio/hints.hpp"
#include "mpiio/stats.hpp"
#include "mpiio/view.hpp"

namespace parcoll::bb {
class StagingStore;
}

namespace parcoll::mpiio {

/// Comm-wide shared state of one collective open of a file.
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
  /// The file's integrity counts when this open began (the manager counts
  /// per file for the file's whole lifetime; the summary reports the
  /// difference).
  fs::IntegrityCounters integrity_at_open;
  /// The plain collective call's aggregators and, once decided, their node
  /// leaders (null: a flat data path), which depend only on `comm` and
  /// `hints`: made by the open's first collective call (core/parcoll.cpp).
  Roster aggregators;
  std::optional<Roster> leader_aggregators;
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

/// One file I/O call between FileHandle::begin_call and its end: the
/// prepared request plus what the end needs (a read's unpack destination
/// and the snapshots the stats fold diffs against).
struct IoCall {
  bool is_write = true;
  PreparedRequest request;
  void* read_buffer = nullptr;
  std::uint64_t count = 0;
  dtype::Datatype memtype;
  mpi::TimeBreakdown time_before;
  fault::FaultCounters faults_before;
};

/// The call counters of one independent call (every rank counts its own).
[[nodiscard]] FileStats independent_counts(bool is_write);

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
  /// caches this rank's plan of the file's collective calls, so repeated
  /// collectives neither re-plan nor re-synchronize globally. Cleared by
  /// set_view.
  [[nodiscard]] std::shared_ptr<void>& engine_cache() { return engine_cache_; }

  // --- The request lifecycle ---
  //
  // Every file I/O entry point runs one lifecycle and keeps only its
  // service step:
  //   1. access check: a write on a read-only handle or a read on a
  //      write-only one throws std::logic_error before anything else;
  //   2. time and fault-counter snapshots;
  //   3. prepare: map the request through the view, then pack a write
  //      (charged as memcpy time) or size a read's landing buffer;
  //   4. hooks, one rule: a write registers its checksums (integrity on);
  //      a service that bypasses the bb staging store first lands staged
  //      data overlapping the request (bb on); a read verifies the store
  //      under its extents (integrity on);
  //   5. the service: one batched target call (write_at/read_at), one
  //      call per extent (posix_*_at), sieve windows (sieve_*_at), a
  //      helper fiber (iwrite_at/iread_at, the split-phase collectives)
  //      or the collective engine (write_at_all/read_at_all);
  //   6. unpack a read into the user buffer (charged as memcpy time);
  //   7. fold the call into the file's FileStats.

  /// Whether a call's service goes through the bb staging store.
  enum class Route {
    Direct,  // straight to the file system (independent I/O)
    Staged,  // through the staging store (the collective engine)
  };

  /// Steps 1-4. `buffer` is a write's source or a read's destination;
  /// nullptr moves a phantom payload.
  IoCall begin_call(bool is_write, Route route, std::uint64_t offset,
                    const void* buffer, std::uint64_t count,
                    const dtype::Datatype& memtype);
  /// Steps 6-7 for a call serviced on this fiber: unpack a read, then fold
  /// the time and fault events since begin_call, the bytes and `counts`
  /// (the family's call counters) into the file's stats. With `deliver`
  /// false (a call ending in an agreed error) the read is not unpacked,
  /// so the fold moves no clock.
  void end_call(IoCall& call, FileStats counts, bool deliver = true);
  /// Steps 6-7 for a call serviced on a helper fiber: as end_call, but the
  /// time folded is the helper's, and no fault events are: the helper
  /// shares the rank's fault counters with this fiber, so a diff here could
  /// count one event twice.
  void end_helper_call(IoCall& call, const mpi::TimeBreakdown& helper_time,
                       FileStats counts);

  /// An independent call serviced on this fiber: the whole lifecycle around
  /// `serve(target, request)`, where `target` reaches the file directly.
  template <typename Serve>
  void independent_call(bool is_write, std::uint64_t offset,
                        const void* buffer, std::uint64_t count,
                        const dtype::Datatype& memtype, Serve&& serve) {
    IoCall call =
        begin_call(is_write, Route::Direct, offset, buffer, count, memtype);
    DirectTarget target(self_.world().fs(), fs_id());
    serve(target, call.request);
    end_call(call, independent_counts(is_write));
  }

  // --- Batched independent I/O (offsets in etypes, relative to the view):
  // all of a request's extents are issued as one pipelined operation ---

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
  /// the shared pointer (a fetch-and-add round trip) and write there. A
  /// call the access mode rejects leaves the pointer where it was.
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
  [[nodiscard]] const FileStats& stats() const { return common_->stats; }
  /// The open's comm-wide state, for the collective engine and its helpers.
  [[nodiscard]] FileCommon& common() const { return *common_; }
  [[nodiscard]] std::uint64_t size() const {
    return self_.world().fs().file_size(common_->fs_id);
  }

  /// Merge statistics into the shared per-file stats (for writes made
  /// outside the lifecycle, like h5lite's pre-encoded metadata).
  void add_stats(const FileStats& delta) { common_->stats += delta; }

 private:
  /// Step 1: throw std::logic_error if the access mode forbids the call.
  void check_access(bool is_write) const;
  /// Step 4's hooks. Writes: checksum the payload where it enters the
  /// stack, so the block records ride alongside the data from here on.
  void register_write(const PreparedRequest& request);
  /// Land staged burst-buffer data overlapping the request, so a direct
  /// write is ordered after it and a direct read sees it.
  void flush_staged(const PreparedRequest& request);
  /// Reads: heal (Repair) or record (Detect) latent store corruption under
  /// the request's extents before any byte is served. Overlapping staged
  /// data lands first, since its undrained bytes would mismatch the
  /// registered checksums.
  void verify_read(const PreparedRequest& request);
  /// Step 6: unpack a read's landing buffer into the user buffer.
  void unpack(IoCall& call);
  /// Step 7, once `delta` holds the call's time: add the bytes and fold.
  void fold(const IoCall& call, FileStats delta);

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
