#include "mpiio/file.hpp"

#include <algorithm>
#include <stdexcept>

#include "bb/staging.hpp"
#include "dtype/pack.hpp"
#include "fs/integrity.hpp"
#include "mpi/collectives.hpp"
#include "mpiio/aggregator_dist.hpp"

namespace parcoll::mpiio {

FileCommon::~FileCommon() = default;

FileHandle::FileHandle(mpi::Rank& self, const mpi::Comm& comm,
                       const std::string& name, const Hints& hints,
                       unsigned amode)
    : self_(self), amode_(amode) {
  const int rw_bits = (amode & kModeRdonly ? 1 : 0) +
                      (amode & kModeWronly ? 1 : 0) +
                      (amode & kModeRdwr ? 1 : 0);
  if (rw_bits != 1) {
    throw std::invalid_argument(
        "FileHandle: exactly one of RDONLY/WRONLY/RDWR must be given");
  }
  // Reject impossible hints up front, before any simulated time is spent
  // (pure CPU check: identical on every rank, no communication).
  hints.validate(comm.size());
  auto& fs = self.world().fs();
  const bool existed = fs.exists(name);
  if ((amode & kModeCreate) && (amode & kModeExcl) && existed) {
    throw std::invalid_argument("FileHandle: MODE_EXCL but the file exists");
  }
  if (!(amode & kModeCreate) && !existed) {
    throw std::invalid_argument("FileHandle: no MODE_CREATE and no such file");
  }
  // Every rank contacts the metadata server; the file is created once.
  // With romio_no_indep_rw and an explicit aggregator set, non-aggregators
  // defer their open (ROMIO's deferred-open optimization): they skip the
  // metadata round trip since only aggregators will touch the file.
  bool deferred = false;
  if (hints.no_indep_rw &&
      (hints.cb_nodes > 0 || !hints.cb_node_list.empty())) {
    const auto aggregators = select_aggregators(
        self.world().model().topology, comm, hints,
        std::vector<int>(static_cast<std::size_t>(comm.size()), 0), 1)[0];
    const int local = comm.local_rank(self.rank());
    deferred = !std::binary_search(aggregators.begin(), aggregators.end(),
                                   local);
  }
  const int fs_id = fs.open(name, hints.striping_factor, hints.striping_unit,
                            /*charge_metadata=*/!deferred);
  // One state per collective open, as separate MPI file handles have:
  // keyed by the underlying file id (deleting and re-creating a file must
  // not resurrect old state) and the open's position among the
  // communicator's collectives (reopening starts fresh), which every member
  // agrees on.
  const std::string key = "mpiio:" + std::to_string(comm.context_id()) + ":" +
                          std::to_string(fs_id) + ":" +
                          std::to_string(self.coll_seq(comm.context_id()));
  common_ = self.world().shared_object<FileCommon>(
      key, [&]() {
        auto common = std::make_shared<FileCommon>();
        common->fs_id = fs_id;
        common->name = name;
        common->hints = hints;
        common->comm = comm;
        if (hints.bb.enabled) {
          common->bb = std::make_unique<bb::StagingStore>(
              self.world(), fs_id, hints.bb, common->stats);
        }
        if (const auto* integ = self.world().integrity()) {
          common->integrity_at_open = integ->counters(fs_id);
        }
        return common;
      });
  if (common_->hints.integrity.enabled()) {
    // World-wide singleton; the first opener's config wins (enable_integrity
    // is idempotent). With the hint off nothing is ever installed, so the
    // default path stays bit-identical.
    self.world().enable_integrity(common_->hints.integrity);
  }
  // Collective open semantics: nobody proceeds until everyone has opened.
  mpi::barrier(self, comm);
  if (amode & kModeAppend) {
    position_ = self.world().fs().file_size(common_->fs_id) /
                view_.etype_size();
  }
}

void FileHandle::set_view(std::uint64_t disp, std::uint64_t etype_size,
                          const dtype::Datatype& filetype) {
  view_ = FileView(disp, etype_size, filetype);
  engine_cache_.reset();  // the access pattern may change with the view
  position_ = 0;          // MPI_File_set_view resets the file pointers
}

void FileHandle::seek(std::int64_t offset, Whence whence) {
  std::int64_t base = 0;
  switch (whence) {
    case Whence::Set:
      base = 0;
      break;
    case Whence::Cur:
      base = static_cast<std::int64_t>(position_);
      break;
    case Whence::End: {
      if (!view_.contiguous()) {
        throw std::logic_error(
            "FileHandle::seek: Whence::End requires a contiguous view");
      }
      const std::uint64_t bytes = size() > view_.disp() ? size() - view_.disp() : 0;
      base = static_cast<std::int64_t>(bytes / view_.etype_size());
      break;
    }
  }
  const std::int64_t target = base + offset;
  if (target < 0) {
    throw std::invalid_argument("FileHandle::seek: negative file position");
  }
  position_ = static_cast<std::uint64_t>(target);
}

void FileHandle::advance_bytes(std::uint64_t bytes) {
  position_ += bytes / view_.etype_size();
}

void FileHandle::write(const void* buffer, std::uint64_t count,
                       const dtype::Datatype& memtype) {
  write_at(position_, buffer, count, memtype);
  advance_bytes(count * memtype.size());
}

void FileHandle::read(void* buffer, std::uint64_t count,
                      const dtype::Datatype& memtype) {
  read_at(position_, buffer, count, memtype);
  advance_bytes(count * memtype.size());
}

void FileHandle::sync() {
  // MPI_File_sync promises durability, so staged burst-buffer data must
  // land first (wait charged to DrainWait by the store).
  if (common_->bb) {
    common_->bb->flush_all(self_);
  }
  // A flush round trip to the servers; data is already durable in the
  // simulated store, so only the latency matters.
  const double start = self_.now();
  self_.engine().sleep(0.5e-3);
  self_.times().add(mpi::TimeCat::IO, self_.now() - start);
}

namespace {
/// Fetch-and-add on the shared pointer: one metadata server round trip.
std::uint64_t claim_shared(mpi::Rank& self, FileCommon& common,
                           std::uint64_t etypes) {
  self.busy(mpi::TimeCat::IO, 0.25e-3);  // pointer-server round trip
  const std::uint64_t at = common.shared_position;
  common.shared_position += etypes;
  return at;
}
}  // namespace

void FileHandle::write_shared(const void* buffer, std::uint64_t count,
                              const dtype::Datatype& memtype) {
  check_access(true);
  const std::uint64_t etypes = count * memtype.size() / view_.etype_size();
  const std::uint64_t at = claim_shared(self_, *common_, etypes);
  write_at(at, buffer, count, memtype);
}

void FileHandle::read_shared(void* buffer, std::uint64_t count,
                             const dtype::Datatype& memtype) {
  check_access(false);
  const std::uint64_t etypes = count * memtype.size() / view_.etype_size();
  const std::uint64_t at = claim_shared(self_, *common_, etypes);
  read_at(at, buffer, count, memtype);
}

FileStats independent_counts(bool is_write) {
  FileStats counts;
  (is_write ? counts.independent_writes : counts.independent_reads) = 1;
  return counts;
}

void FileHandle::check_access(bool is_write) const {
  if (is_write && (amode_ & kModeRdonly)) {
    throw std::logic_error("FileHandle: write on a read-only handle");
  }
  if (!is_write && (amode_ & kModeWronly)) {
    throw std::logic_error("FileHandle: read on a write-only handle");
  }
}

IoCall FileHandle::begin_call(bool is_write, Route route, std::uint64_t offset,
                              const void* buffer, std::uint64_t count,
                              const dtype::Datatype& memtype) {
  check_access(is_write);
  IoCall call;
  call.is_write = is_write;
  // A read's entry point hands in its (mutable) destination.
  call.read_buffer = is_write ? nullptr : const_cast<void*>(buffer);
  call.count = count;
  call.memtype = memtype;
  call.time_before = self_.times().breakdown();
  call.faults_before = self_.world().fault_counters(self_.rank());

  PreparedRequest& request = call.request;
  request.bytes = count * memtype.size();
  request.extents = view_.map(offset, request.bytes);
  if (buffer != nullptr && request.bytes > 0) {
    request.packed.resize(request.bytes);
    if (is_write) dtype::pack(buffer, memtype, count, request.packed.data());
  }
  if (is_write) {
    self_.touch_bytes(static_cast<double>(request.bytes));  // pack cost
    register_write(request);
  }
  if (route == Route::Direct) flush_staged(request);
  if (!is_write) verify_read(request);
  return call;
}

void FileHandle::end_call(IoCall& call, FileStats counts, bool deliver) {
  if (deliver) unpack(call);
  const mpi::TimeBreakdown now = self_.times().breakdown();
  for (std::size_t i = 0; i < mpi::kNumTimeCats; ++i) {
    counts.time.seconds[i] = now.seconds[i] - call.time_before.seconds[i];
  }
  // The rank's counters change only while its fibers run. Events of an
  // outstanding helper call of this rank land here too; helper calls fold
  // none themselves (end_helper_call), so no event is counted twice.
  const fault::FaultCounters after = self_.world().fault_counters(self_.rank());
  const fault::FaultCounters& before = call.faults_before;
  counts.fault_retries = after.retries - before.retries;
  counts.fault_failovers = after.failovers - before.failovers;
  counts.fault_drops = after.drops - before.drops;
  counts.fault_reelections = after.reelections - before.reelections;
  counts.fault_stalls = after.stalls - before.stalls;
  fold(call, counts);
}

void FileHandle::end_helper_call(IoCall& call,
                                 const mpi::TimeBreakdown& helper_time,
                                 FileStats counts) {
  unpack(call);
  counts.time = helper_time;
  fold(call, counts);
}

void FileHandle::unpack(IoCall& call) {
  if (call.is_write) return;
  if (call.read_buffer != nullptr && !call.request.packed.empty()) {
    dtype::unpack(call.request.packed.data(), call.memtype, call.count,
                  call.read_buffer);
  }
  self_.touch_bytes(static_cast<double>(call.request.bytes));  // unpack cost
}

void FileHandle::fold(const IoCall& call, FileStats delta) {
  (call.is_write ? delta.bytes_written : delta.bytes_read) =
      call.request.bytes;
  common_->stats += delta;
}

void FileHandle::register_write(const PreparedRequest& request) {
  if (auto* integ = self_.world().integrity()) {
    const double seconds = integ->register_write(self_.rank(), fs_id(),
                                                 request.extents,
                                                 request.data());
    if (seconds > 0) self_.busy(mpi::TimeCat::Integrity, seconds);
  }
}

void FileHandle::flush_staged(const PreparedRequest& request) {
  if (common_->bb && !common_->bb->idle()) {
    common_->bb->flush_overlapping(self_, request.extents);
  }
}

void FileHandle::verify_read(const PreparedRequest& request) {
  if (auto* integ = self_.world().integrity()) {
    flush_staged(request);
    const double seconds = integ->verify_ranges(
        self_.rank(), fs_id(), request.extents, self_.world().fs().store());
    if (seconds > 0) self_.busy(mpi::TimeCat::Integrity, seconds);
  }
}

void FileHandle::write_at(std::uint64_t offset, const void* buffer,
                          std::uint64_t count, const dtype::Datatype& memtype) {
  independent_call(
      true, offset, buffer, count, memtype,
      [&](DirectTarget& target, PreparedRequest& request) {
        const bool lock = atomic_ && !request.extents.empty();
        fs::Extent span{};
        if (lock) {
          span = fs::Extent{request.extents.front().offset,
                            request.extents.back().end() -
                                request.extents.front().offset};
          self_.world().fs().range_locks().lock(self_.rank(), fs_id(), span);
        }
        target.write(self_, request.extents, request.data());
        if (lock) {
          self_.world().fs().range_locks().unlock(self_.rank(), fs_id(), span);
        }
      });
}

void FileHandle::read_at(std::uint64_t offset, void* buffer,
                         std::uint64_t count, const dtype::Datatype& memtype) {
  independent_call(false, offset, buffer, count, memtype,
                   [&](DirectTarget& target, PreparedRequest& request) {
                     target.read(self_, request.extents, request.data());
                   });
}

void FileHandle::close() {
  if (!open_) {
    throw std::logic_error("FileHandle::close: already closed");
  }
  open_ = false;
  if (common_->bb) {
    // Everyone arrives before the final flush, so no rank can still be
    // staging writes while the drain completes. Close-time durability:
    // every staged byte reaches Lustre before close returns.
    mpi::barrier(self_, common_->comm);
    common_->bb->flush_all(self_);
  }
  if (auto* integ = self_.world().integrity()) {
    // Close-time integrity sweep: everyone arrives first so no rank can
    // still be writing, then one rank re-verifies every registered block
    // of this file (the hard guarantee behind the scrubber's best-effort
    // passes) and copies this open's share of the file's pipeline totals
    // into its stats.
    mpi::barrier(self_, common_->comm);
    if (common_->comm.local_rank(self_.rank()) == 0) {
      const double seconds =
          integ->scrub_file(self_.rank(), fs_id(), self_.world().fs().store(),
                            /*by_scrubber=*/false);
      if (seconds > 0) self_.busy(mpi::TimeCat::Integrity, seconds);
      const fs::IntegrityCounters& now = integ->counters(fs_id());
      const fs::IntegrityCounters& then = common_->integrity_at_open;
      FileStats& stats = common_->stats;
      stats.integrity_blocks = now.blocks - then.blocks;
      stats.integrity_bytes = now.bytes_checksummed - then.bytes_checksummed;
      stats.corrupt_detected = now.detected - then.detected;
      stats.corrupt_repaired = now.repaired - then.repaired;
      stats.scrub_repairs = now.scrub_repairs - then.scrub_repairs;
      stats.integrity_errors = now.errors - then.errors;
    }
    // Collective error agreement: recovery-exhausted extents surface as
    // the identical CollectiveIoError on every rank, or on none. This is
    // the file-wide verdict: a partitioned call agreed only within its
    // subgroup, on the data that subgroup touched.
    const std::uint64_t word = mpi::allreduce_max(
        self_, common_->comm, integ->pending_word(fs_id()));
    if (word != 0) {
      mpi::barrier(self_, common_->comm);
      throw integ->error_of(word);
    }
  }
  mpi::barrier(self_, common_->comm);
}

}  // namespace parcoll::mpiio
