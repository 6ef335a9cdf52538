// Nonblocking independent I/O (MPI_File_iwrite_at / MPI_File_iread_at).
//
// The operation proceeds on a helper fiber (Catamount could not do this —
// no threads — but the simulator models the threaded machine, as for split
// collectives). The buffer must stay valid until the matching wait.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "dtype/datatype.hpp"
#include "mpiio/file.hpp"

namespace parcoll::mpiio {

/// A call whose service runs on a helper fiber of the calling rank: the
/// nonblocking independent calls below and the split-phase collectives
/// (core/split.hpp). The caller runs the lifecycle up to the service
/// (FileHandle::begin_call), the helper runs the service, and whoever
/// joins waits for it and finishes the call.
class HelperCall {
 public:
  using Serve = std::function<void(mpi::Rank& helper, PreparedRequest&)>;

  HelperCall() = default;  // use spawn()
  HelperCall(const HelperCall&) = delete;  // the helper fiber holds it
  HelperCall& operator=(const HelperCall&) = delete;

  /// Start `serve` on a helper fiber running on the caller's rank id, with
  /// its own Rank so its time is kept apart from the caller's. It wakes
  /// the waiters when done.
  static std::shared_ptr<HelperCall> spawn(FileHandle& file, IoCall call,
                                           Serve serve);

  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] bool is_write() const { return call_.is_write; }

  /// Block until the helper is done, charging the wait to `charge` (IO
  /// for nonblocking calls, Sync for split collectives).
  void wait(mpi::Rank& self, mpi::TimeCat charge, const char* why);
  /// After wait(): finish the call with the helper's time and `counts`
  /// (FileHandle::end_helper_call).
  void finish(FileHandle& file, FileStats counts);

 private:
  IoCall call_;
  bool done_ = false;
  mpi::TimeBreakdown helper_time_;
  std::vector<sim::ProcId> waiters_;
};

/// Handle to an outstanding nonblocking independent operation.
class IoRequest {
 public:
  IoRequest() = default;
  /// Internal: wraps the helper call (use iwrite_at/iread_at).
  explicit IoRequest(std::shared_ptr<HelperCall> call)
      : call_(std::move(call)) {}

  [[nodiscard]] bool valid() const { return call_ != nullptr; }
  [[nodiscard]] bool done() const { return call_ && call_->done(); }

 private:
  friend void io_wait(FileHandle&, IoRequest&);
  std::shared_ptr<HelperCall> call_;
};

/// Start an independent write at `offset` (etypes in the view).
IoRequest iwrite_at(FileHandle& file, std::uint64_t offset, const void* buffer,
                    std::uint64_t count, const dtype::Datatype& memtype);

/// Start an independent read at `offset`.
IoRequest iread_at(FileHandle& file, std::uint64_t offset, void* buffer,
                   std::uint64_t count, const dtype::Datatype& memtype);

/// Block until the operation completes (wait charged to IO); for reads,
/// unpacks into the user buffer.
void io_wait(FileHandle& file, IoRequest& request);

}  // namespace parcoll::mpiio
