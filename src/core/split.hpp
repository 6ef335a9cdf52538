// Split-phase collective I/O (MPI_File_write_at_all_begin / _end).
//
// The paper (§2.3) observes that Catamount's single-threaded processes
// rule out split-phase collective I/O [Dickens & Thakur], and predicts
// that even with threads (the then-upcoming Compute Node Linux), hiding
// I/O behind computation "does not do away with the need of
// synchronization ... the relative dominance of synchronization cost could
// become even more pronounced with the diminishing I/O time."
//
// The simulator can model that threaded machine: begin() hands the
// collective to a helper fiber (the progress thread) running on the same
// rank, and end() joins it. The bench abl_split_phase tests the paper's
// prediction directly.
//
// Semantics: begin() is itself collective (it duplicates a private
// communicator for the helper fibers and packs the buffer, which must stay
// untouched until end()). Exactly one split operation may be outstanding
// per file handle, and it must be completed before the file is closed.
#pragma once

#include <memory>

#include "core/parcoll.hpp"
#include "mpiio/async.hpp"

namespace parcoll::core {

/// Handle to an outstanding split collective.
class SplitRequest {
 public:
  SplitRequest() = default;
  /// Internal: wraps the helper call and the slot its outcome lands in
  /// (use the begin functions).
  SplitRequest(std::shared_ptr<mpiio::HelperCall> call,
               std::shared_ptr<CollectiveOutcome> outcome)
      : call_(std::move(call)), outcome_(std::move(outcome)) {}

  [[nodiscard]] bool valid() const { return call_ != nullptr; }
  [[nodiscard]] bool done() const { return call_ && call_->done(); }

 private:
  friend CollectiveOutcome split_end(mpiio::FileHandle&, SplitRequest&);
  std::shared_ptr<mpiio::HelperCall> call_;
  std::shared_ptr<CollectiveOutcome> outcome_;
};

/// Start a collective write at `offset`; the operation proceeds on a
/// helper fiber while the caller computes. `buffer` must remain valid and
/// unmodified until split_end.
SplitRequest write_at_all_begin(mpiio::FileHandle& file, std::uint64_t offset,
                                const void* buffer, std::uint64_t count,
                                const dtype::Datatype& memtype);

/// Start a collective read at `offset`; the data lands in `buffer` by the
/// time split_end returns.
SplitRequest read_at_all_begin(mpiio::FileHandle& file, std::uint64_t offset,
                               void* buffer, std::uint64_t count,
                               const dtype::Datatype& memtype);

/// Complete an outstanding split collective: blocks until the helper
/// finishes (the wait is charged to Sync), merges the helper's time into
/// the file statistics, and (for reads) unpacks into the user buffer. No
/// per-call error agreement runs here: an unrecoverable integrity error of
/// a split call surfaces at close.
CollectiveOutcome split_end(mpiio::FileHandle& file, SplitRequest& request);

}  // namespace parcoll::core
