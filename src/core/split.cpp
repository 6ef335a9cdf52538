#include "core/split.hpp"

#include <stdexcept>

#include "mpi/collectives.hpp"

namespace parcoll::core {

namespace {

SplitRequest split_begin(mpiio::FileHandle& file, bool is_write,
                         std::uint64_t offset, const void* buffer,
                         std::uint64_t count, const dtype::Datatype& memtype) {
  mpiio::IoCall call =
      file.begin_call(is_write, mpiio::FileHandle::Route::Staged, offset,
                      buffer, count, memtype);
  // The helper "progress threads" get their own communicator so their
  // collective sequence numbers never interleave with the main threads'.
  const mpi::Comm helper_comm = mpi::comm_split(
      file.self(), file.comm(), 0, file.comm().local_rank(file.self().rank()));
  auto outcome = std::make_shared<CollectiveOutcome>();
  // The helper stages into the file's own burst-buffer store, so close()
  // drains its writes and the file's stats count them.
  return SplitRequest(
      mpiio::HelperCall::spawn(
          file, std::move(call),
          [outcome, helper_comm, common = &file.common(),
           is_write](mpi::Rank& helper, mpiio::PreparedRequest& request) {
            *outcome = run_collective_engine(helper, *common, helper_comm,
                                             request, is_write,
                                             /*cache_slot=*/nullptr);
            end_subgroup_scope(helper, helper_comm, *outcome);
          }),
      outcome);
}

}  // namespace

SplitRequest write_at_all_begin(mpiio::FileHandle& file, std::uint64_t offset,
                                const void* buffer, std::uint64_t count,
                                const dtype::Datatype& memtype) {
  return split_begin(file, true, offset, buffer, count, memtype);
}

SplitRequest read_at_all_begin(mpiio::FileHandle& file, std::uint64_t offset,
                               void* buffer, std::uint64_t count,
                               const dtype::Datatype& memtype) {
  return split_begin(file, false, offset, buffer, count, memtype);
}

CollectiveOutcome split_end(mpiio::FileHandle& file, SplitRequest& request) {
  if (!request.valid()) {
    throw std::logic_error("split_end: invalid request");
  }
  mpiio::HelperCall& call = *request.call_;
  call.wait(file.self(), mpi::TimeCat::Sync, "split collective end");
  const CollectiveOutcome outcome = *request.outcome_;
  call.finish(file, collective_counts(file, outcome, call.is_write()));
  request = SplitRequest();
  return outcome;
}

}  // namespace parcoll::core
