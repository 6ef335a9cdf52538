#include "core/split.hpp"

#include <stdexcept>

#include "mpi/collectives.hpp"

namespace parcoll::core {

namespace detail {

struct SplitState {
  mpiio::PreparedRequest prep;
  mpi::Comm helper_comm;
  void* user_buffer = nullptr;  // reads: unpack destination
  std::uint64_t count = 0;
  dtype::Datatype memtype;
  bool is_write = true;
  bool done = false;
  CollectiveOutcome outcome;
  mpi::TimeBreakdown helper_time;
  std::vector<sim::ProcId> waiters;
};

}  // namespace detail

bool SplitRequest::done() const { return state_ && state_->done; }

namespace {

SplitRequest split_begin(mpiio::FileHandle& file, std::uint64_t offset,
                         const void* wbuffer, void* rbuffer,
                         std::uint64_t count, const dtype::Datatype& memtype,
                         bool is_write) {
  auto& self = file.self();
  auto& world = self.world();

  auto state = std::make_shared<detail::SplitState>();
  state->is_write = is_write;
  state->user_buffer = rbuffer;
  state->count = count;
  state->memtype = memtype;
  state->prep = is_write
                    ? file.prepare_write(offset, wbuffer, count, memtype)
                    : file.prepare_read(offset, rbuffer, count, memtype);
  // The same hooks as write_at_all / read_at_all, run before the helper
  // starts the collective.
  if (is_write) {
    file.register_write(state->prep);
  } else {
    file.verify_read(state->prep);
  }

  // The helper "progress threads" get their own communicator so their
  // collective sequence numbers never interleave with the main threads'.
  state->helper_comm =
      mpi::comm_split(self, file.comm(), 0, file.comm().local_rank(self.rank()));

  const int rank_id = self.rank();
  const mpiio::Hints hints = file.hints();
  const int fs_id = file.fs_id();
  // The helper stages into the file's own burst-buffer store, so close()
  // drains its writes and the file's stats count them.
  bb::StagingStore* bb_store = file.bb_store();
  world.engine().spawn([state, &world, rank_id, hints, fs_id, bb_store] {
    mpi::Rank helper(world, rank_id);
    state->outcome = run_collective_engine(
        helper, state->helper_comm, hints, fs_id, bb_store, state->prep,
        state->is_write, /*cache_slot=*/nullptr);
    state->helper_time = helper.times().breakdown();
    state->done = true;
    for (sim::ProcId pid : state->waiters) {
      world.engine().wake(pid);
    }
    state->waiters.clear();
  });

  return SplitRequest(std::move(state));
}

}  // namespace

SplitRequest write_at_all_begin(mpiio::FileHandle& file, std::uint64_t offset,
                                const void* buffer, std::uint64_t count,
                                const dtype::Datatype& memtype) {
  file.require_writable();
  return split_begin(file, offset, buffer, nullptr, count, memtype, true);
}

SplitRequest read_at_all_begin(mpiio::FileHandle& file, std::uint64_t offset,
                               void* buffer, std::uint64_t count,
                               const dtype::Datatype& memtype) {
  file.require_readable();
  return split_begin(file, offset, nullptr, buffer, count, memtype, false);
}

CollectiveOutcome split_end(mpiio::FileHandle& file, SplitRequest& request) {
  if (!request.valid()) {
    throw std::logic_error("split_end: invalid request");
  }
  auto& state = *request.state_;
  auto& self = file.self();
  if (!state.done) {
    const double blocked_at = self.now();
    state.waiters.push_back(self.pid());
    self.engine().suspend("split collective end");
    self.times().add(mpi::TimeCat::Sync, self.now() - blocked_at);
  }
  if (!state.is_write) {
    file.finish_read(state.prep, state.user_buffer, state.count,
                     state.memtype);
  }

  mpiio::FileStats delta;
  delta.time = state.helper_time;  // the progress thread's work
  record_collective(file, state.outcome, state.is_write, delta);
  const CollectiveOutcome outcome = state.outcome;
  request.state_.reset();
  return outcome;
}

}  // namespace parcoll::core
