#include "mpiio/async.hpp"

#include <stdexcept>

#include "mpiio/ext2ph.hpp"

namespace parcoll::mpiio {

namespace detail {

struct AsyncIoState {
  PreparedRequest prep;
  void* user_buffer = nullptr;
  std::uint64_t count = 0;
  dtype::Datatype memtype;
  bool is_write = true;
  bool done = false;
  mpi::TimeBreakdown helper_time;
  std::vector<sim::ProcId> waiters;
};

}  // namespace detail

bool IoRequest::done() const { return state_ && state_->done; }

namespace {

IoRequest start(FileHandle& file, std::uint64_t offset, const void* wbuffer,
                void* rbuffer, std::uint64_t count,
                const dtype::Datatype& memtype, bool is_write) {
  auto& self = file.self();
  auto& world = self.world();

  auto state = std::make_shared<detail::AsyncIoState>();
  state->is_write = is_write;
  state->user_buffer = rbuffer;
  state->count = count;
  state->memtype = memtype;
  state->prep = is_write
                    ? file.prepare_write(offset, wbuffer, count, memtype)
                    : file.prepare_read(offset, rbuffer, count, memtype);
  // The hooks run in the caller, before the helper starts any I/O.
  if (is_write) file.register_write(state->prep);
  file.flush_staged(state->prep);
  if (!is_write) file.verify_read(state->prep);

  const int rank_id = self.rank();
  const int fs_id = file.fs_id();
  world.engine().spawn([state, &world, rank_id, fs_id] {
    mpi::Rank helper(world, rank_id);
    DirectTarget target(world.fs(), fs_id);
    if (state->is_write) {
      target.write(helper, state->prep.extents, state->prep.data());
    } else {
      target.read(helper, state->prep.extents,
                  state->prep.packed.empty() ? nullptr
                                             : state->prep.packed.data());
    }
    state->helper_time = helper.times().breakdown();
    state->done = true;
    for (sim::ProcId pid : state->waiters) {
      world.engine().wake(pid);
    }
    state->waiters.clear();
  });
  return IoRequest(std::move(state));
}

}  // namespace

IoRequest iwrite_at(FileHandle& file, std::uint64_t offset, const void* buffer,
                    std::uint64_t count, const dtype::Datatype& memtype) {
  file.require_writable();
  return start(file, offset, buffer, nullptr, count, memtype, true);
}

IoRequest iread_at(FileHandle& file, std::uint64_t offset, void* buffer,
                   std::uint64_t count, const dtype::Datatype& memtype) {
  file.require_readable();
  return start(file, offset, nullptr, buffer, count, memtype, false);
}

void io_wait(FileHandle& file, IoRequest& request) {
  if (!request.valid()) {
    throw std::logic_error("io_wait: invalid request");
  }
  auto& state = *request.state_;
  auto& self = file.self();
  if (!state.done) {
    const double blocked_at = self.now();
    state.waiters.push_back(self.pid());
    self.engine().suspend("async I/O wait");
    self.times().add(mpi::TimeCat::IO, self.now() - blocked_at);
  }
  if (!state.is_write) {
    file.finish_read(state.prep, state.user_buffer, state.count,
                     state.memtype);
  }
  FileStats delta;
  delta.time = state.helper_time;
  if (state.is_write) {
    delta.bytes_written = state.prep.bytes;
    delta.independent_writes = 1;
  } else {
    delta.bytes_read = state.prep.bytes;
    delta.independent_reads = 1;
  }
  file.add_stats(delta);
  request.state_.reset();
}

}  // namespace parcoll::mpiio
