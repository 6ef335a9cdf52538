#include "mpiio/async.hpp"

#include <stdexcept>

namespace parcoll::mpiio {

std::shared_ptr<HelperCall> HelperCall::spawn(FileHandle& file, IoCall call,
                                              Serve serve) {
  auto helper = std::make_shared<HelperCall>();
  helper->call_ = std::move(call);
  mpi::World& world = file.self().world();
  const int rank_id = file.self().rank();
  world.engine().spawn([helper, &world, rank_id, serve = std::move(serve)] {
    mpi::Rank self(world, rank_id);
    serve(self, helper->call_.request);
    helper->helper_time_ = self.times().breakdown();
    helper->done_ = true;
    for (sim::ProcId pid : helper->waiters_) {
      world.engine().wake(pid);
    }
    helper->waiters_.clear();
  });
  return helper;
}

void HelperCall::wait(mpi::Rank& self, mpi::TimeCat charge, const char* why) {
  if (!done_) {
    const double blocked_at = self.now();
    waiters_.push_back(self.pid());
    self.engine().suspend(why);
    self.times().add(charge, self.now() - blocked_at);
  }
}

void HelperCall::finish(FileHandle& file, FileStats counts) {
  file.end_helper_call(call_, helper_time_, counts);
}

namespace {

IoRequest start(FileHandle& file, bool is_write, std::uint64_t offset,
                const void* buffer, std::uint64_t count,
                const dtype::Datatype& memtype) {
  IoCall call = file.begin_call(is_write, FileHandle::Route::Direct, offset,
                                buffer, count, memtype);
  const int fs_id = file.fs_id();
  return IoRequest(HelperCall::spawn(
      file, std::move(call),
      [fs_id, is_write](mpi::Rank& helper, PreparedRequest& request) {
        DirectTarget(helper.world().fs(), fs_id)
            .transfer(helper, request.extents, request.data(), is_write);
      }));
}

}  // namespace

IoRequest iwrite_at(FileHandle& file, std::uint64_t offset, const void* buffer,
                    std::uint64_t count, const dtype::Datatype& memtype) {
  return start(file, true, offset, buffer, count, memtype);
}

IoRequest iread_at(FileHandle& file, std::uint64_t offset, void* buffer,
                   std::uint64_t count, const dtype::Datatype& memtype) {
  return start(file, false, offset, buffer, count, memtype);
}

void io_wait(FileHandle& file, IoRequest& request) {
  if (!request.valid()) {
    throw std::logic_error("io_wait: invalid request");
  }
  HelperCall& call = *request.call_;
  call.wait(file.self(), mpi::TimeCat::IO, "async I/O wait");
  call.finish(file, independent_counts(call.is_write()));
  request.call_.reset();
}

}  // namespace parcoll::mpiio
