#include "mpiio/independent.hpp"

#include "mpiio/ext2ph.hpp"

namespace parcoll::mpiio {

void posix_write_at(FileHandle& file, std::uint64_t offset, const void* buffer,
                    std::uint64_t count, const dtype::Datatype& memtype) {
  const auto before = file.time_snapshot();
  PreparedRequest request = file.prepare_write(offset, buffer, count, memtype);
  file.register_write(request);
  file.flush_staged(request);
  DirectTarget target(file.self().world().fs(), file.fs_id());
  std::uint64_t stream_pos = 0;
  for (const fs::Extent& extent : request.extents) {
    const std::byte* data =
        request.packed.empty() ? nullptr : request.packed.data() + stream_pos;
    target.write(file.self(), std::span(&extent, 1), data);
    stream_pos += extent.length;
  }
  FileStats delta;
  delta.time = FileHandle::time_delta(before, file.time_snapshot());
  delta.bytes_written = request.bytes;
  delta.independent_writes = 1;
  file.add_stats(delta);
}

void posix_read_at(FileHandle& file, std::uint64_t offset, void* buffer,
                   std::uint64_t count, const dtype::Datatype& memtype) {
  const auto before = file.time_snapshot();
  PreparedRequest request = file.prepare_read(offset, buffer, count, memtype);
  file.flush_staged(request);
  file.verify_read(request);
  DirectTarget target(file.self().world().fs(), file.fs_id());
  std::uint64_t stream_pos = 0;
  for (const fs::Extent& extent : request.extents) {
    std::byte* out =
        request.packed.empty() ? nullptr : request.packed.data() + stream_pos;
    target.read(file.self(), std::span(&extent, 1), out);
    stream_pos += extent.length;
  }
  file.finish_read(request, buffer, count, memtype);
  FileStats delta;
  delta.time = FileHandle::time_delta(before, file.time_snapshot());
  delta.bytes_read = request.bytes;
  delta.independent_reads = 1;
  file.add_stats(delta);
}

}  // namespace parcoll::mpiio
