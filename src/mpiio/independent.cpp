#include "mpiio/independent.hpp"

namespace parcoll::mpiio {

namespace {

/// The POSIX service: one blocking call per contiguous extent, so nothing
/// pipelines across extents.
void per_extent(FileHandle& file, bool is_write, std::uint64_t offset,
                const void* buffer, std::uint64_t count,
                const dtype::Datatype& memtype) {
  file.independent_call(
      is_write, offset, buffer, count, memtype,
      [&](IoTarget& target, PreparedRequest& request) {
        std::byte* data = request.data();
        for (const fs::Extent& extent : request.extents) {
          target.transfer(file.self(), std::span(&extent, 1), data, is_write);
          if (data != nullptr) data += extent.length;
        }
      });
}

}  // namespace

void posix_write_at(FileHandle& file, std::uint64_t offset, const void* buffer,
                    std::uint64_t count, const dtype::Datatype& memtype) {
  per_extent(file, true, offset, buffer, count, memtype);
}

void posix_read_at(FileHandle& file, std::uint64_t offset, void* buffer,
                   std::uint64_t count, const dtype::Datatype& memtype) {
  per_extent(file, false, offset, buffer, count, memtype);
}

}  // namespace parcoll::mpiio
