#include "workloads/pattern.hpp"

#include <algorithm>
#include <stdexcept>

#include "dtype/pack.hpp"
#include "sim/random.hpp"

namespace parcoll::workloads {

std::byte pattern_byte(std::uint64_t salt, std::uint64_t position) {
  // Cheap but position-sensitive: adjacent offsets give different bytes, so
  // any misplacement (off-by-one, swapped pieces) is caught.
  const std::uint64_t h = sim::mix64(salt * 0x9e3779b97f4a7c15ull + position);
  return static_cast<std::byte>(h & 0xff);
}

void fill_stream(std::byte* stream, std::span<const fs::Extent> extents,
                 std::uint64_t salt) {
  std::uint64_t pos = 0;
  for (const fs::Extent& extent : extents) {
    for (std::uint64_t i = 0; i < extent.length; ++i) {
      stream[pos++] = pattern_byte(salt, extent.offset + i);
    }
  }
}

bool check_stream(const std::byte* stream, std::span<const fs::Extent> extents,
                  std::uint64_t salt) {
  std::uint64_t pos = 0;
  for (const fs::Extent& extent : extents) {
    for (std::uint64_t i = 0; i < extent.length; ++i) {
      if (stream[pos++] != pattern_byte(salt, extent.offset + i)) {
        return false;
      }
    }
  }
  return true;
}

void fill_buffer_for_extents(void* buffer, const dtype::Datatype& memtype,
                             std::uint64_t count,
                             std::span<const fs::Extent> extents,
                             std::uint64_t salt) {
  std::uint64_t total = 0;
  for (const fs::Extent& extent : extents) total += extent.length;
  if (total != count * memtype.size()) {
    throw std::invalid_argument(
        "fill_buffer_for_extents: extent total != buffer data size");
  }
  std::vector<std::byte> stream(total);
  fill_stream(stream.data(), extents, salt);
  dtype::unpack(stream.data(), memtype, count, buffer);
}

bool check_buffer_for_extents(const void* buffer,
                              const dtype::Datatype& memtype,
                              std::uint64_t count,
                              std::span<const fs::Extent> extents,
                              std::uint64_t salt) {
  std::uint64_t total = 0;
  for (const fs::Extent& extent : extents) total += extent.length;
  std::vector<std::byte> stream(total);
  dtype::pack(buffer, memtype, count, stream.data());
  return check_stream(stream.data(), extents, salt);
}

bool verify_store(fs::MemoryStore& store, int file_id,
                  std::span<const fs::Extent> extents, std::uint64_t salt) {
  std::uint64_t total = 0;
  for (const fs::Extent& extent : extents) total += extent.length;
  if (total == 0) return true;  // nothing to check, file may not even exist
  std::vector<std::byte> chunk;
  for (const fs::Extent& extent : extents) {
    if (extent.end() > store.size(file_id)) return false;
    // Read the extent a page at a time, so the check holds one page.
    for (std::uint64_t pos = extent.offset; pos < extent.end();) {
      const std::uint64_t n =
          std::min(extent.end() - pos, fs::MemoryStore::kPageBytes);
      chunk.resize(n);
      store.read(file_id, pos, chunk.data(), n);
      for (std::uint64_t i = 0; i < n; ++i) {
        if (chunk[i] != pattern_byte(salt, pos + i)) return false;
      }
      pos += n;
    }
  }
  return true;
}

}  // namespace parcoll::workloads
