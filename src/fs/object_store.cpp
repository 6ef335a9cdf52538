#include "fs/object_store.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace parcoll::fs {

void MemoryStore::write(int file_id, std::uint64_t offset,
                        const std::byte* data, std::uint64_t length) {
  File& file = files_[file_id];
  file.size = std::max(file.size, offset + length);
  if (data == nullptr) return;
  while (length > 0) {
    const std::uint64_t at = offset % kPageBytes;
    const std::uint64_t n = std::min(length, kPageBytes - at);
    auto& page = file.pages[offset / kPageBytes];
    if (page == nullptr) page = std::make_unique<std::byte[]>(kPageBytes);
    std::memcpy(page.get() + at, data, n);
    offset += n;
    data += n;
    length -= n;
  }
}

void MemoryStore::read(int file_id, std::uint64_t offset, std::byte* out,
                       std::uint64_t length) {
  if (out == nullptr || length == 0) {
    return;
  }
  // Absent pages, and bytes beyond the written size, read as zeros
  // (sparse-file semantics).
  const auto it = files_.find(file_id);
  while (length > 0) {
    const std::uint64_t at = offset % kPageBytes;
    const std::uint64_t n = std::min(length, kPageBytes - at);
    const std::byte* page = nullptr;
    if (it != files_.end()) {
      const auto found = it->second.pages.find(offset / kPageBytes);
      if (found != it->second.pages.end()) page = found->second.get();
    }
    if (page != nullptr) {
      std::memcpy(out, page + at, n);
    } else {
      std::memset(out, 0, n);
    }
    offset += n;
    out += n;
    length -= n;
  }
}

std::uint64_t MemoryStore::size(int file_id) const {
  auto it = files_.find(file_id);
  return it == files_.end() ? 0 : it->second.size;
}

std::uint64_t MemoryStore::content_digest() const {
  // FNV-1a over (id, size, bytes) in ascending file-id order, so the value
  // does not depend on hash-map iteration order. A step over a zero byte
  // only multiplies by the prime, so a run of n absent bytes is one
  // multiply by prime^n.
  constexpr std::uint64_t kPrime = 1099511628211ull;
  const auto power = [](std::uint64_t base, std::uint64_t exp) {
    std::uint64_t result = 1;
    for (; exp > 0; exp >>= 1, base *= base) {
      if (exp & 1) result *= base;
    }
    return result;
  };
  std::vector<int> ids;
  ids.reserve(files_.size());
  for (const auto& [id, file] : files_) {
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      h = (h ^ ((value >> shift) & 0xff)) * kPrime;
    }
  };
  for (int id : ids) {
    const File& file = files_.at(id);
    mix(static_cast<std::uint64_t>(id));
    mix(file.size);
    std::uint64_t hashed = 0;  // bytes folded so far
    for (const auto& [index, page] : file.pages) {
      const std::uint64_t start = index * kPageBytes;
      if (start >= file.size) break;
      h *= power(kPrime, start - hashed);
      const std::uint64_t end = std::min(file.size, start + kPageBytes);
      for (std::uint64_t i = 0; i < end - start; ++i) {
        h = (h ^ static_cast<std::uint64_t>(page[i])) * kPrime;
      }
      hashed = end;
    }
    h *= power(kPrime, file.size - hashed);
  }
  return h;
}

std::uint64_t PhantomStore::size(int file_id) const {
  const auto at = static_cast<std::size_t>(file_id);
  return at < high_water_.size() ? high_water_[at] : 0;
}

void PhantomStore::grow(int file_id) {
  if (file_id < 0) {
    throw std::out_of_range("PhantomStore: negative file id");
  }
  high_water_.resize(static_cast<std::size_t>(file_id) + 1, 0);
}

}  // namespace parcoll::fs
