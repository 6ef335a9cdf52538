// Striping math: how a Lustre file's byte range maps onto its OSTs.
//
// A file striped over `stripe_count` OSTs with stripe size S places bytes
// [k*S, (k+1)*S) on stripe index k % stripe_count. Splitting an extent at
// stripe boundaries yields the per-OST pieces that become RPCs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace parcoll::fs {

/// A byte range of a file: [offset, offset + length).
struct Extent {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;

  [[nodiscard]] std::uint64_t end() const { return offset + length; }
  bool operator==(const Extent&) const = default;
};

/// One stripe-contiguous piece of an extent.
struct StripeChunk {
  int stripe_index = 0;         // which stripe (0..stripe_count-1)
  std::uint64_t file_offset = 0;
  std::uint64_t length = 0;
};

/// Invoke `fn` for each stripe-aligned piece of `extent`, in file order.
template <typename Fn>
void for_each_stripe_chunk(const Extent& extent, std::uint64_t stripe_size,
                           int stripe_count, Fn&& fn) {
  if (stripe_size == 0 || stripe_count <= 0) {
    throw std::invalid_argument("for_each_stripe_chunk: bad striping");
  }
  std::uint64_t pos = extent.offset;
  const std::uint64_t end = extent.end();
  while (pos < end) {
    const std::uint64_t stripe_number = pos / stripe_size;
    const std::uint64_t stripe_end = (stripe_number + 1) * stripe_size;
    StripeChunk chunk;
    chunk.stripe_index = static_cast<int>(
        stripe_number % static_cast<std::uint64_t>(stripe_count));
    chunk.file_offset = pos;
    chunk.length = std::min(end, stripe_end) - pos;
    fn(chunk);
    pos += chunk.length;
  }
}

/// Convenience: materialize the chunks of an extent.
[[nodiscard]] std::vector<StripeChunk> stripe_chunks(const Extent& extent,
                                                     std::uint64_t stripe_size,
                                                     int stripe_count);

/// Round `offset` down to the containing stripe boundary.
[[nodiscard]] std::uint64_t stripe_floor(std::uint64_t offset,
                                         std::uint64_t stripe_size);

/// Round `offset` up to the next stripe boundary (identity if aligned).
[[nodiscard]] std::uint64_t stripe_ceil(std::uint64_t offset,
                                        std::uint64_t stripe_size);

}  // namespace parcoll::fs
