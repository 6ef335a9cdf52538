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

/// Splits positions of a file at stripe boundaries, for extents in any
/// order. It keeps the stripe it located last and locates again (a
/// division and a modulo) only when a position leaves that stripe, so the
/// many small extents of a noncontiguous call mostly cost two compares.
class StripeCursor {
 public:
  StripeCursor(std::uint64_t stripe_size, int stripe_count)
      : stripe_size_(stripe_size), stripe_count_(stripe_count) {}

  /// The stripe-contiguous piece of [pos, end) that starts at `pos`
  /// (pos < end). Throws std::invalid_argument on a bad striping.
  StripeChunk chunk(std::uint64_t pos, std::uint64_t end) {
    if (pos < lo_ || pos >= hi_) locate(pos);
    return StripeChunk{index_, pos, std::min(end, hi_) - pos};
  }

 private:
  void locate(std::uint64_t pos) {
    if (stripe_size_ == 0 || stripe_count_ <= 0) {
      throw std::invalid_argument("StripeCursor: bad striping");
    }
    const std::uint64_t stripe_number = pos / stripe_size_;
    lo_ = stripe_number * stripe_size_;
    hi_ = lo_ + stripe_size_;
    index_ = static_cast<int>(stripe_number %
                              static_cast<std::uint64_t>(stripe_count_));
  }

  std::uint64_t stripe_size_;
  int stripe_count_;
  std::uint64_t lo_ = 0;  // the located stripe, [lo_, hi_): none at first
  std::uint64_t hi_ = 0;
  int index_ = 0;
};

/// The stripe-aligned pieces of `extent`, in file order.
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
