#include "fs/stripe.hpp"

namespace parcoll::fs {

std::vector<StripeChunk> stripe_chunks(const Extent& extent,
                                       std::uint64_t stripe_size,
                                       int stripe_count) {
  std::vector<StripeChunk> chunks;
  StripeCursor cursor(stripe_size, stripe_count);
  for (std::uint64_t pos = extent.offset; pos < extent.end();) {
    chunks.push_back(cursor.chunk(pos, extent.end()));
    pos += chunks.back().length;
  }
  return chunks;
}

std::uint64_t stripe_floor(std::uint64_t offset, std::uint64_t stripe_size) {
  return offset - offset % stripe_size;
}

std::uint64_t stripe_ceil(std::uint64_t offset, std::uint64_t stripe_size) {
  const std::uint64_t rem = offset % stripe_size;
  return rem == 0 ? offset : offset + (stripe_size - rem);
}

}  // namespace parcoll::fs
