// FlatType: a datatype's segments with stream-offset prefix sums.
//
// The k-th byte of a packed stream of a datatype lands at a displacement
// found by locating the segment whose prefix covers k. File views walk it
// in place: find the segment of a range's first byte, then step through
// the segments, tile after tile (mpiio::FileView::map).
#pragma once

#include <cstdint>
#include <vector>

#include "dtype/datatype.hpp"
#include "dtype/segments.hpp"

namespace parcoll::dtype {

struct FlatType {
  std::vector<Segment> segs;          // coalesced, type-map order
  std::vector<std::uint64_t> prefix;  // prefix[i] = stream offset of segs[i]
  std::uint64_t size = 0;             // total data bytes
  std::int64_t extent = 0;

  static FlatType from(const Datatype& type);

  /// Index of the segment containing stream offset `pos` (< size).
  [[nodiscard]] std::size_t segment_at(std::uint64_t pos) const;
};

}  // namespace parcoll::dtype
