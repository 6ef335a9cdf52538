#include "dtype/flatten.hpp"

#include <algorithm>
#include <stdexcept>

namespace parcoll::dtype {

FlatType FlatType::from(const Datatype& type) {
  FlatType flat;
  flat.segs = type.segments();
  flat.prefix.reserve(flat.segs.size());
  std::uint64_t pos = 0;
  for (const Segment& seg : flat.segs) {
    flat.prefix.push_back(pos);
    pos += seg.length;
  }
  flat.size = pos;
  flat.extent = type.extent();
  return flat;
}

std::size_t FlatType::segment_at(std::uint64_t pos) const {
  if (pos >= size) {
    throw std::out_of_range("FlatType::segment_at: position beyond type size");
  }
  // First segment whose stream start is > pos, minus one.
  auto it = std::upper_bound(prefix.begin(), prefix.end(), pos);
  return static_cast<std::size_t>(it - prefix.begin()) - 1;
}

}  // namespace parcoll::dtype
