#include "mpiio/view.hpp"

#include <algorithm>
#include <stdexcept>

namespace parcoll::mpiio {

FileView::FileView() {
  flat_ = dtype::FlatType::from(dtype::Datatype::bytes(1));
}

FileView::FileView(std::uint64_t disp, std::uint64_t etype_size,
                   const dtype::Datatype& filetype)
    : disp_(disp), etype_size_(etype_size) {
  if (etype_size == 0) {
    throw std::invalid_argument("FileView: etype size must be positive");
  }
  if (!filetype.monotone()) {
    throw std::invalid_argument(
        "FileView: filetype displacements must be monotonically "
        "non-decreasing");
  }
  if (filetype.size() == 0) {
    throw std::invalid_argument("FileView: filetype has no data");
  }
  if (filetype.lb() < 0) {
    throw std::invalid_argument("FileView: negative lower bound");
  }
  if (filetype.size() % etype_size != 0) {
    throw std::invalid_argument(
        "FileView: filetype size must be a multiple of the etype size");
  }
  flat_ = dtype::FlatType::from(filetype);
  contiguous_ = flat_.segs.size() == 1 && flat_.segs[0].disp == 0 &&
                flat_.size == static_cast<std::uint64_t>(flat_.extent);
}

std::vector<fs::Extent> FileView::map(std::uint64_t offset_etypes,
                                      std::uint64_t nbytes) const {
  std::vector<fs::Extent> extents;
  if (nbytes == 0) return extents;
  const std::uint64_t begin = offset_etypes * etype_size_;

  if (contiguous_) {
    extents.push_back(fs::Extent{disp_ + begin, nbytes});
    return extents;
  }

  // One walk over the flattened filetype in place, tile after tile, from
  // the segment holding the first stream byte to the one holding the last.
  const std::vector<dtype::Segment>& segs = flat_.segs;
  const std::uint64_t tile_bytes = flat_.size;
  const auto tile_span = static_cast<std::uint64_t>(flat_.extent);
  std::uint64_t tile = begin / tile_bytes;
  std::size_t seg = flat_.segment_at(begin - tile * tile_bytes);
  const std::uint64_t last = begin + nbytes - 1;
  const std::uint64_t last_tile = last / tile_bytes;
  const std::size_t last_seg = flat_.segment_at(last - last_tile * tile_bytes);

  // The segments are coalesced, so pieces merge only across a tile
  // boundary, and there exactly when a tile's last segment runs into the
  // next tile's first: the extent count is known before the walk.
  const std::uint64_t crossings = last_tile - tile;
  const bool joins = segs.back().end() == flat_.extent + segs.front().disp;
  extents.reserve(crossings * segs.size() + last_seg + 1 - seg -
                  (joins ? crossings : 0));

  std::uint64_t skip = begin - tile * tile_bytes - flat_.prefix[seg];
  std::uint64_t left = nbytes;
  for (;; ++tile, seg = 0) {
    const std::uint64_t base = disp_ + tile * tile_span;
    for (; seg < segs.size(); ++seg) {
      const std::uint64_t offset =
          base + static_cast<std::uint64_t>(segs[seg].disp) + skip;
      const std::uint64_t length = std::min(segs[seg].length - skip, left);
      skip = 0;
      if (!extents.empty() && extents.back().end() == offset) {
        extents.back().length += length;
      } else {
        extents.push_back(fs::Extent{offset, length});
      }
      left -= length;
      if (left == 0) return extents;
    }
  }
}

}  // namespace parcoll::mpiio
