// File views: stream-to-file mapping, tiling, validation.
#include <gtest/gtest.h>

#include "mpiio/view.hpp"

namespace parcoll::mpiio {
namespace {

using dtype::Datatype;

/// The extents of stream bytes [begin, begin + nbytes) of a view with
/// displacement `disp` and filetype `type`, found one byte at a time:
/// byte k of the stream is byte k % size of tile k / size.
std::vector<fs::Extent> reference_map(std::uint64_t disp, const Datatype& type,
                                      std::uint64_t begin,
                                      std::uint64_t nbytes) {
  std::vector<fs::Extent> extents;
  for (std::uint64_t k = begin; k < begin + nbytes; ++k) {
    const std::uint64_t tile = k / type.size();
    std::uint64_t in_tile = k % type.size();
    std::uint64_t offset = 0;
    for (const dtype::Segment& seg : type.segments()) {
      if (in_tile < seg.length) {
        offset = disp + tile * static_cast<std::uint64_t>(type.extent()) +
                 static_cast<std::uint64_t>(seg.disp) + in_tile;
        break;
      }
      in_tile -= seg.length;
    }
    if (!extents.empty() && extents.back().end() == offset) {
      ++extents.back().length;
    } else {
      extents.push_back(fs::Extent{offset, 1});
    }
  }
  return extents;
}

TEST(FileView, DefaultViewIsContiguousBytes) {
  const FileView view;
  EXPECT_TRUE(view.contiguous());
  const auto extents = view.map(100, 50);
  ASSERT_EQ(extents.size(), 1u);
  EXPECT_EQ(extents[0], (fs::Extent{100, 50}));
}

TEST(FileView, DisplacementShiftsEverything) {
  const FileView view(1000, 1, Datatype::bytes(1));
  const auto extents = view.map(5, 10);
  ASSERT_EQ(extents.size(), 1u);
  EXPECT_EQ(extents[0], (fs::Extent{1005, 10}));
}

TEST(FileView, EtypeScalesOffsets) {
  const FileView view(0, 8, Datatype::bytes(8));
  const auto extents = view.map(3, 16);  // 3 etypes of 8B -> byte 24
  ASSERT_EQ(extents.size(), 1u);
  EXPECT_EQ(extents[0], (fs::Extent{24, 16}));
}

TEST(FileView, StridedFiletypeTiles) {
  // Filetype: 4 data bytes then 12-byte hole (extent 16).
  const Datatype ftype = Datatype::resized(Datatype::bytes(4), 0, 16);
  const FileView view(0, 4, ftype);
  EXPECT_FALSE(view.contiguous());
  EXPECT_EQ(view.tile_size(), 4u);
  EXPECT_EQ(view.tile_extent(), 16u);
  // 12 stream bytes = 3 tiles.
  const auto extents = view.map(0, 12);
  ASSERT_EQ(extents.size(), 3u);
  EXPECT_EQ(extents[0], (fs::Extent{0, 4}));
  EXPECT_EQ(extents[1], (fs::Extent{16, 4}));
  EXPECT_EQ(extents[2], (fs::Extent{32, 4}));
}

TEST(FileView, MidTileStartAndEnd) {
  const Datatype ftype = Datatype::resized(Datatype::bytes(4), 0, 16);
  const FileView view(0, 1, ftype);
  // Stream [2, 9): last 2B of tile 0, all of tile 1, first 1B of tile 2.
  const auto extents = view.map(2, 7);
  ASSERT_EQ(extents.size(), 3u);
  EXPECT_EQ(extents[0], (fs::Extent{2, 2}));
  EXPECT_EQ(extents[1], (fs::Extent{16, 4}));
  EXPECT_EQ(extents[2], (fs::Extent{32, 1}));
}

TEST(FileView, AdjacentTilesCoalesceWhenDense) {
  // A subarray covering a full row tiles densely within a row band.
  const Datatype ftype = Datatype::resized(Datatype::bytes(16), 0, 16);
  const FileView view(0, 1, ftype);
  const auto extents = view.map(0, 64);
  ASSERT_EQ(extents.size(), 1u);
  EXPECT_EQ(extents[0], (fs::Extent{0, 64}));
}

TEST(FileView, SubarrayViewMapsTileRows) {
  // 2x2 tile grid of 2x3-element tiles (1B elements); rank at tile (1,0).
  const std::int64_t sizes[] = {4, 6};
  const std::int64_t subsizes[] = {2, 3};
  const std::int64_t starts[] = {2, 0};
  const Datatype ftype =
      Datatype::subarray(sizes, subsizes, starts, Datatype::bytes(1));
  const FileView view(0, 1, ftype);
  const auto extents = view.map(0, 6);
  ASSERT_EQ(extents.size(), 2u);
  EXPECT_EQ(extents[0], (fs::Extent{12, 3}));  // row 2
  EXPECT_EQ(extents[1], (fs::Extent{18, 3}));  // row 3
}

TEST(FileView, StreamRangeMidSegment) {
  const Datatype type = Datatype::vec(2, 1, 4, Datatype::bytes(8));
  const FileView view(0, 1, type);
  // Stream [4, 12): second half of segment 0, first half of segment 1.
  const auto extents = view.map(4, 8);
  ASSERT_EQ(extents.size(), 2u);
  EXPECT_EQ(extents[0], (fs::Extent{4, 4}));
  EXPECT_EQ(extents[1], (fs::Extent{32, 4}));
}

TEST(FileView, WholeTileAndEmptyRange) {
  const FileView view(0, 1, Datatype::resized(Datatype::bytes(10), 0, 16));
  EXPECT_EQ(view.map(0, 10), (std::vector<fs::Extent>{{0, 10}}));
  EXPECT_TRUE(view.map(3, 0).empty());
  // One byte past the tile's data is the next tile's first byte.
  EXPECT_EQ(view.map(0, 11), (std::vector<fs::Extent>{{0, 10}, {16, 1}}));
}

TEST(FileView, MapMatchesAByteByByteWalk) {
  struct Case {
    std::uint64_t disp;
    std::uint64_t etype;
    Datatype type;
  };
  const dtype::IndexedBlock blocks[] = {{0, 3}, {5, 2}, {9, 3}};
  const Case cases[] = {
      // Gaps on both sides of the data, with a displacement.
      {100, 1, Datatype::resized(Datatype::hindexed(blocks, Datatype::bytes(1)),
                                 0, 16)},
      // The last segment ends at the extent and the first starts at 0, so
      // pieces merge across every tile boundary.
      {0, 2, Datatype::resized(Datatype::hindexed(blocks, Datatype::bytes(1)),
                               0, 12)},
      // One segment, not at the origin: tiles never touch.
      {7, 1, Datatype::resized(Datatype::hindexed(
                                   std::span(blocks + 1, 1), Datatype::bytes(1)),
                               0, 8)},
      // A subarray row band, tiled through the whole array.
      {64, 4, Datatype::vec(3, 1, 2, Datatype::bytes(4))},
  };
  for (const Case& c : cases) {
    const FileView view(c.disp, c.etype, c.type);
    ASSERT_FALSE(view.contiguous());
    const std::uint64_t tile = c.type.size();
    for (std::uint64_t first = 0; first < 3 * tile; first += c.etype) {
      for (std::uint64_t nbytes = 1; nbytes <= 4 * tile; ++nbytes) {
        const auto extents = view.map(first / c.etype, nbytes);
        EXPECT_EQ(extents, reference_map(c.disp, c.type, first, nbytes))
            << "disp " << c.disp << " first " << first << " nbytes " << nbytes;
        // The walk sizes its vector exactly before it starts.
        EXPECT_EQ(extents.capacity(), extents.size());
      }
    }
  }
}

TEST(FileView, ZeroLengthMapsToNothing) {
  const FileView view;
  EXPECT_TRUE(view.map(123, 0).empty());
}

TEST(FileView, RejectsNonMonotoneFiletype) {
  const dtype::IndexedBlock blocks[] = {{10, 1}, {0, 1}};
  const Datatype bad = Datatype::hindexed(blocks, Datatype::bytes(4));
  EXPECT_THROW(FileView(0, 1, bad), std::invalid_argument);
}

TEST(FileView, RejectsEmptyFiletypeAndBadEtype) {
  EXPECT_THROW(FileView(0, 0, Datatype::bytes(4)), std::invalid_argument);
  EXPECT_THROW(FileView(0, 1, Datatype()), std::invalid_argument);
  // Filetype size not a multiple of etype.
  EXPECT_THROW(FileView(0, 3, Datatype::bytes(4)), std::invalid_argument);
}

TEST(FileView, MapBytesCorrespondToStreamOrder) {
  // Walking the extents in order must visit the stream in order: verify
  // total length and monotonicity for a gappy view.
  const Datatype ftype = Datatype::vec(3, 1, 2, Datatype::bytes(4));
  const FileView view(8, 4, Datatype::resized(ftype, 0, 24));
  const auto extents = view.map(1, 20);
  std::uint64_t total = 0;
  std::uint64_t last_end = 0;
  for (const auto& extent : extents) {
    EXPECT_GE(extent.offset, last_end);
    last_end = extent.end();
    total += extent.length;
  }
  EXPECT_EQ(total, 20u);
}

}  // namespace
}  // namespace parcoll::mpiio
