// Segment algebra, FlatType lookup, and pack/unpack round trips.
#include <gtest/gtest.h>

#include <numeric>

#include "dtype/flatten.hpp"
#include "dtype/pack.hpp"
#include "dtype/segments.hpp"

namespace parcoll::dtype {
namespace {

TEST(Segments, TotalLength) {
  const std::vector<Segment> segs{{0, 4}, {10, 6}};
  EXPECT_EQ(total_length(segs), 10u);
  EXPECT_EQ(total_length({}), 0u);
}

TEST(Segments, CoalesceMergesAdjacentAndDropsEmpty) {
  std::vector<Segment> segs{{0, 4}, {4, 4}, {8, 0}, {10, 2}, {12, 1}};
  coalesce(segs);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0], (Segment{0, 8}));
  EXPECT_EQ(segs[1], (Segment{10, 3}));
}

TEST(Segments, CoalesceKeepsTypeMapOrder) {
  std::vector<Segment> segs{{10, 2}, {0, 2}, {2, 2}};
  coalesce(segs);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0], (Segment{10, 2}));
  EXPECT_EQ(segs[1], (Segment{0, 4}));
}

TEST(Segments, MonotoneChecks) {
  EXPECT_TRUE(is_monotone({{0, 4}, {4, 4}, {10, 1}}));
  EXPECT_FALSE(is_monotone({{0, 4}, {2, 4}}));  // overlap
  EXPECT_FALSE(is_monotone({{10, 2}, {0, 2}}));
  EXPECT_TRUE(is_monotone({}));
}

TEST(Segments, ClipWindow) {
  const std::vector<Segment> segs{{0, 10}, {20, 10}};
  const auto clipped = clip(segs, 5, 25);
  ASSERT_EQ(clipped.size(), 2u);
  EXPECT_EQ(clipped[0], (Segment{5, 5}));
  EXPECT_EQ(clipped[1], (Segment{20, 5}));
  EXPECT_TRUE(clip(segs, 10, 20).empty());
}

TEST(FlatType, PrefixAndLookup) {
  const Datatype type = Datatype::vec(3, 1, 3, Datatype::bytes(4));
  const FlatType flat = FlatType::from(type);
  EXPECT_EQ(flat.size, 12u);
  EXPECT_EQ(flat.prefix, (std::vector<std::uint64_t>{0, 4, 8}));
  EXPECT_EQ(flat.segment_at(0), 0u);
  EXPECT_EQ(flat.segment_at(3), 0u);
  EXPECT_EQ(flat.segment_at(4), 1u);
  EXPECT_EQ(flat.segment_at(11), 2u);
  EXPECT_THROW(static_cast<void>(flat.segment_at(12)), std::out_of_range);
}

TEST(Pack, ContiguousRoundTrip) {
  const Datatype type = Datatype::bytes(16);
  std::vector<std::byte> src(16);
  std::iota(reinterpret_cast<unsigned char*>(src.data()),
            reinterpret_cast<unsigned char*>(src.data()) + 16, 0);
  std::vector<std::byte> stream(16);
  pack(src.data(), type, 1, stream.data());
  EXPECT_EQ(stream, src);
  std::vector<std::byte> dst(16);
  unpack(stream.data(), type, 1, dst.data());
  EXPECT_EQ(dst, src);
}

TEST(Pack, StridedGathersHolesSkipped) {
  // Memory: 0 1 2 3 4 5 6 7 8 9 ; vector takes bytes {0,1, 4,5, 8,9}.
  const Datatype type = Datatype::vec(3, 1, 2, Datatype::bytes(2));
  std::vector<unsigned char> memory(10);
  std::iota(memory.begin(), memory.end(), 0);
  std::vector<unsigned char> stream(6);
  pack(memory.data(), type, 1, reinterpret_cast<std::byte*>(stream.data()));
  EXPECT_EQ(stream, (std::vector<unsigned char>{0, 1, 4, 5, 8, 9}));

  std::vector<unsigned char> back(10, 0xEE);
  unpack(reinterpret_cast<const std::byte*>(stream.data()), type, 1,
         back.data());
  EXPECT_EQ(back[0], 0);
  EXPECT_EQ(back[1], 1);
  EXPECT_EQ(back[2], 0xEE);  // hole untouched
  EXPECT_EQ(back[4], 4);
  EXPECT_EQ(back[9], 9);
}

TEST(Pack, MultipleCountsAdvanceByExtent) {
  const Datatype type = Datatype::resized(Datatype::bytes(2), 0, 4);
  std::vector<unsigned char> memory{10, 11, 0, 0, 20, 21, 0, 0, 30, 31, 0, 0};
  std::vector<unsigned char> stream(6);
  pack(memory.data(), type, 3, reinterpret_cast<std::byte*>(stream.data()));
  EXPECT_EQ(stream, (std::vector<unsigned char>{10, 11, 20, 21, 30, 31}));
}

TEST(Pack, SubarrayRoundTripPreservesInterior) {
  const std::int64_t sizes[] = {4, 4};
  const std::int64_t subsizes[] = {2, 2};
  const std::int64_t starts[] = {1, 1};
  const Datatype type =
      Datatype::subarray(sizes, subsizes, starts, Datatype::bytes(1));
  std::vector<unsigned char> memory(16);
  std::iota(memory.begin(), memory.end(), 0);
  std::vector<unsigned char> stream(4);
  pack(memory.data(), type, 1, reinterpret_cast<std::byte*>(stream.data()));
  EXPECT_EQ(stream, (std::vector<unsigned char>{5, 6, 9, 10}));
}

TEST(Pack, NegativeDisplacementRejected) {
  const Datatype type = Datatype::vec(2, 1, -3, Datatype::bytes(4));
  std::vector<std::byte> memory(32);
  std::vector<std::byte> stream(8);
  EXPECT_THROW(pack(memory.data(), type, 1, stream.data()),
               std::invalid_argument);
}

}  // namespace
}  // namespace parcoll::dtype
