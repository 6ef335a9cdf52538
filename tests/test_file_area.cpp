// File Area partitioning: the three paper patterns (serial, tiled,
// scattered), clean-split detection, balance, and the view-switch decision.
#include <gtest/gtest.h>

#include <numeric>

#include "core/file_area.hpp"

namespace parcoll::core {
namespace {

std::vector<RankAccess> serial_ranks(int n, std::uint64_t bytes) {
  std::vector<RankAccess> ranks;
  for (int r = 0; r < n; ++r) {
    ranks.push_back(RankAccess{static_cast<std::uint64_t>(r) * bytes,
                               static_cast<std::uint64_t>(r + 1) * bytes,
                               bytes});
  }
  return ranks;
}

/// Tiled pattern: groups of `per_row` ranks share an interleaved row range.
std::vector<RankAccess> tiled_ranks(int rows, int per_row,
                                    std::uint64_t row_bytes) {
  std::vector<RankAccess> ranks;
  for (int row = 0; row < rows; ++row) {
    const std::uint64_t lo = static_cast<std::uint64_t>(row) * row_bytes;
    for (int i = 0; i < per_row; ++i) {
      // Every tile in a row spans nearly the whole row (interleaved).
      ranks.push_back(RankAccess{lo + static_cast<std::uint64_t>(i) * 64,
                                 lo + row_bytes -
                                     static_cast<std::uint64_t>(per_row - 1 - i) * 64,
                                 row_bytes / per_row});
    }
  }
  return ranks;
}

/// Scattered pattern: every rank spans the whole file.
std::vector<RankAccess> scattered_ranks(int n, std::uint64_t file_bytes) {
  std::vector<RankAccess> ranks;
  for (int r = 0; r < n; ++r) {
    ranks.push_back(RankAccess{static_cast<std::uint64_t>(r) * 8,
                               file_bytes - (static_cast<std::uint64_t>(n - r)) * 8,
                               file_bytes / n});
  }
  return ranks;
}

void expect_non_overlapping(const FileAreaPlan& plan) {
  for (std::size_t g = 1; g < plan.areas.size(); ++g) {
    EXPECT_LE(plan.areas[g - 1].second, plan.areas[g].first)
        << "areas " << g - 1 << " and " << g << " overlap";
  }
}

void expect_groups_contiguous_and_sized(const FileAreaPlan& plan,
                                        int min_size) {
  std::vector<int> counts(static_cast<std::size_t>(plan.num_groups), 0);
  for (int g : plan.group_of_rank) {
    ASSERT_GE(g, 0);
    ASSERT_LT(g, plan.num_groups);
    ++counts[static_cast<std::size_t>(g)];
  }
  for (int count : counts) {
    EXPECT_GE(count, min_size);
  }
}

TEST(FileArea, SerialPatternSplitsAnywhere) {
  const auto ranks = serial_ranks(16, 1000);
  const auto plan = partition_file_areas(ranks, 4, 2, true);
  EXPECT_EQ(plan.mode, PartitionMode::Direct);
  EXPECT_EQ(plan.num_groups, 4);
  expect_non_overlapping(plan);
  expect_groups_contiguous_and_sized(plan, 2);
  // Balanced: each group covers ~4 ranks.
  EXPECT_EQ(plan.areas[0], (std::pair<std::uint64_t, std::uint64_t>{0, 4000}));
  EXPECT_EQ(plan.areas[3].second, 16000u);
}

TEST(FileArea, SerialSplitPointsAreAllBoundaries) {
  const auto ranks = serial_ranks(8, 100);
  std::vector<int> order(8);
  std::iota(order.begin(), order.end(), 0);
  const auto splits = clean_split_points(ranks, order);
  EXPECT_EQ(splits.size(), 7u);
}

TEST(FileArea, TiledPatternSplitsBetweenRows) {
  // 8 rows of 4 interleaved tiles: splits only at row boundaries.
  const auto ranks = tiled_ranks(8, 4, 4096);
  std::vector<int> order(32);
  std::iota(order.begin(), order.end(), 0);
  const auto splits = clean_split_points(ranks, order);
  EXPECT_EQ(splits.size(), 7u);  // between the 8 rows
  for (std::size_t i = 0; i < splits.size(); ++i) {
    EXPECT_EQ(splits[i] % 4, 0u);  // only at multiples of per_row
  }
  const auto plan = partition_file_areas(ranks, 8, 4, true);
  EXPECT_EQ(plan.mode, PartitionMode::Direct);
  EXPECT_EQ(plan.num_groups, 8);
  expect_non_overlapping(plan);
  // Every row forms one group.
  for (int r = 0; r < 32; ++r) {
    EXPECT_EQ(plan.group_of_rank[static_cast<std::size_t>(r)], r / 4);
  }
}

TEST(FileArea, TiledRequestingTooManyGroupsSwitchesToIntermediate) {
  const auto ranks = tiled_ranks(4, 4, 4096);  // only 3 clean splits
  const auto plan = partition_file_areas(ranks, 8, 2, true);
  EXPECT_EQ(plan.mode, PartitionMode::Intermediate);
  EXPECT_EQ(plan.num_groups, 8);
  expect_non_overlapping(plan);
  ASSERT_EQ(plan.areas.size(), 8u);
  // Groups are rank blocks, and each area spans the rank-major byte prefix
  // sums at its block's bounds.
  std::uint64_t expected = 0;
  for (std::size_t r = 0; r < 16; ++r) {
    const int group = plan.group_of_rank[r];
    const auto& [lo, hi] = plan.areas[static_cast<std::size_t>(group)];
    if (r == 0 || plan.group_of_rank[r - 1] != group) {
      EXPECT_EQ(lo, expected);
    }
    expected += ranks[r].bytes;
    if (r == 15 || plan.group_of_rank[r + 1] != group) {
      EXPECT_EQ(hi, expected);
    }
  }
}

TEST(FileArea, ScatteredPatternSwitchesToIntermediate) {
  const auto ranks = scattered_ranks(12, 1 << 20);
  const auto plan = partition_file_areas(ranks, 4, 2, true);
  EXPECT_EQ(plan.mode, PartitionMode::Intermediate);
  EXPECT_EQ(plan.num_groups, 4);
  expect_non_overlapping(plan);
  expect_groups_contiguous_and_sized(plan, 2);
}

TEST(FileArea, ScatteredWithViewSwitchDisabledFallsBack) {
  const auto ranks = scattered_ranks(12, 1 << 20);
  const auto plan = partition_file_areas(ranks, 4, 2, false);
  EXPECT_EQ(plan.mode, PartitionMode::SingleGroup);
  EXPECT_EQ(plan.num_groups, 1);
}

TEST(FileArea, TiledWithViewSwitchDisabledUsesAvailableSplits) {
  const auto ranks = tiled_ranks(4, 4, 4096);  // 3 clean splits
  const auto plan = partition_file_areas(ranks, 8, 2, false);
  EXPECT_EQ(plan.mode, PartitionMode::Direct);
  EXPECT_EQ(plan.num_groups, 4);  // as many as the splits allow
  expect_non_overlapping(plan);
}

TEST(FileArea, MinGroupSizeClampsGroupCount) {
  const auto ranks = serial_ranks(16, 1000);
  const auto plan = partition_file_areas(ranks, 16, 8, true);
  EXPECT_EQ(plan.num_groups, 2);  // 16 ranks / min 8
  expect_groups_contiguous_and_sized(plan, 8);
}

TEST(FileArea, OneGroupRequestedIsSingleGroup) {
  const auto ranks = serial_ranks(8, 100);
  const auto plan = partition_file_areas(ranks, 1, 1, true);
  EXPECT_EQ(plan.mode, PartitionMode::SingleGroup);
  EXPECT_EQ(plan.areas[0], (std::pair<std::uint64_t, std::uint64_t>{0, 800}));
}

TEST(FileArea, UnsortedRankOrderIsHandled) {
  // Ranks in reverse file order: grouping must follow offsets, not ids.
  std::vector<RankAccess> ranks;
  for (int r = 0; r < 8; ++r) {
    const int pos = 7 - r;
    ranks.push_back(RankAccess{static_cast<std::uint64_t>(pos) * 100,
                               static_cast<std::uint64_t>(pos + 1) * 100, 100});
  }
  const auto plan = partition_file_areas(ranks, 2, 2, true);
  EXPECT_EQ(plan.mode, PartitionMode::Direct);
  EXPECT_EQ(plan.num_groups, 2);
  // Rank 7 has the lowest offsets -> group 0; rank 0 the highest -> group 1.
  EXPECT_EQ(plan.group_of_rank[7], 0);
  EXPECT_EQ(plan.group_of_rank[0], 1);
  expect_non_overlapping(plan);
}

TEST(FileArea, EmptyRanksJoinGroupsHarmlessly) {
  auto ranks = serial_ranks(6, 1000);
  ranks.push_back(RankAccess{});  // two idle ranks
  ranks.push_back(RankAccess{});
  const auto plan = partition_file_areas(ranks, 2, 2, true);
  EXPECT_EQ(plan.mode, PartitionMode::Direct);
  EXPECT_EQ(plan.num_groups, 2);
  expect_non_overlapping(plan);
}

TEST(FileArea, AllEmptyIsSingleGroup) {
  const std::vector<RankAccess> ranks(8);
  const auto plan = partition_file_areas(ranks, 4, 2, true);
  EXPECT_EQ(plan.mode, PartitionMode::SingleGroup);
}

TEST(FileArea, ByteBalancedSplitsWithUnevenSizes) {
  // One huge rank and many small: the huge rank should sit alone-ish.
  std::vector<RankAccess> ranks;
  ranks.push_back(RankAccess{0, 1000000, 1000000});
  for (int r = 0; r < 7; ++r) {
    ranks.push_back(RankAccess{1000000 + static_cast<std::uint64_t>(r) * 10,
                               1000000 + static_cast<std::uint64_t>(r + 1) * 10,
                               10});
  }
  const auto plan = partition_file_areas(ranks, 2, 1, true);
  EXPECT_EQ(plan.num_groups, 2);
  EXPECT_EQ(plan.group_of_rank[0], 0);
  for (int r = 1; r < 8; ++r) {
    EXPECT_EQ(plan.group_of_rank[static_cast<std::size_t>(r)], 1);
  }
}

TEST(FileArea, IntermediateAreasTileTheWholeStream) {
  const auto ranks = scattered_ranks(10, 1 << 16);
  const auto plan = partition_file_areas(ranks, 5, 2, true);
  ASSERT_EQ(plan.mode, PartitionMode::Intermediate);
  std::uint64_t total = 0;
  for (const auto& rank : ranks) total += rank.bytes;
  EXPECT_EQ(plan.areas.front().first, 0u);
  EXPECT_EQ(plan.areas.back().second, total);
  for (std::size_t g = 1; g < plan.areas.size(); ++g) {
    EXPECT_EQ(plan.areas[g - 1].second, plan.areas[g].first);
  }
}

}  // namespace
}  // namespace parcoll::core
