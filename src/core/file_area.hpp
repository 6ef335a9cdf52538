// File Area (FA) partitioning — paper §4.1, Fig. 4.
//
// ParColl divides the process group into subgroups and the file into one
// File Area per subgroup. FAs must be (close to) evenly loaded and must not
// overlap, or uncoordinated subgroups could not maintain consistency.
//
// Three access patterns drive the algorithm:
//  (a) serial     — per-rank ranges are disjoint: any boundary between
//                   ranks (sorted by start offset) is a valid split.
//  (b) tiled      — ranges interleave locally but "clean" boundaries exist
//                   where no rank's range crosses (e.g. between tile rows).
//  (c) scattered  — every rank's range spans (nearly) the whole file; no
//                   clean boundary exists. ParColl switches to an
//                   intermediate file view, in which each rank's segments
//                   are virtually concatenated rank-major — pattern (a) by
//                   construction.
//
// partition_file_areas() finds the clean split points, uses them if enough
// exist for the requested group count, and otherwise reports the
// intermediate-view switch (or falls back to fewer groups if the switch is
// disabled).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace parcoll::core {

/// One rank's access summary: the byte range its request touches and the
/// amount of data in it. Ranks with no data have bytes == 0.
struct RankAccess {
  std::uint64_t st = 0;
  std::uint64_t end = 0;  // exclusive
  std::uint64_t bytes = 0;
};

enum class PartitionMode {
  SingleGroup,   // no partitioning possible/requested: plain ext2ph
  Direct,        // FAs carved from the physical file (patterns a/b)
  Intermediate,  // FAs carved from the intermediate view (pattern c)
};

struct FileAreaPlan {
  PartitionMode mode = PartitionMode::SingleGroup;
  int num_groups = 1;
  /// Group id per comm-local rank.
  std::vector<int> group_of_rank;
  /// [lo, hi) per group — physical offsets in Direct mode, intermediate
  /// offsets in Intermediate mode (the rank-major prefix sums of bytes at
  /// the group's bounds). Non-overlapping and ordered.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> areas;
};

/// Requesting this many groups asks the planner to pick the count itself:
/// as many clean-split (direct) groups as the least group size permits, or
/// about sqrt(P) groups when the pattern forces the intermediate view.
/// This implements the paper's future-work item of "adaptively choosing
/// the best group size"; bench abl_adaptive evaluates the heuristic.
inline constexpr int kAutoGroups = -1;

/// Compute the FA partition for `ranks` (indexed by comm-local rank).
/// `requested_groups` is the ParColl-N hint (or kAutoGroups); the result
/// uses at most that many groups, at least min_group_size ranks each
/// (best effort).
FileAreaPlan partition_file_areas(const std::vector<RankAccess>& ranks,
                                  int requested_groups, int min_group_size,
                                  bool allow_view_switch);

/// The clean split points of `order` (rank indices sorted by start offset):
/// positions p such that splitting the sorted list after the first p ranks
/// yields non-overlapping halves. Exposed for testing.
std::vector<std::size_t> clean_split_points(const std::vector<RankAccess>& ranks,
                                            const std::vector<int>& order);

}  // namespace parcoll::core
