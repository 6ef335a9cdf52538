#include "core/file_area.hpp"

#include <algorithm>
#include <limits>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <tuple>

namespace parcoll::core {

namespace {

constexpr std::uint64_t kNoOffset = std::numeric_limits<std::uint64_t>::max();

std::uint64_t absdiff(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : b - a;
}

/// Greedy balanced selection of `groups - 1` split positions from `valid`
/// (ascending positions into an ordering of P ranks). `cum[i]` is the byte
/// total of the first i+1 ranks. Each resulting group must have at least
/// `min_size` ranks; fewer splits are returned when the constraints cannot
/// be met.
std::vector<std::size_t> choose_splits(const std::vector<std::uint64_t>& cum,
                                       const std::vector<std::size_t>& valid,
                                       int groups, int min_size) {
  std::vector<std::size_t> chosen;
  if (groups <= 1 || cum.empty()) return chosen;
  const std::size_t nranks = cum.size();
  const std::uint64_t total = cum.back();
  std::size_t prev = 0;
  std::size_t vi = 0;
  for (int g = 1; g < groups; ++g) {
    const std::uint64_t target =
        total * static_cast<std::uint64_t>(g) / static_cast<std::uint64_t>(groups);
    std::size_t best = 0;
    std::size_t best_index = 0;
    std::uint64_t best_diff = std::numeric_limits<std::uint64_t>::max();
    bool found = false;
    for (std::size_t i = vi; i < valid.size(); ++i) {
      const std::size_t p = valid[i];
      if (p < prev + static_cast<std::size_t>(min_size)) {
        vi = i + 1;  // group would be too small; never valid again
        continue;
      }
      if (nranks - p <
          static_cast<std::size_t>(groups - g) * static_cast<std::size_t>(min_size)) {
        break;  // not enough ranks left for the remaining groups
      }
      const std::uint64_t diff = absdiff(cum[p - 1], target);
      if (diff <= best_diff) {
        best = p;
        best_index = i;
        best_diff = diff;
        found = true;
      }
      if (cum[p - 1] >= target) {
        break;  // past the target; later splits are only less balanced
      }
    }
    if (!found) break;
    chosen.push_back(best);
    prev = best;
    vi = best_index + 1;
  }
  return chosen;
}

}  // namespace

std::vector<std::size_t> clean_split_points(const std::vector<RankAccess>& ranks,
                                            const std::vector<int>& order) {
  const std::size_t nranks = order.size();
  std::vector<std::size_t> splits;
  if (nranks < 2) return splits;
  // prefix_max_end[i]: max end over the first i+1 ordered ranks with data.
  std::vector<std::uint64_t> prefix_max_end(nranks, 0);
  std::vector<std::uint64_t> suffix_min_st(nranks, kNoOffset);
  std::uint64_t running = 0;
  for (std::size_t i = 0; i < nranks; ++i) {
    const RankAccess& access = ranks[static_cast<std::size_t>(order[i])];
    if (access.bytes > 0) running = std::max(running, access.end);
    prefix_max_end[i] = running;
  }
  std::uint64_t trailing = kNoOffset;
  for (std::size_t i = nranks; i-- > 0;) {
    const RankAccess& access = ranks[static_cast<std::size_t>(order[i])];
    if (access.bytes > 0) trailing = std::min(trailing, access.st);
    suffix_min_st[i] = trailing;
  }
  for (std::size_t p = 1; p < nranks; ++p) {
    if (prefix_max_end[p - 1] <= suffix_min_st[p]) {
      splits.push_back(p);
    }
  }
  return splits;
}

FileAreaPlan partition_file_areas(const std::vector<RankAccess>& ranks,
                                  int requested_groups, int min_group_size,
                                  bool allow_view_switch) {
  const std::size_t nranks = ranks.size();
  if (nranks == 0) {
    throw std::invalid_argument("partition_file_areas: no ranks");
  }
  min_group_size = std::max(1, min_group_size);

  FileAreaPlan plan;
  plan.group_of_rank.assign(nranks, 0);

  // Overall range, for the single-group area.
  std::uint64_t min_st = kNoOffset;
  std::uint64_t max_end = 0;
  for (const RankAccess& access : ranks) {
    if (access.bytes > 0) {
      min_st = std::min(min_st, access.st);
      max_end = std::max(max_end, access.end);
    }
  }
  const auto single_group = [&] {
    plan.mode = PartitionMode::SingleGroup;
    plan.num_groups = 1;
    std::fill(plan.group_of_rank.begin(), plan.group_of_rank.end(), 0);
    plan.areas = {{min_st == kNoOffset ? 0 : min_st, max_end}};
    return plan;
  };

  const int group_cap = std::max(1, static_cast<int>(nranks) / min_group_size);
  if ((requested_groups != kAutoGroups && requested_groups <= 1) ||
      group_cap <= 1 || max_end <= (min_st == kNoOffset ? 0 : min_st)) {
    return single_group();
  }

  // Order ranks by start offset (empty ranks last).
  std::vector<int> order(nranks);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const auto key = [&](int r) {
      const RankAccess& access = ranks[static_cast<std::size_t>(r)];
      return std::make_tuple(access.bytes > 0 ? access.st : kNoOffset,
                             access.bytes > 0 ? access.end : kNoOffset, r);
    };
    return key(a) < key(b);
  });
  std::vector<std::uint64_t> cum(nranks, 0);
  {
    std::uint64_t running = 0;
    for (std::size_t i = 0; i < nranks; ++i) {
      running += ranks[static_cast<std::size_t>(order[i])].bytes;
      cum[i] = running;
    }
  }

  const std::vector<std::size_t> valid = clean_split_points(ranks, order);

  int groups;
  if (requested_groups == kAutoGroups) {
    // Adaptive choice: take every clean split the least group size
    // permits; a scattered pattern gets ~sqrt(P) intermediate groups
    // (the granularity/coordination balance point — cf. BT-IO, where
    // sqrt(P) groups align with the processor rows).
    if (!valid.empty()) {
      groups = std::min(group_cap, static_cast<int>(valid.size()) + 1);
    } else if (allow_view_switch) {
      groups = std::min(
          group_cap,
          std::max(2, static_cast<int>(std::lround(std::sqrt(
                          static_cast<double>(nranks))))));
    } else {
      return single_group();
    }
  } else {
    groups = std::max(1, std::min(requested_groups, group_cap));
  }
  if (groups <= 1) {
    return single_group();
  }

  const auto build_direct = [&](const std::vector<std::size_t>& splits) {
    plan.mode = PartitionMode::Direct;
    plan.num_groups = static_cast<int>(splits.size()) + 1;
    std::size_t begin = 0;
    for (int g = 0; g < plan.num_groups; ++g) {
      const std::size_t end =
          g + 1 < plan.num_groups ? splits[static_cast<std::size_t>(g)] : nranks;
      std::uint64_t lo = kNoOffset;
      std::uint64_t hi = 0;
      for (std::size_t i = begin; i < end; ++i) {
        const int r = order[i];
        plan.group_of_rank[static_cast<std::size_t>(r)] = g;
        const RankAccess& access = ranks[static_cast<std::size_t>(r)];
        if (access.bytes > 0) {
          lo = std::min(lo, access.st);
          hi = std::max(hi, access.end);
        }
      }
      if (lo == kNoOffset) {  // group of empty ranks: degenerate area
        lo = plan.areas.empty() ? 0 : plan.areas.back().second;
        hi = lo;
      }
      plan.areas.emplace_back(lo, hi);
      begin = end;
    }
    return plan;
  };

  if (static_cast<int>(valid.size()) + 1 >= groups) {
    // Patterns (a)/(b): enough clean boundaries for the requested count.
    auto splits = choose_splits(cum, valid, groups, min_group_size);
    if (splits.empty()) return single_group();
    return build_direct(splits);
  }

  if (allow_view_switch) {
    // Pattern (c): switch to the intermediate file view. Groups are
    // contiguous rank blocks (rank-major concatenation makes the
    // intermediate pattern serial).
    plan.mode = PartitionMode::Intermediate;
    // Each rank's intermediate start: the rank-major prefix sum of bytes.
    std::vector<std::uint64_t> inter_start(nranks);
    std::vector<std::uint64_t> cum_rank(nranks, 0);
    std::uint64_t running = 0;
    for (std::size_t r = 0; r < nranks; ++r) {
      inter_start[r] = running;
      running += ranks[r].bytes;
      cum_rank[r] = running;
    }
    std::vector<std::size_t> all_positions;
    all_positions.reserve(nranks - 1);
    for (std::size_t p = 1; p < nranks; ++p) all_positions.push_back(p);
    auto splits = choose_splits(cum_rank, all_positions, groups, min_group_size);
    if (splits.empty()) return single_group();
    plan.num_groups = static_cast<int>(splits.size()) + 1;
    std::size_t begin = 0;
    for (int g = 0; g < plan.num_groups; ++g) {
      const std::size_t end =
          g + 1 < plan.num_groups ? splits[static_cast<std::size_t>(g)] : nranks;
      for (std::size_t r = begin; r < end; ++r) {
        plan.group_of_rank[r] = g;
      }
      const std::uint64_t lo = inter_start[begin];
      const std::uint64_t hi = end < nranks ? inter_start[end] : running;
      plan.areas.emplace_back(lo, hi);
      begin = end;
    }
    return plan;
  }

  // View switch disabled: use whatever clean boundaries exist.
  auto splits = choose_splits(cum, valid,
                              static_cast<int>(valid.size()) + 1,
                              min_group_size);
  if (splits.empty()) return single_group();
  return build_direct(splits);
}

}  // namespace parcoll::core
