// Intermediate file views — paper §4.1, Fig. 4(c).
//
// For scattered access patterns (e.g. BT-IO's diagonal multi-partitioning),
// no direct file split yields non-overlapping FAs. ParColl then builds a
// logical re-linearization of the file: each rank's segments are virtually
// concatenated, rank-major. In that intermediate space each rank owns one
// contiguous range, so partitioning reduces to the serial pattern (a).
//
// Aggregation (the ext2ph engine) runs entirely in intermediate
// coordinates; only at the file-I/O step does the aggregator resolve an
// intermediate extent back to the physical segments it represents — "the
// original file view is still needed to provide the physical layout".
// Consistency holds because each rank's physical segments belong to exactly
// one subgroup.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fs/lustre.hpp"
#include "fs/stripe.hpp"
#include "mpiio/ext2ph.hpp"

namespace parcoll::core {

/// The physical segments of one rank, anchored at its intermediate start.
struct MemberSegments {
  std::uint64_t inter_start = 0;
  std::vector<fs::Extent> extents;  // monotone physical extents
};

/// Maps intermediate-space extents back to physical extents.
class IntermediateMap {
 public:
  /// `members` must be sorted by inter_start and contiguous (each member's
  /// range starts where the previous ends).
  explicit IntermediateMap(std::vector<MemberSegments> members);

  /// Physical extents for the intermediate range [span.offset, span.end()),
  /// in intermediate order. The k-th byte of the returned extents (walked
  /// in list order) is the k-th byte of the intermediate range.
  [[nodiscard]] std::vector<fs::Extent> translate(const fs::Extent& span) const;

  [[nodiscard]] std::uint64_t total_bytes() const { return total_bytes_; }
  /// Intermediate start of the `i`-th member (construction order).
  [[nodiscard]] std::uint64_t inter_start(std::size_t i) const {
    return members_[i].inter_start;
  }

 private:
  struct Member {
    std::uint64_t inter_start;
    std::uint64_t inter_end;
    std::vector<fs::Extent> extents;
    std::vector<std::uint64_t> prefix;  // stream offset of each extent
  };
  std::vector<Member> members_;
  std::uint64_t total_bytes_ = 0;
};

/// IoTarget that resolves intermediate extents through an IntermediateMap
/// before delegating to the wrapped physical target (DirectTarget, or the
/// burst-buffer staging target — the translation layer does not care). The
/// map is immutable, so every member of a subgroup can share one.
class IntermediateTarget final : public mpiio::IoTarget {
 public:
  IntermediateTarget(mpiio::IoTarget& inner,
                     std::shared_ptr<const IntermediateMap> map)
      : inner_(inner), map_(std::move(map)) {}

  void write(mpi::Rank& self, std::span<const fs::Extent> extents,
             const std::byte* data) override;
  void read(mpi::Rank& self, std::span<const fs::Extent> extents,
            std::byte* out) override;

 private:
  std::vector<fs::Extent> translate_all(
      std::span<const fs::Extent> extents) const;

  mpiio::IoTarget& inner_;
  std::shared_ptr<const IntermediateMap> map_;
};

}  // namespace parcoll::core
