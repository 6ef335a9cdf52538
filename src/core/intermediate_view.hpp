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
#include <span>
#include <vector>

#include "fs/lustre.hpp"
#include "fs/stripe.hpp"
#include "mpi/collectives.hpp"
#include "mpiio/ext2ph.hpp"

namespace parcoll::core {

/// The physical segments of one rank, anchored at its intermediate start.
struct MemberSegments {
  std::uint64_t inter_start = 0;
  std::vector<fs::Extent> extents;  // monotone physical extents
};

/// Maps intermediate-space extents back to physical extents. Every
/// member's extents sit in one array, each with its intermediate offset
/// in a parallel prefix array, so a lookup is one binary search and a walk.
class IntermediateMap {
 public:
  /// `members` must be sorted by inter_start and contiguous (each member's
  /// range starts where the previous ends).
  explicit IntermediateMap(const std::vector<MemberSegments>& members);

  /// The subgroup's map, built from the members' allgathered physical
  /// extents in local-rank order (each contribution a whole number of
  /// fs::Extent): the first member's range starts at 0 and each next one
  /// where the one before ends.
  explicit IntermediateMap(mpi::CollContribs contributions);

  /// Append the physical extents of the intermediate range [span.offset,
  /// span.end()) to `out`, in intermediate order: the k-th byte of the
  /// appended extents (walked in list order) is the k-th byte of the
  /// range. Throws std::out_of_range, appending nothing, when the members
  /// do not cover the range.
  void translate(const fs::Extent& span, std::vector<fs::Extent>& out) const;

  /// How many extents translate(span) appends.
  [[nodiscard]] std::size_t count(const fs::Extent& span) const;

  [[nodiscard]] std::uint64_t total_bytes() const { return end_ - start_; }
  /// Intermediate start of the `i`-th member (construction order).
  [[nodiscard]] std::uint64_t inter_start(std::size_t i) const {
    return member_start_[i];
  }

 private:
  /// Append one member's extents at intermediate offset end_ (zero-length
  /// extents carry no bytes and are left out).
  void add_member(std::span<const std::byte> extents);
  /// Index of the extent holding intermediate offset `pos` (covered).
  [[nodiscard]] std::size_t extent_at(std::uint64_t pos) const;

  std::vector<fs::Extent> extents_;    // every member's, in member order
  std::vector<std::uint64_t> prefix_;  // intermediate offset of extents_[i]
  std::vector<std::uint64_t> member_start_;
  std::uint64_t start_ = 0;  // the space is [start_, end_)
  std::uint64_t end_ = 0;
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
  /// Fill physical_ with the physical extents of `extents`, in order.
  void translate_all(std::span<const fs::Extent> extents);

  mpiio::IoTarget& inner_;
  std::shared_ptr<const IntermediateMap> map_;
  /// Reused from one exchange cycle to the next.
  std::vector<fs::Extent> physical_;
};

}  // namespace parcoll::core
