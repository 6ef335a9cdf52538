#include "core/intermediate_view.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace parcoll::core {

IntermediateMap::IntermediateMap(const std::vector<MemberSegments>& members) {
  std::size_t nextents = 0;
  for (const MemberSegments& member : members) {
    nextents += member.extents.size();
  }
  extents_.reserve(nextents);
  prefix_.reserve(nextents);
  member_start_.reserve(members.size());
  start_ = end_ = members.empty() ? 0 : members.front().inter_start;
  for (const MemberSegments& member : members) {
    if (member.inter_start != end_) {
      throw std::invalid_argument(
          "IntermediateMap: member ranges must be contiguous and sorted");
    }
    add_member(mpi::detail::bytes_of(member.extents));
  }
}

IntermediateMap::IntermediateMap(mpi::CollContribs contributions) {
  std::size_t nextents = 0;
  for (const auto& contribution : contributions) {
    if (contribution.size() % sizeof(fs::Extent) != 0) {
      throw std::logic_error(
          "IntermediateMap: contribution not a whole number of extents");
    }
    nextents += contribution.size() / sizeof(fs::Extent);
  }
  extents_.reserve(nextents);
  prefix_.reserve(nextents);
  member_start_.reserve(contributions.size());
  for (const auto& contribution : contributions) {
    add_member(contribution);
  }
}

void IntermediateMap::add_member(std::span<const std::byte> extents) {
  member_start_.push_back(end_);
  for (std::size_t at = 0; at < extents.size(); at += sizeof(fs::Extent)) {
    fs::Extent extent;
    std::memcpy(&extent, extents.data() + at, sizeof extent);
    if (extent.length == 0) continue;
    extents_.push_back(extent);
    prefix_.push_back(end_);
    end_ += extent.length;
  }
}

std::size_t IntermediateMap::extent_at(std::uint64_t pos) const {
  // The last extent starting at or before pos.
  return static_cast<std::size_t>(
             std::upper_bound(prefix_.begin(), prefix_.end(), pos) -
             prefix_.begin()) -
         1;
}

void IntermediateMap::translate(const fs::Extent& span,
                                std::vector<fs::Extent>& out) const {
  if (span.length == 0) return;
  const std::uint64_t lo = span.offset;
  const std::uint64_t hi = span.end();
  if (lo < start_ || hi > end_) {
    throw std::out_of_range(
        "IntermediateMap::translate: range not fully covered by members");
  }
  for (std::size_t i = extent_at(lo); i < extents_.size() && prefix_[i] < hi;
       ++i) {
    const std::uint64_t from = std::max(lo, prefix_[i]);
    const std::uint64_t to = std::min(hi, prefix_[i] + extents_[i].length);
    out.push_back(
        fs::Extent{extents_[i].offset + (from - prefix_[i]), to - from});
  }
}

std::size_t IntermediateMap::count(const fs::Extent& span) const {
  if (span.length == 0 || span.offset < start_ || span.end() > end_) {
    return 0;
  }
  return extent_at(span.end() - 1) + 1 - extent_at(span.offset);
}

void IntermediateTarget::translate_all(std::span<const fs::Extent> extents) {
  std::size_t total = 0;
  for (const fs::Extent& extent : extents) total += map_->count(extent);
  physical_.clear();
  physical_.reserve(total);
  for (const fs::Extent& extent : extents) map_->translate(extent, physical_);
}

void IntermediateTarget::write(mpi::Rank& self,
                               std::span<const fs::Extent> extents,
                               const std::byte* data) {
  translate_all(extents);
  inner_.write(self, physical_, data);
}

void IntermediateTarget::read(mpi::Rank& self,
                              std::span<const fs::Extent> extents,
                              std::byte* out) {
  translate_all(extents);
  inner_.read(self, physical_, out);
}

}  // namespace parcoll::core
