#include "core/intermediate_view.hpp"

#include <algorithm>
#include <stdexcept>

namespace parcoll::core {

IntermediateMap::IntermediateMap(std::vector<MemberSegments> members) {
  members_.reserve(members.size());
  std::uint64_t expected_start = members.empty() ? 0 : members[0].inter_start;
  for (MemberSegments& in : members) {
    Member member;
    member.inter_start = in.inter_start;
    if (member.inter_start != expected_start) {
      throw std::invalid_argument(
          "IntermediateMap: member ranges must be contiguous and sorted");
    }
    member.extents = std::move(in.extents);
    member.prefix.reserve(member.extents.size());
    std::uint64_t pos = 0;
    for (const fs::Extent& extent : member.extents) {
      member.prefix.push_back(pos);
      pos += extent.length;
    }
    member.inter_end = member.inter_start + pos;
    expected_start = member.inter_end;
    total_bytes_ += pos;
    members_.push_back(std::move(member));
  }
}

std::vector<fs::Extent> IntermediateMap::translate(const fs::Extent& span) const {
  std::vector<fs::Extent> physical;
  if (span.length == 0) return physical;
  const std::uint64_t lo = span.offset;
  const std::uint64_t hi = span.end();
  // First member whose range ends beyond lo.
  auto it = std::partition_point(
      members_.begin(), members_.end(),
      [lo](const Member& m) { return m.inter_end <= lo; });
  for (; it != members_.end() && it->inter_start < hi; ++it) {
    const std::uint64_t m_lo = std::max(lo, it->inter_start) - it->inter_start;
    const std::uint64_t m_hi = std::min(hi, it->inter_end) - it->inter_start;
    if (m_lo >= m_hi) continue;
    // Walk this member's extents covering stream range [m_lo, m_hi).
    auto seg = std::upper_bound(it->prefix.begin(), it->prefix.end(), m_lo);
    std::size_t i = static_cast<std::size_t>(seg - it->prefix.begin()) - 1;
    for (; i < it->extents.size() && it->prefix[i] < m_hi; ++i) {
      const std::uint64_t seg_lo = std::max(m_lo, it->prefix[i]);
      const std::uint64_t seg_hi =
          std::min(m_hi, it->prefix[i] + it->extents[i].length);
      physical.push_back(
          fs::Extent{it->extents[i].offset + (seg_lo - it->prefix[i]),
                     seg_hi - seg_lo});
    }
  }
  std::uint64_t translated = 0;
  for (const fs::Extent& extent : physical) translated += extent.length;
  if (translated != hi - lo) {
    throw std::out_of_range(
        "IntermediateMap::translate: range not fully covered by members");
  }
  return physical;
}

std::vector<fs::Extent> IntermediateTarget::translate_all(
    std::span<const fs::Extent> extents) const {
  std::vector<fs::Extent> physical;
  for (const fs::Extent& extent : extents) {
    auto part = map_->translate(extent);
    physical.insert(physical.end(), part.begin(), part.end());
  }
  return physical;
}

void IntermediateTarget::write(mpi::Rank& self,
                               std::span<const fs::Extent> extents,
                               const std::byte* data) {
  const auto physical = translate_all(extents);
  inner_.write(self, physical, data);
}

void IntermediateTarget::read(mpi::Rank& self,
                              std::span<const fs::Extent> extents,
                              std::byte* out) {
  const auto physical = translate_all(extents);
  inner_.read(self, physical, out);
}

}  // namespace parcoll::core
