// ParColl's per-call decision record.
#pragma once

#include <string>
#include <vector>

#include "core/file_area.hpp"

namespace parcoll::core {

/// What a collective call actually did — exposed for tests, benches, and
/// the close-time summary.
struct ParcollDecision {
  PartitionMode mode = PartitionMode::SingleGroup;
  int num_groups = 1;
  /// Comm-local aggregator ranks per group.
  std::vector<std::vector<int>> aggregators_per_group;

  [[nodiscard]] std::string describe() const;
};

[[nodiscard]] const char* to_string(PartitionMode mode);

}  // namespace parcoll::core
