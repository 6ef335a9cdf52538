#include "core/config.hpp"

#include <sstream>

namespace parcoll::core {

const char* to_string(PartitionMode mode) {
  switch (mode) {
    case PartitionMode::SingleGroup:
      return "single-group";
    case PartitionMode::Direct:
      return "direct";
    case PartitionMode::Intermediate:
      return "intermediate-view";
  }
  return "?";
}

std::string ParcollDecision::describe() const {
  std::ostringstream os;
  os << "mode=" << to_string(mode) << " groups=" << num_groups;
  for (std::size_t g = 0; g < aggregators_per_group.size(); ++g) {
    os << " g" << g << "=[";
    const auto& aggregators = aggregators_per_group[g];
    for (std::size_t i = 0; i < aggregators.size(); ++i) {
      if (i > 0) os << ",";
      os << aggregators[i];
    }
    os << "]";
  }
  return os.str();
}

}  // namespace parcoll::core
