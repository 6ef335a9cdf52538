#include "mpiio/hints.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace parcoll::mpiio {

namespace {
std::vector<int> parse_int_list(const std::string& value) {
  std::vector<int> out;
  std::stringstream stream(value);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) {
      out.push_back(std::stoi(item));
    }
  }
  return out;
}
/// stod, refusing "nan" and "inf", which pass every range check below.
double parse_finite(const std::string& key, const std::string& value) {
  const double parsed = std::stod(value);
  if (!std::isfinite(parsed)) {
    throw std::invalid_argument("Hints::set: " + key +
                                " must be finite (got " + value + ")");
  }
  return parsed;
}
std::string format_int_list(const std::vector<int>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(values[i]);
  }
  return out;
}
}  // namespace

void Hints::set(const std::string& key, const std::string& value) {
  if (key == "cb_buffer_size") {
    const std::uint64_t bytes = std::stoull(value);
    if (bytes == 0) {
      throw std::invalid_argument(
          "Hints::set: cb_buffer_size must be positive (got 0)");
    }
    cb_buffer_size = bytes;
  } else if (key == "cb_nodes") {
    cb_nodes = std::stoi(value);
  } else if (key == "cb_node_list") {
    cb_node_list = parse_int_list(value);
  } else if (key == "striping_factor") {
    striping_factor = std::stoi(value);
  } else if (key == "striping_unit") {
    striping_unit = std::stoull(value);
  } else if (key == "romio_cb_write" || key == "romio_cb_read") {
    bool enabled;
    if (value == "enable" || value == "automatic") {
      enabled = true;
    } else if (value == "disable") {
      enabled = false;
    } else {
      throw std::invalid_argument("Hints::set: bad " + key + " value");
    }
    (key == "romio_cb_write" ? cb_write_enabled : cb_read_enabled) = enabled;
  } else if (key == "cb_fd_align") {
    cb_fd_align = (value == "true" || value == "1" || value == "enable");
  } else if (key == "cb_intranode") {
    cb_intranode = node::parse_intranode_mode(value);
  } else if (key == "cb_intranode_leader") {
    cb_intranode_leader = node::parse_leader_policy(value);
  } else if (key == "romio_no_indep_rw") {
    no_indep_rw = (value == "true" || value == "1" || value == "enable");
  } else if (key == "parcoll_num_groups") {
    if (value == "auto") {
      parcoll_num_groups = -1;
    } else {
      const int groups = std::stoi(value);
      if (groups <= 0) {
        // Via the string interface the documented spellings are a positive
        // count or "auto"; leave the struct default (0) to disable.
        throw std::invalid_argument(
            "Hints::set: parcoll_num_groups must be a positive count or "
            "\"auto\" (got " + value + ")");
      }
      parcoll_num_groups = groups;
    }
  } else if (key == "parcoll_min_group_size") {
    const int size = std::stoi(value);
    if (size < 1) {
      throw std::invalid_argument(
          "Hints::set: parcoll_min_group_size must be >= 1 (got " + value +
          ")");
    }
    parcoll_min_group_size = size;
  } else if (key == "bb") {
    if (value == "enable" || value == "true" || value == "1") {
      bb.enabled = true;
    } else if (value == "disable" || value == "false" || value == "0") {
      bb.enabled = false;
    } else {
      throw std::invalid_argument("Hints::set: bad bb value: " + value);
    }
  } else if (key == "bb_capacity") {
    // stoull silently wraps a negative string around to a huge arena;
    // reject the sign explicitly so "-1" cannot masquerade as ~2^64 bytes.
    if (value.find('-') != std::string::npos) {
      throw std::invalid_argument(
          "Hints::set: bb_capacity must be positive (got " + value + ")");
    }
    const std::uint64_t capacity = std::stoull(value);
    if (capacity == 0) {
      throw std::invalid_argument(
          "Hints::set: bb_capacity must be positive (got 0)");
    }
    bb.capacity = capacity;
  } else if (key == "bb_drain") {
    bb.policy = bb::parse_drain_policy(value);
  } else if (key == "bb_hi_watermark") {
    const double fraction = parse_finite(key, value);
    if (fraction < 0 || fraction > 1) {
      throw std::invalid_argument(
          "Hints::set: bb_hi_watermark must be a capacity fraction in "
          "[0, 1] (got " + value + ")");
    }
    bb.hi_watermark = fraction;
  } else if (key == "bb_lo_watermark") {
    const double fraction = parse_finite(key, value);
    if (fraction < 0 || fraction > 1) {
      throw std::invalid_argument(
          "Hints::set: bb_lo_watermark must be a capacity fraction in "
          "[0, 1] (got " + value + ")");
    }
    bb.lo_watermark = fraction;
  } else if (key == "integrity") {
    integrity.level = fs::parse_integrity_level(value);
  } else if (key == "integrity_block") {
    if (value.find('-') != std::string::npos) {
      throw std::invalid_argument(
          "Hints::set: integrity_block must be positive (got " + value + ")");
    }
    const std::uint64_t block = std::stoull(value);
    if (block == 0) {
      throw std::invalid_argument(
          "Hints::set: integrity_block must be positive (got 0)");
    }
    integrity.block = block;
  } else if (key == "scrub") {
    if (value == "enable" || value == "true" || value == "1") {
      integrity.scrub = true;
    } else if (value == "disable" || value == "false" || value == "0") {
      integrity.scrub = false;
    } else {
      throw std::invalid_argument("Hints::set: bad scrub value: " + value);
    }
  } else if (key == "bb_deadline") {
    const double deadline = parse_finite(key, value);
    if (deadline <= 0) {
      throw std::invalid_argument(
          "Hints::set: bb_deadline must be positive (got " + value + ")");
    }
    bb.drain_deadline = deadline;
  } else if (key == "parcoll_view_switch") {
    parcoll_view_switch = (value == "true" || value == "1");
  } else if (key == "parcoll_persistent_groups") {
    parcoll_persistent_groups = (value == "true" || value == "1");
  } else {
    throw std::invalid_argument("Hints::set: unknown hint key: " + key);
  }
}

void Hints::validate(int comm_size) const {
  if (cb_buffer_size == 0) {
    throw std::invalid_argument("Hints: cb_buffer_size must be positive");
  }
  if (parcoll_num_groups < -1) {
    throw std::invalid_argument(
        "Hints: parcoll_num_groups must be a positive count, 0 (disabled), "
        "or -1/\"auto\" (got " + std::to_string(parcoll_num_groups) + ")");
  }
  if (parcoll_num_groups > comm_size) {
    throw std::invalid_argument(
        "Hints: parcoll_num_groups (" + std::to_string(parcoll_num_groups) +
        ") exceeds the communicator size (" + std::to_string(comm_size) +
        ")");
  }
  if (parcoll_min_group_size < 1) {
    throw std::invalid_argument(
        "Hints: parcoll_min_group_size must be >= 1 (got " +
        std::to_string(parcoll_min_group_size) + ")");
  }
  if (cb_nodes < 0) {
    throw std::invalid_argument("Hints: cb_nodes must be >= 0 (got " +
                                std::to_string(cb_nodes) + ")");
  }
  if (bb.capacity == 0) {
    throw std::invalid_argument("Hints: bb_capacity must be positive");
  }
  if (bb.hi_watermark < 0 || bb.hi_watermark > 1 || bb.lo_watermark < 0 ||
      bb.lo_watermark > 1 || bb.lo_watermark >= bb.hi_watermark) {
    // lo == hi would make the watermark drainer start and stop at the same
    // fill level (it could never hold hysteresis), so require lo < hi.
    throw std::invalid_argument(
        "Hints: bb watermarks must satisfy 0 <= lo < hi <= 1 (got lo=" +
        std::to_string(bb.lo_watermark) + " hi=" +
        std::to_string(bb.hi_watermark) + ")");
  }
  if (bb.drain_deadline <= 0) {
    throw std::invalid_argument("Hints: bb_deadline must be positive");
  }
  if (integrity.block == 0) {
    throw std::invalid_argument("Hints: integrity_block must be positive");
  }
}

std::string Hints::get(const std::string& key) const {
  if (key == "cb_buffer_size") return std::to_string(cb_buffer_size);
  if (key == "cb_nodes") return std::to_string(cb_nodes);
  if (key == "cb_node_list") return format_int_list(cb_node_list);
  if (key == "striping_factor") return std::to_string(striping_factor);
  if (key == "striping_unit") return std::to_string(striping_unit);
  if (key == "romio_cb_write") return cb_write_enabled ? "enable" : "disable";
  if (key == "romio_cb_read") return cb_read_enabled ? "enable" : "disable";
  if (key == "romio_no_indep_rw") return no_indep_rw ? "true" : "false";
  if (key == "cb_fd_align") return cb_fd_align ? "true" : "false";
  if (key == "cb_intranode") return node::to_string(cb_intranode);
  if (key == "cb_intranode_leader") {
    return node::to_string(cb_intranode_leader);
  }
  if (key == "parcoll_num_groups") return std::to_string(parcoll_num_groups);
  if (key == "parcoll_min_group_size") {
    return std::to_string(parcoll_min_group_size);
  }
  if (key == "bb") return bb.enabled ? "enable" : "disable";
  if (key == "bb_capacity") return std::to_string(bb.capacity);
  if (key == "bb_drain") return bb::to_string(bb.policy);
  if (key == "bb_hi_watermark") return std::to_string(bb.hi_watermark);
  if (key == "bb_lo_watermark") return std::to_string(bb.lo_watermark);
  if (key == "bb_deadline") return std::to_string(bb.drain_deadline);
  if (key == "integrity") return fs::to_string(integrity.level);
  if (key == "integrity_block") return std::to_string(integrity.block);
  if (key == "scrub") return integrity.scrub ? "enable" : "disable";
  if (key == "parcoll_view_switch") return parcoll_view_switch ? "true" : "false";
  if (key == "parcoll_persistent_groups") {
    return parcoll_persistent_groups ? "true" : "false";
  }
  throw std::invalid_argument("Hints::get: unknown hint key: " + key);
}

}  // namespace parcoll::mpiio
