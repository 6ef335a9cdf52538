#include "fault/fault.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "sim/random.hpp"

namespace parcoll::fault {

namespace {

constexpr std::uint64_t kDropStream = 0xD509;
constexpr std::uint64_t kDelayStream = 0xDE1A;
constexpr std::uint64_t kCorruptStream = 0xC0DE;
constexpr std::uint64_t kBbCorruptStream = 0xB0BB;
constexpr std::uint64_t kSiteStream = 0x517E;

double fault_draw(std::uint64_t seed, std::uint64_t stream, int ost,
                  std::uint64_t draw) {
  const std::uint64_t h = sim::hash_combine(
      sim::hash_combine(sim::mix64(seed ^ stream),
                        static_cast<std::uint64_t>(ost)),
      draw);
  return sim::uniform01(h);
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, sep)) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument("FaultPlan::parse: " + what);
}

double to_double(const std::string& value, const std::string& key) {
  try {
    std::size_t used = 0;
    const double parsed = std::stod(value, &used);
    if (used != value.size()) bad("trailing characters in " + key);
    // stod reads "nan" and "inf"; no field means either, and both would
    // reach the virtual clock.
    if (!std::isfinite(parsed)) {
      bad("non-finite number for " + key + ": " + value);
    }
    return parsed;
  } catch (const std::invalid_argument&) {
    bad("bad number for " + key + ": " + value);
  } catch (const std::out_of_range&) {
    bad("out-of-range number for " + key + ": " + value);
  }
}

std::uint64_t to_uint64(const std::string& value, const std::string& key) {
  try {
    std::size_t used = 0;
    const unsigned long long parsed = std::stoull(value, &used);
    if (used != value.size()) bad("trailing characters in " + key);
    if (!value.empty() && value[0] == '-') bad(key + " must be >= 0");
    return static_cast<std::uint64_t>(parsed);
  } catch (const std::invalid_argument&) {
    bad("bad number for " + key + ": " + value);
  } catch (const std::out_of_range&) {
    bad("out-of-range number for " + key + ": " + value);
  }
}

int to_int(const std::string& value, const std::string& key) {
  const double parsed = to_double(value, key);
  const int as_int = static_cast<int>(parsed);
  if (static_cast<double>(as_int) != parsed) bad(key + " must be an integer");
  return as_int;
}

}  // namespace

bool FaultPlan::empty() const {
  return outages.empty() && degrades.empty() && stalls.empty() &&
         media.empty() && rpc_drop_prob <= 0.0 && rpc_delay_prob <= 0.0 &&
         rpc_corrupt_prob <= 0.0 && bb_corrupt_prob <= 0.0;
}

bool FaultPlan::ost_down(int ost, double at) const {
  for (const OstOutage& outage : outages) {
    if (outage.ost == ost && at >= outage.begin && at < outage.end) {
      return true;
    }
  }
  return false;
}

double FaultPlan::degrade_factor(int ost, double at) const {
  double factor = 1.0;
  for (const OstDegrade& degrade : degrades) {
    if (degrade.ost == ost && at >= degrade.begin && at < degrade.end) {
      factor *= std::max(1.0, degrade.factor);
    }
  }
  return factor;
}

bool FaultPlan::drop_rpc(int ost, std::uint64_t draw) const {
  if (rpc_drop_prob <= 0.0) return false;
  return fault_draw(seed, kDropStream, ost, draw) < rpc_drop_prob;
}

bool FaultPlan::delay_rpc(int ost, std::uint64_t draw) const {
  if (rpc_delay_prob <= 0.0) return false;
  return fault_draw(seed, kDelayStream, ost, draw) < rpc_delay_prob;
}

bool FaultPlan::corrupt_rpc(int ost, std::uint64_t draw) const {
  if (rpc_corrupt_prob <= 0.0) return false;
  return fault_draw(seed, kCorruptStream, ost, draw) < rpc_corrupt_prob;
}

bool FaultPlan::corrupt_bb(int rank, std::uint64_t draw) const {
  if (bb_corrupt_prob <= 0.0) return false;
  return fault_draw(seed, kBbCorruptStream, rank, draw) < bb_corrupt_prob;
}

std::uint64_t FaultPlan::corrupt_site(std::uint64_t a, std::uint64_t b) const {
  return sim::hash_combine(
      sim::hash_combine(sim::mix64(seed ^ kSiteStream), a), b);
}

double FaultPlan::stall_remaining(int rank, double at) const {
  double remaining = 0.0;
  for (const RankStall& stall : stalls) {
    if (stall.rank != rank) continue;
    const double end = stall.at + stall.duration;
    if (at >= stall.at && at < end) {
      remaining = std::max(remaining, end - at);
    }
  }
  return remaining;
}

double FaultPlan::backoff(int attempt) const {
  double wait = retry.backoff_base;
  for (int i = 0; i < attempt && wait < retry.backoff_max; ++i) {
    wait *= 2.0;
  }
  return std::min(wait, retry.backoff_max);
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  for (const std::string& entry : split(spec, ';')) {
    const auto eq = entry.find('=');
    if (eq == std::string::npos) bad("expected key=value, got: " + entry);
    const std::string key = entry.substr(0, eq);
    const std::string value = entry.substr(eq + 1);
    const auto fields = split(value, ':');
    if (key == "seed") {
      plan.seed = to_uint64(value, key);
    } else if (key == "ost-outage") {
      if (fields.size() != 3) bad("ost-outage wants OST:BEGIN:END");
      OstOutage outage;
      outage.ost = to_int(fields[0], key);
      outage.begin = to_double(fields[1], key);
      outage.end = to_double(fields[2], key);
      if (outage.end <= outage.begin) bad("ost-outage window is empty");
      plan.outages.push_back(outage);
    } else if (key == "ost-degrade") {
      if (fields.size() != 4) bad("ost-degrade wants OST:BEGIN:END:FACTOR");
      OstDegrade degrade;
      degrade.ost = to_int(fields[0], key);
      degrade.begin = to_double(fields[1], key);
      degrade.end = to_double(fields[2], key);
      degrade.factor = to_double(fields[3], key);
      if (degrade.end <= degrade.begin) bad("ost-degrade window is empty");
      if (degrade.factor < 1.0) bad("ost-degrade factor must be >= 1");
      plan.degrades.push_back(degrade);
    } else if (key == "rank-stall") {
      if (fields.size() != 3) bad("rank-stall wants RANK:AT:DURATION");
      RankStall stall;
      stall.rank = to_int(fields[0], key);
      stall.at = to_double(fields[1], key);
      stall.duration = to_double(fields[2], key);
      if (stall.duration <= 0) bad("rank-stall duration must be > 0");
      plan.stalls.push_back(stall);
    } else if (key == "media-corrupt") {
      if (fields.size() != 2) bad("media-corrupt wants OST:AT");
      MediaCorrupt event;
      event.ost = to_int(fields[0], key);
      event.at = to_double(fields[1], key);
      if (event.at < 0) bad("media-corrupt time must be >= 0");
      plan.media.push_back(event);
    } else if (key == "rpc-drop") {
      plan.rpc_drop_prob = to_double(value, key);
      if (plan.rpc_drop_prob < 0 || plan.rpc_drop_prob > 1) {
        bad("rpc-drop must be a probability");
      }
    } else if (key == "rpc-delay") {
      if (fields.size() != 2) bad("rpc-delay wants PROB:SECONDS");
      plan.rpc_delay_prob = to_double(fields[0], key);
      plan.rpc_delay_seconds = to_double(fields[1], key);
      if (plan.rpc_delay_prob < 0 || plan.rpc_delay_prob > 1) {
        bad("rpc-delay probability out of range");
      }
      if (plan.rpc_delay_seconds < 0) bad("rpc-delay seconds must be >= 0");
    } else if (key == "rpc-corrupt") {
      plan.rpc_corrupt_prob = to_double(value, key);
      if (plan.rpc_corrupt_prob < 0 || plan.rpc_corrupt_prob > 1) {
        bad("rpc-corrupt must be a probability");
      }
    } else if (key == "bb-corrupt") {
      plan.bb_corrupt_prob = to_double(value, key);
      if (plan.bb_corrupt_prob < 0 || plan.bb_corrupt_prob > 1) {
        bad("bb-corrupt must be a probability");
      }
    } else if (key == "timeout") {
      plan.retry.timeout = to_double(value, key);
      if (plan.retry.timeout <= 0) bad("timeout must be > 0");
    } else if (key == "backoff") {
      if (fields.size() != 2) bad("backoff wants BASE:MAX");
      plan.retry.backoff_base = to_double(fields[0], key);
      plan.retry.backoff_max = to_double(fields[1], key);
      if (plan.retry.backoff_base < 0 ||
          plan.retry.backoff_max < plan.retry.backoff_base) {
        bad("backoff wants 0 <= BASE <= MAX");
      }
    } else if (key == "max-retries") {
      plan.retry.max_retries = to_int(value, key);
      if (plan.retry.max_retries < 0) bad("max-retries must be >= 0");
    } else if (key == "agg-stall-threshold") {
      plan.agg_stall_threshold = to_double(value, key);
      if (plan.agg_stall_threshold < 0) bad("agg-stall-threshold must be >= 0");
    } else {
      bad("unknown key: " + key);
    }
  }
  return plan;
}

std::string FaultPlan::describe() const {
  std::ostringstream os;
  // Shortest-exact double rendering so parse(describe()) round-trips the
  // plan bit-for-bit (the default 6 significant digits truncate).
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "seed=" << seed;
  for (const OstOutage& outage : outages) {
    os << ";ost-outage=" << outage.ost << ":" << outage.begin << ":"
       << outage.end;
  }
  for (const OstDegrade& degrade : degrades) {
    os << ";ost-degrade=" << degrade.ost << ":" << degrade.begin << ":"
       << degrade.end << ":" << degrade.factor;
  }
  for (const RankStall& stall : stalls) {
    os << ";rank-stall=" << stall.rank << ":" << stall.at << ":"
       << stall.duration;
  }
  for (const MediaCorrupt& event : media) {
    os << ";media-corrupt=" << event.ost << ":" << event.at;
  }
  if (rpc_drop_prob > 0) os << ";rpc-drop=" << rpc_drop_prob;
  if (rpc_delay_prob > 0) {
    os << ";rpc-delay=" << rpc_delay_prob << ":" << rpc_delay_seconds;
  }
  if (rpc_corrupt_prob > 0) os << ";rpc-corrupt=" << rpc_corrupt_prob;
  if (bb_corrupt_prob > 0) os << ";bb-corrupt=" << bb_corrupt_prob;
  os << ";timeout=" << retry.timeout << ";backoff=" << retry.backoff_base
     << ":" << retry.backoff_max << ";max-retries=" << retry.max_retries
     << ";agg-stall-threshold=" << agg_stall_threshold;
  return os.str();
}

FaultCounters& FaultCounters::operator+=(const FaultCounters& other) {
  retries += other.retries;
  failovers += other.failovers;
  drops += other.drops;
  delays += other.delays;
  reelections += other.reelections;
  stalls += other.stalls;
  corrupt_injected += other.corrupt_injected;
  corrupt_detected += other.corrupt_detected;
  corrupt_repaired += other.corrupt_repaired;
  scrub_repairs += other.scrub_repairs;
  faulted_seconds += other.faulted_seconds;
  return *this;
}

FaultCounters& FaultState::of(int client) {
  const auto index = static_cast<std::size_t>(client < 0 ? 0 : client);
  if (index >= by_client_.size()) {
    by_client_.resize(index + 1);
  }
  return by_client_[index];
}

FaultCounters FaultState::of(int client) const {
  const auto index = static_cast<std::size_t>(client < 0 ? 0 : client);
  if (index >= by_client_.size()) return {};
  return by_client_[index];
}

FaultCounters FaultState::total() const {
  FaultCounters sum;
  for (const FaultCounters& counters : by_client_) {
    sum += counters;
  }
  return sum;
}

}  // namespace parcoll::fault
