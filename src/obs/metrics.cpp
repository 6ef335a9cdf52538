#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>

namespace parcoll::obs {

namespace {
/// The instrument named `name`, value-initialized on first use. Finding
/// an existing one builds no key.
template <typename V>
V& slot(MetricsRegistry::Series<V>& series, std::string_view name) {
  auto it = series.find(name);
  if (it == series.end()) it = series.emplace(name, V{}).first;
  return it->second;
}
}  // namespace

std::uint64_t& MetricsRegistry::counter(std::string_view name) {
  return slot(counters_, name);
}

std::uint64_t& MetricsRegistry::counter(std::string_view name,
                                        std::size_t index) {
  return counter(indexed(name, index));
}

double& MetricsRegistry::gauge(std::string_view name) {
  return slot(gauges_, name);
}

double& MetricsRegistry::gauge(std::string_view name, std::size_t index) {
  return gauge(indexed(name, index));
}

void MetricsRegistry::gauge_max(std::string_view name, double value) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) it = gauges_.emplace(name, value).first;
  it->second = std::max(it->second, value);
}

void MetricsRegistry::gauge_max(std::string_view name, std::size_t index,
                                double value) {
  gauge_max(indexed(name, index), value);
}

QuantileHistogram& MetricsRegistry::quantile(std::string_view name) {
  return slot(quantiles_, name);
}

std::string MetricsRegistry::indexed(std::string_view name,
                                     std::size_t index) {
  char suffix[16];
  std::snprintf(suffix, sizeof(suffix), "[%04zu]", index);
  return std::string(name) + suffix;
}

int MetricsRegistry::index_of(std::string_view key, std::string_view name) {
  if (key.size() < name.size() + 3 || !key.starts_with(name) ||
      key[name.size()] != '[' || key.back() != ']') {
    return -1;
  }
  int index = 0;
  for (std::size_t i = name.size() + 1; i + 1 < key.size(); ++i) {
    if (key[i] < '0' || key[i] > '9') return -1;
    index = index * 10 + (key[i] - '0');
  }
  return index;
}

std::string MetricsRegistry::job_key(std::string_view name,
                                     std::string_view job) {
  std::string key(name);
  key += "{job=";
  key += job;
  key += '}';
  return key;
}

}  // namespace parcoll::obs
