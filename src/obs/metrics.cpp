#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>

namespace parcoll::obs {

std::uint64_t& MetricsRegistry::counter(const std::string& name) {
  return counters_[name];
}

std::uint64_t& MetricsRegistry::counter(const std::string& name,
                                        std::size_t index) {
  return counters_[indexed(name, index)];
}

double& MetricsRegistry::gauge(const std::string& name) {
  return gauges_[name];
}

double& MetricsRegistry::gauge(const std::string& name, std::size_t index) {
  return gauges_[indexed(name, index)];
}

void MetricsRegistry::gauge_max(const std::string& name, double value) {
  auto [it, inserted] = gauges_.try_emplace(name, value);
  if (!inserted) {
    it->second = std::max(it->second, value);
  }
}

void MetricsRegistry::gauge_max(const std::string& name, std::size_t index,
                                double value) {
  gauge_max(indexed(name, index), value);
}

QuantileHistogram& MetricsRegistry::quantile(const std::string& name) {
  return quantiles_[name];
}

std::string MetricsRegistry::indexed(const std::string& name,
                                     std::size_t index) {
  char suffix[16];
  std::snprintf(suffix, sizeof(suffix), "[%04zu]", index);
  return name + suffix;
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

std::string MetricsRegistry::job_key(const std::string& name,
                                     std::string_view job) {
  std::string key = name;
  key += "{job=";
  key += job;
  key += '}';
  return key;
}

}  // namespace parcoll::obs
