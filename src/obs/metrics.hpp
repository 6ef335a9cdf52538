// Metrics registry: named counters, gauges, and quantile histograms.
//
// The registry is owned by the World and is null when observability is
// off; every instrumentation site guards with `if (auto* m = ...)` so the
// disabled path costs one pointer test and never perturbs simulated time.
// It holds only instruments nothing else records — latency quantiles,
// per-OST and per-subgroup series, per-job slices, scrub passes. Per-file
// counts live in mpiio::FileStats and per-client fault counts in
// fault::FaultCounters; the run document exports both.
// Instrument names use dotted paths ("parcoll.sync_wait_s"); per-index
// series (one counter per OST, per subgroup, ...) get a zero-padded
// "[0003]" suffix so exports sort naturally. Storage is an ordered map,
// making every export deterministic.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "obs/quantile.hpp"

namespace parcoll::obs {

class MetricsRegistry {
 public:
  /// Monotonic counter; creates it at zero on first use.
  std::uint64_t& counter(const std::string& name);
  /// Indexed counter series, e.g. counter("fs.ost.bytes", ost_index).
  std::uint64_t& counter(const std::string& name, std::size_t index);

  /// Last-value gauge.
  double& gauge(const std::string& name);
  /// Indexed gauge series, e.g. gauge("fs.ost.service_s", ost_index).
  double& gauge(const std::string& name, std::size_t index);
  /// Running-maximum gauge (e.g. peak queue depth).
  void gauge_max(const std::string& name, double value);
  void gauge_max(const std::string& name, std::size_t index, double value);

  /// Log-bucketed quantile histogram (~1% relative error); created empty
  /// on first use. The standard latency instruments (RPC, OST service,
  /// collective cycles, drain waits) record here.
  QuantileHistogram& quantile(const std::string& name);

  [[nodiscard]] const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, double>& gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, QuantileHistogram>& quantiles()
      const {
    return quantiles_;
  }

  /// "name[0003]": zero-padded so lexicographic order == numeric order.
  [[nodiscard]] static std::string indexed(const std::string& name,
                                           std::size_t index);
  /// The inverse: 3 for ("name[0003]", "name"); -1 when `key` is not an
  /// indexed member of `name`'s series.
  [[nodiscard]] static int index_of(std::string_view key,
                                    std::string_view name);

  /// "name{job=astro}": the per-tenant slice of an instrument. Every
  /// job-attributed series/counter/histogram uses this suffix so exports
  /// group naturally and downstream tooling can split on "{job=".
  [[nodiscard]] static std::string job_key(const std::string& name,
                                           std::string_view job);

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, QuantileHistogram> quantiles_;
};

}  // namespace parcoll::obs
