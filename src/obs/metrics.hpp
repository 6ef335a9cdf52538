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
// making every export deterministic. A lookup by name builds no key, so
// recording into an existing instrument allocates nothing (an indexed
// one formats its key).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "obs/quantile.hpp"

namespace parcoll::obs {

class MetricsRegistry {
 public:
  /// Instruments of one kind by name, in name order.
  template <typename V>
  using Series = std::map<std::string, V, std::less<>>;

  /// Monotonic counter; creates it at zero on first use.
  std::uint64_t& counter(std::string_view name);
  /// Indexed counter series, e.g. counter("fs.ost.bytes", ost_index).
  std::uint64_t& counter(std::string_view name, std::size_t index);

  /// Last-value gauge.
  double& gauge(std::string_view name);
  /// Indexed gauge series, e.g. gauge("fs.ost.service_s", ost_index).
  double& gauge(std::string_view name, std::size_t index);
  /// Running-maximum gauge (e.g. peak bytes).
  void gauge_max(std::string_view name, double value);
  void gauge_max(std::string_view name, std::size_t index, double value);

  /// Log-bucketed quantile histogram (~1% relative error); created empty
  /// on first use. The standard latency instruments (RPC, OST service,
  /// collective cycles, drain waits) record here.
  QuantileHistogram& quantile(std::string_view name);

  [[nodiscard]] const Series<std::uint64_t>& counters() const {
    return counters_;
  }
  [[nodiscard]] const Series<double>& gauges() const { return gauges_; }
  [[nodiscard]] const Series<QuantileHistogram>& quantiles() const {
    return quantiles_;
  }

  /// "name[0003]": zero-padded so lexicographic order == numeric order.
  [[nodiscard]] static std::string indexed(std::string_view name,
                                           std::size_t index);
  /// The inverse: 3 for ("name[0003]", "name"); -1 when `key` is not an
  /// indexed member of `name`'s series.
  [[nodiscard]] static int index_of(std::string_view key,
                                    std::string_view name);

  /// "name{job=astro}": the per-tenant slice of an instrument. Every
  /// job-attributed series/counter/histogram uses this suffix so exports
  /// group naturally and downstream tooling can split on "{job=".
  [[nodiscard]] static std::string job_key(std::string_view name,
                                           std::string_view job);

 private:
  Series<std::uint64_t> counters_;
  Series<double> gauges_;
  Series<QuantileHistogram> quantiles_;
};

}  // namespace parcoll::obs
