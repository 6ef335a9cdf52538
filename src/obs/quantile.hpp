// Log-bucketed quantile histogram (HDR-histogram style).
//
// A fixed-bucket histogram answers "how many observations fell under
// 1 ms" but cannot answer "what is the p99.9" with useful precision:
// decade buckets are a factor of 10 wide. QuantileHistogram keeps geometrically spaced buckets a factor of
// kGamma = 1.02 apart, so any reported quantile is within ~1% relative
// error of the true order statistic, at a fixed memory cost (~1.6k
// buckets spanning 1 ns .. ~22 h). The latency instrumentation on the
// RPC, OST-service, collective-cycle, and drain-wait paths records into
// these; the run export, wall report, and timeline carry the
// p50/p95/p99/p99.9 summaries.
//
// Recording is pure arithmetic on host memory: it never reads or advances
// the simulated clock, so instrumented runs stay bit-identical.
#pragma once

#include <cstdint>
#include <vector>

namespace parcoll::obs {

class JsonValue;

class QuantileHistogram {
 public:
  /// Bucket width factor: bucket i spans [kMin * γ^i, kMin * γ^(i+1)),
  /// giving a worst-case relative error of (γ-1)/2 ≈ 1% at the midpoint.
  static constexpr double kGamma = 1.02;
  /// Smallest resolvable value (seconds): anything in (0, kMin] lands in
  /// bucket 0. Values <= 0 are counted separately.
  static constexpr double kMin = 1e-9;
  /// log(kMax/kMin)/log(γ) buckets cover kMin .. ~8e4 s (a full day of
  /// virtual time); larger values clamp into the last bucket.
  static constexpr std::size_t kBuckets = 1552;

  void observe(double value);
  void merge(const QuantileHistogram& other);

  /// The value at quantile `q` in [0, 1]: an upper-ish estimate within
  /// ~1% relative error, clamped to the observed [min, max]. Returns 0
  /// for an empty histogram.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }

  /// {"count":…, "sum_s":…, "min_s":…, "max_s":…, "p50_s":…, "p95_s":…,
  ///  "p99_s":…, "p999_s":…} — the summary the exporters embed.
  [[nodiscard]] JsonValue summary_json() const;

 private:
  [[nodiscard]] static std::size_t bucket_of(double value);
  /// Representative value of bucket i (geometric midpoint).
  [[nodiscard]] static double bucket_value(std::size_t i);

  /// Sparse until first use past the zero bucket; sized kBuckets + 1 with
  /// the extra slot counting non-positive observations.
  std::vector<std::uint32_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace parcoll::obs
