// Simulated-time telemetry: periodic sampling of model state into
// bounded-memory ring series.
//
// A TimeSeriesSampler holds named probes (plain `double()` callbacks
// registered by the World and the model layers) and is ticked from an
// engine timer every `interval` seconds of *virtual* time. Each tick
// appends one value per probe, so all series stay aligned with one shared
// time axis. Memory is bounded: past `max_samples` ticks the sampler
// decimates (keeps every other retained sample and doubles its stride), so
// a run of any length keeps whole-run coverage at halving resolution —
// deterministically, since decimation depends only on the tick count.
//
// Two probe kinds:
//  - Sample: the probe value is recorded as-is (a level: queue depth,
//    occupancy, cumulative seconds).
//  - Rate: the probe returns a cumulative counter; the exporter converts
//    adjacent samples into a per-second rate (events/s, utilization).
//
// Sampling never sleeps and never advances the clock. With the sampler off
// (the default) nothing is scheduled, so runs are bit-identical to
// pre-telemetry builds.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace parcoll::obs {

class JsonValue;

/// Plain-data snapshot of a sampler: the shared time axis plus one value
/// row per series. This is what RunResult carries and the timeline
/// exporter serializes; it has no callbacks and no engine references.
struct TimeSeries {
  struct Series {
    std::string name;
    bool rate = false;  // values are cumulative; export as deltas / dt
    std::vector<double> values;  // aligned with `times_s`
  };

  double interval_s = 0.0;   // configured base sampling interval
  std::uint64_t stride = 1;  // decimation stride, in base intervals
  std::vector<double> times_s;
  std::vector<Series> series;

  /// Versioned "parcoll-timeline" document. Rate series are exported as
  /// per-second rates over each recorded step (first element 0).
  [[nodiscard]] JsonValue to_json() const;

  /// The series named exactly `name`, or null.
  [[nodiscard]] const Series* find(const std::string& name) const;
};

class TimeSeriesSampler {
 public:
  using ProbeId = std::size_t;

  /// `interval` is the virtual-time spacing of ticks (finite, > 0);
  /// `max_samples` caps retained samples per series before decimation
  /// kicks in.
  explicit TimeSeriesSampler(double interval, std::size_t max_samples = 4096);

  /// Register a probe. Probes registered after sampling started get zero
  /// backfill for the ticks they missed. Registration order is the export
  /// order, so deterministic setup yields a deterministic timeline.
  ProbeId add_probe(std::string name, std::function<double()> probe,
                    bool rate = false);

  /// Detach the probe's callback (its recorded history is kept; later
  /// ticks repeat the last recorded value). Safe to call from model-object
  /// destructors during World teardown.
  void remove_probe(ProbeId id);

  /// Record one tick at virtual time `now`. Called from the engine timer;
  /// reads probes, never sleeps.
  void sample(double now);

  [[nodiscard]] double interval() const { return interval_; }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

  /// Deep-copy snapshot of everything recorded so far.
  [[nodiscard]] std::shared_ptr<TimeSeries> snapshot() const;

 private:
  struct ProbeEntry {
    std::string name;
    std::function<double()> probe;  // null once removed
    bool rate = false;
    std::vector<double> values;
  };

  double interval_;
  std::size_t max_samples_;
  std::uint64_t ticks_ = 0;    // ticks seen (recorded or skipped)
  std::uint64_t stride_ = 1;   // record every stride-th tick
  std::vector<double> times_;
  std::vector<ProbeEntry> probes_;
};

/// `parcoll_top`-style text report: one line per recorded sample listing
/// engine throughput, the `top_n` busiest OSTs by queue depth, the busiest
/// rank by time accrued over the step, and burst-buffer occupancy. Series
/// the run did not record are simply omitted from the line.
[[nodiscard]] std::string top_report(const TimeSeries& series, int top_n = 3);

}  // namespace parcoll::obs
