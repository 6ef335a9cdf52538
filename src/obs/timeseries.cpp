#include "obs/timeseries.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace parcoll::obs {

inline constexpr std::string_view kTimelineSchema = "parcoll-timeline";
inline constexpr int kTimelineVersion = 1;

TimeSeriesSampler::TimeSeriesSampler(double interval, std::size_t max_samples)
    : interval_(interval), max_samples_(std::max<std::size_t>(max_samples, 8)) {
  if (!std::isfinite(interval) || interval <= 0.0) {
    throw std::invalid_argument(
        "TimeSeriesSampler: interval must be finite and > 0");
  }
}

TimeSeriesSampler::ProbeId TimeSeriesSampler::add_probe(
    std::string name, std::function<double()> probe, bool rate) {
  ProbeEntry entry;
  entry.name = std::move(name);
  entry.probe = std::move(probe);
  entry.rate = rate;
  // Late registration (an object created mid-run): zero backfill so the
  // series stays aligned with the shared time axis.
  entry.values.assign(times_.size(), 0.0);
  probes_.push_back(std::move(entry));
  return probes_.size() - 1;
}

void TimeSeriesSampler::remove_probe(ProbeId id) {
  if (id < probes_.size()) {
    probes_[id].probe = nullptr;
  }
}

void TimeSeriesSampler::sample(double now) {
  const bool record = ticks_ % stride_ == 0;
  ++ticks_;
  if (!record) {
    return;
  }
  times_.push_back(now);
  for (ProbeEntry& entry : probes_) {
    double value = 0.0;
    if (entry.probe) {
      value = entry.probe();
    } else if (!entry.values.empty()) {
      value = entry.values.back();  // detached probe holds its last level
    }
    entry.values.push_back(value);
  }
  if (times_.size() > max_samples_) {
    // Decimate: keep even-indexed samples. Retained ticks stay multiples
    // of the doubled stride, so future recording aligns with the survivors.
    const auto keep_even = [](std::vector<double>& v) {
      std::size_t out = 0;
      for (std::size_t i = 0; i < v.size(); i += 2) {
        v[out++] = v[i];
      }
      v.resize(out);
    };
    keep_even(times_);
    for (ProbeEntry& entry : probes_) {
      keep_even(entry.values);
    }
    stride_ *= 2;
  }
}

std::shared_ptr<TimeSeries> TimeSeriesSampler::snapshot() const {
  auto out = std::make_shared<TimeSeries>();
  out->interval_s = interval_;
  out->stride = stride_;
  out->times_s = times_;
  out->series.reserve(probes_.size());
  for (const ProbeEntry& entry : probes_) {
    TimeSeries::Series series;
    series.name = entry.name;
    series.rate = entry.rate;
    series.values = entry.values;
    out->series.push_back(std::move(series));
  }
  return out;
}

const TimeSeries::Series* TimeSeries::find(const std::string& name) const {
  for (const Series& s : series) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

JsonValue TimeSeries::to_json() const {
  JsonValue doc = JsonValue::object();
  doc.set("schema", kTimelineSchema);
  doc.set("version", kTimelineVersion);
  doc.set("interval_s", interval_s);
  doc.set("stride", stride);
  JsonValue times = JsonValue::array();
  for (double t : times_s) times.push(t);
  doc.set("times_s", std::move(times));
  JsonValue out_series = JsonValue::array();
  for (const Series& s : series) {
    JsonValue entry = JsonValue::object();
    entry.set("name", s.name);
    entry.set("kind", s.rate ? "rate" : "sample");
    JsonValue values = JsonValue::array();
    if (s.rate) {
      // Cumulative counter -> per-second rate over each recorded step.
      values.push(0.0);
      for (std::size_t i = 1; i < s.values.size(); ++i) {
        const double dt = times_s[i] - times_s[i - 1];
        values.push(dt > 0.0 ? (s.values[i] - s.values[i - 1]) / dt : 0.0);
      }
    } else {
      for (double v : s.values) values.push(v);
    }
    entry.set("values", std::move(values));
    out_series.push(std::move(entry));
  }
  doc.set("series", std::move(out_series));
  return doc;
}

namespace {

struct Ranked {
  int index;
  double value;
};

/// Top-n indexed series members by value at sample `at`.
std::vector<Ranked> top_at(const TimeSeries& series, std::string_view prefix,
                           std::size_t at, int top_n) {
  std::vector<Ranked> ranked;
  for (const TimeSeries::Series& s : series.series) {
    const int index = MetricsRegistry::index_of(s.name, prefix);
    if (index < 0 || at >= s.values.size()) continue;
    ranked.push_back({index, s.values[at]});
  }
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    return a.value != b.value ? a.value > b.value : a.index < b.index;
  });
  if (static_cast<int>(ranked.size()) > top_n) {
    ranked.resize(static_cast<std::size_t>(top_n));
  }
  return ranked;
}

void append(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

}  // namespace

std::string top_report(const TimeSeries& series, int top_n) {
  std::string out;
  out += "parcoll top: one line per sample (interval ";
  append(out, "%g s, stride %llu)\n", series.interval_s,
         static_cast<unsigned long long>(series.stride));
  const TimeSeries::Series* events = series.find("engine.events");
  for (std::size_t i = 0; i < series.times_s.size(); ++i) {
    append(out, "t=%12.6fs", series.times_s[i]);
    if (events != nullptr && i < events->values.size()) {
      const double dt = i > 0 ? series.times_s[i] - series.times_s[i - 1] : 0;
      const double rate =
          i > 0 && dt > 0
              ? (events->values[i] - events->values[i - 1]) / dt
              : 0.0;
      append(out, "  ev/s=%11.3e", rate);
    }
    const auto osts = top_at(series, "fs.ost.queue_depth_s", i, top_n);
    if (!osts.empty()) {
      out += "  ost_q:";
      for (const Ranked& r : osts) {
        append(out, " %d=%.3fms", r.index, r.value * 1e3);
      }
    }
    // Busiest ranks by total accrued time over the last step, summed over
    // all per-category series of the rank.
    std::vector<double> rank_delta;
    for (const TimeSeries::Series& s : series.series) {
      const std::size_t dot = s.name.rfind("_s[");
      if (s.name.rfind("mpi.rank.", 0) != 0 || dot == std::string::npos) {
        continue;
      }
      const int rank =
          MetricsRegistry::index_of(s.name, s.name.substr(0, dot + 2));
      if (rank < 0 || i >= s.values.size()) continue;
      if (rank_delta.size() <= static_cast<std::size_t>(rank)) {
        rank_delta.resize(static_cast<std::size_t>(rank) + 1, 0.0);
      }
      const double prev = i > 0 ? s.values[i - 1] : 0.0;
      rank_delta[static_cast<std::size_t>(rank)] += s.values[i] - prev;
    }
    if (!rank_delta.empty()) {
      int busiest = 0;
      for (std::size_t r = 1; r < rank_delta.size(); ++r) {
        if (rank_delta[r] > rank_delta[static_cast<std::size_t>(busiest)]) {
          busiest = static_cast<int>(r);
        }
      }
      append(out, "  busiest_rank=%d (%.3fms)", busiest,
             rank_delta[static_cast<std::size_t>(busiest)] * 1e3);
    }
    const auto bb = top_at(series, "bb.node.used_bytes", i, top_n);
    double bb_total = 0.0;
    for (const TimeSeries::Series& s : series.series) {
      if (MetricsRegistry::index_of(s.name, "bb.node.used_bytes") >= 0 &&
          i < s.values.size()) {
        bb_total += s.values[i];
      }
    }
    if (!bb.empty()) {
      append(out, "  bb=%.1fMiB", bb_total / (1024.0 * 1024.0));
    }
    out += '\n';
  }
  return out;
}

}  // namespace parcoll::obs
