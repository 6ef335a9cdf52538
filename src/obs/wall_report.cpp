#include "obs/wall_report.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <tuple>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace parcoll::obs {

namespace {

using CycleKey = std::tuple<std::int64_t, std::int64_t, std::int64_t,
                            std::string>;  // call, group, cycle, stage

struct CycleAccum {
  double sync = 0;
  std::map<int, double> per_rank;
  double window_begin = 0;  // earliest sync leaf in this key
  double window_end = 0;    // latest sync leaf in this key
  bool windowed = false;
};

using Interval = std::pair<double, double>;

/// Merge intervals in place into a disjoint, sorted union.
void merge_intervals(std::vector<Interval>& intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::size_t out = 0;
  for (const Interval& next : intervals) {
    if (out > 0 && next.first <= intervals[out - 1].second) {
      intervals[out - 1].second =
          std::max(intervals[out - 1].second, next.second);
    } else {
      intervals[out++] = next;
    }
  }
  intervals.resize(out);
}

/// Seconds of [begin, end) covered by the disjoint sorted union.
double overlap_with(const std::vector<Interval>& merged, double begin,
                    double end) {
  double covered = 0;
  for (const Interval& iv : merged) {
    if (iv.first >= end) break;
    if (iv.second <= begin) continue;
    covered += std::min(end, iv.second) - std::max(begin, iv.first);
  }
  return covered;
}

std::string format_seconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", s);
  return buf;
}

/// Fold the fs-layer metrics into the report: per-OST load rows and the
/// tail-latency summaries of every (non-job-sliced) quantile instrument.
void fold_metrics(WallReport& report, const MetricsRegistry& metrics) {
  std::map<int, OstWall> osts;
  const auto fold = [&osts](const auto& series, std::string_view name,
                            auto OstWall::*field) {
    for (const auto& [key, value] : series) {
      if (const int ost = MetricsRegistry::index_of(key, name); ost >= 0) {
        osts[ost].*field = value;
      }
    }
  };
  fold(metrics.gauges(), "fs.ost.service_s", &OstWall::service_s);
  fold(metrics.gauges(), "fs.ost.queue_depth_s", &OstWall::peak_queue_s);
  fold(metrics.counters(), "fs.ost.rpcs", &OstWall::rpcs);
  fold(metrics.counters(), "fs.ost.bytes", &OstWall::bytes);
  for (auto& [ost, wall] : osts) {
    wall.ost = ost;
    report.osts.push_back(wall);
  }
  std::sort(report.osts.begin(), report.osts.end(),
            [](const OstWall& a, const OstWall& b) {
              if (a.service_s != b.service_s) return a.service_s > b.service_s;
              return a.ost < b.ost;
            });

  for (const auto& [key, hist] : metrics.quantiles()) {
    if (hist.count() == 0 || key.find("{job=") != std::string::npos) {
      continue;  // per-job slices stay in the metrics dump, not here
    }
    LatencySummary summary;
    summary.name = key;
    summary.count = hist.count();
    summary.p50 = hist.quantile(0.50);
    summary.p95 = hist.quantile(0.95);
    summary.p99 = hist.quantile(0.99);
    summary.p999 = hist.quantile(0.999);
    summary.max = hist.max();
    report.latencies.push_back(std::move(summary));
  }
}

}  // namespace

WallReport build_wall_report(const SpanStore& store) {
  return build_wall_report(store, nullptr);
}

WallReport build_wall_report(const SpanStore& store,
                             const MetricsRegistry* metrics) {
  WallReport report;
  std::map<CycleKey, CycleAccum> accums;
  std::map<std::int64_t, double> group_sync;
  std::map<std::string, double> stage_sync;
  std::map<std::size_t, double> cat_time;
  int nranks = 0;
  std::vector<Interval> drain_spans;
  std::vector<Interval> drain_waits;

  for (const Span& span : store.spans()) {
    report.total_seconds = std::max(report.total_seconds, span.end);
    nranks = std::max(nranks, span.rank + 1);
    if (span.kind == SpanKind::Drain) {
      report.drain_seconds += span.end - span.begin;
      drain_spans.emplace_back(span.begin, span.end);
      continue;
    }
    if (span.kind != SpanKind::Phase) {
      continue;
    }
    const double dt = span.end - span.begin;
    cat_time[static_cast<std::size_t>(span.cat)] += dt;
    if (span.cat == mpi::TimeCat::DrainWait) {
      report.drain_exposed_wait += dt;
      drain_waits.emplace_back(span.begin, span.end);
    }
    if (span.cat != mpi::TimeCat::Sync) {
      continue;
    }
    report.total_sync += dt;
    if (span.call < 0) {
      continue;  // sync outside any collective call: not attributable
    }
    report.attributed_sync += dt;
    const std::string stage =
        span.parent != kNoSpan ? store.at(span.parent).name : "";
    CycleAccum& accum =
        accums[CycleKey{span.call, span.group, span.cycle, stage}];
    accum.sync += dt;
    accum.per_rank[span.rank] += dt;
    if (!accum.windowed || span.begin < accum.window_begin) {
      accum.window_begin = span.begin;
    }
    if (!accum.windowed || span.end > accum.window_end) {
      accum.window_end = span.end;
    }
    accum.windowed = true;
    group_sync[span.group] += dt;
    stage_sync[stage] += dt;
  }

  // Split drain work into hidden (no rank blocked on bb meanwhile) and the
  // remainder some rank's DrainWait overlapped.
  merge_intervals(drain_waits);
  report.drain_hidden = report.drain_seconds;
  for (const Interval& span : drain_spans) {
    report.drain_hidden -= overlap_with(drain_waits, span.first, span.second);
  }

  report.ranks.resize(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    report.ranks[static_cast<std::size_t>(r)].rank = r;
  }
  for (const Span& span : store.spans()) {
    if (span.kind == SpanKind::Phase && span.cat == mpi::TimeCat::Sync) {
      report.ranks[static_cast<std::size_t>(span.rank)].suffered +=
          span.end - span.begin;
    }
  }

  std::sort(drain_spans.begin(), drain_spans.end());
  for (const auto& [key, accum] : accums) {
    WallCycle cycle;
    cycle.call = std::get<0>(key);
    cycle.group = std::get<1>(key);
    cycle.cycle = std::get<2>(key);
    cycle.stage = std::get<3>(key);
    cycle.sync_seconds = accum.sync;
    cycle.nranks = static_cast<int>(accum.per_rank.size());
    if (accum.windowed) {
      // Drain *work* seconds inside this cycle's sync window (concurrent
      // node drains both count: two drains hide twice the fs time).
      for (const Interval& span : drain_spans) {
        if (span.first >= accum.window_end) break;
        if (span.second <= accum.window_begin) continue;
        cycle.hidden_by_bb += std::min(accum.window_end, span.second) -
                              std::max(accum.window_begin, span.first);
      }
    }
    // The straggler arrived last, so it waited least; everyone else's wait
    // in this key is time spent waiting *for it*.
    double min_wait = 0;
    double max_wait = 0;
    bool first = true;
    for (const auto& [rank, wait] : accum.per_rank) {
      if (first || wait < min_wait) {
        min_wait = wait;
        cycle.straggler = rank;
      }
      if (first || wait > max_wait) {
        max_wait = wait;
      }
      first = false;
    }
    cycle.straggler_lag = max_wait - min_wait;
    if (cycle.straggler >= 0) {
      RankWall& rw = report.ranks[static_cast<std::size_t>(cycle.straggler)];
      rw.caused += cycle.sync_seconds;
      ++rw.cycles_caused;
    }
    report.cycles.push_back(std::move(cycle));
  }
  std::sort(report.cycles.begin(), report.cycles.end(),
            [](const WallCycle& a, const WallCycle& b) {
              return a.sync_seconds > b.sync_seconds;
            });

  for (const auto& [group, seconds] : group_sync) {
    report.group_shares.push_back(WallShare{
        group >= 0 ? "group " + std::to_string(group) : "(no subgroup)",
        seconds});
  }
  for (const auto& [stage, seconds] : stage_sync) {
    report.stage_shares.push_back(
        WallShare{stage.empty() ? "(no stage)" : stage, seconds});
  }
  for (const auto& [cat, seconds] : cat_time) {
    report.category_shares.push_back(
        WallShare{mpi::to_string(static_cast<mpi::TimeCat>(cat)), seconds});
  }
  auto by_seconds = [](const WallShare& a, const WallShare& b) {
    return a.seconds > b.seconds;
  };
  std::sort(report.group_shares.begin(), report.group_shares.end(), by_seconds);
  std::sort(report.stage_shares.begin(), report.stage_shares.end(), by_seconds);
  std::sort(report.category_shares.begin(), report.category_shares.end(),
            by_seconds);
  if (metrics != nullptr) {
    fold_metrics(report, *metrics);
  }
  return report;
}

std::string format_wall_report(const WallReport& report, int top) {
  std::ostringstream os;
  os << "== collective wall report ==\n";
  os << "traced wall time     " << format_seconds(report.total_seconds)
     << " s\n";
  os << "total sync time      " << format_seconds(report.total_sync) << " s";
  if (report.total_seconds > 0) {
    char pct[16];
    std::snprintf(pct, sizeof(pct), " (%.1f%%",
                  100.0 * report.total_sync /
                      (report.total_seconds *
                       std::max<std::size_t>(report.ranks.size(), 1)));
    os << pct << " of rank-seconds)";
  }
  os << "\n";
  char cov[64];
  std::snprintf(cov, sizeof(cov), "attributed to (cycle, rank) pairs: %.2f%%",
                100.0 * report.coverage());
  os << cov << "\n";
  if (report.drain_seconds > 0 || report.drain_exposed_wait > 0) {
    os << "bb drain work        " << format_seconds(report.drain_seconds)
       << " s (hidden " << format_seconds(report.drain_hidden)
       << " s, exposed wait " << format_seconds(report.drain_exposed_wait)
       << " s)\n";
  }

  os << "\n-- wall share per category --\n";
  for (const WallShare& share : report.category_shares) {
    os << "  " << share.key;
    for (std::size_t pad = share.key.size(); pad < 11; ++pad) os << ' ';
    os << format_seconds(share.seconds) << " s\n";
  }

  if (!report.group_shares.empty()) {
    os << "\n-- sync share per subgroup --\n";
    for (const WallShare& share : report.group_shares) {
      os << "  " << share.key;
      for (std::size_t pad = share.key.size(); pad < 14; ++pad) os << ' ';
      os << format_seconds(share.seconds) << " s\n";
    }
  }

  if (!report.stage_shares.empty()) {
    os << "\n-- sync share per stage --\n";
    for (const WallShare& share : report.stage_shares) {
      os << "  " << share.key;
      for (std::size_t pad = share.key.size(); pad < 14; ++pad) os << ' ';
      os << format_seconds(share.seconds) << " s\n";
    }
  }

  os << "\n-- top straggler ranks (sync caused while others waited) --\n";
  std::vector<RankWall> by_caused = report.ranks;
  std::sort(by_caused.begin(), by_caused.end(),
            [](const RankWall& a, const RankWall& b) {
              return a.caused > b.caused;
            });
  int shown = 0;
  for (const RankWall& rw : by_caused) {
    if (shown >= top || rw.caused <= 0) break;
    os << "  rank " << rw.rank << ": caused " << format_seconds(rw.caused)
       << " s across " << rw.cycles_caused << " cycles (suffered "
       << format_seconds(rw.suffered) << " s)\n";
    ++shown;
  }
  if (shown == 0) {
    os << "  (no attributable sync time)\n";
  }

  os << "\n-- worst cycles --\n";
  shown = 0;
  for (const WallCycle& cycle : report.cycles) {
    if (shown >= top) break;
    os << "  call " << cycle.call;
    if (cycle.group >= 0) os << " group " << cycle.group;
    if (cycle.cycle >= 0) os << " cycle " << cycle.cycle;
    os << " [" << cycle.stage << "]: " << format_seconds(cycle.sync_seconds)
       << " s sync over " << cycle.nranks << " ranks, straggler rank "
       << cycle.straggler << " (lag " << format_seconds(cycle.straggler_lag)
       << " s)";
    if (report.drain_seconds > 0) {
      os << " [hidden by bb " << format_seconds(cycle.hidden_by_bb) << " s]";
    }
    os << "\n";
    ++shown;
  }
  if (shown == 0) {
    os << "  (none)\n";
  }

  if (!report.osts.empty()) {
    os << "\n-- busiest OSTs (by service time) --\n";
    shown = 0;
    for (const OstWall& ost : report.osts) {
      if (shown >= top) break;
      char line[160];
      std::snprintf(line, sizeof(line),
                    "  ost %4d: service %s s, peak queue %s s, %llu rpcs, "
                    "%llu bytes\n",
                    ost.ost, format_seconds(ost.service_s).c_str(),
                    format_seconds(ost.peak_queue_s).c_str(),
                    static_cast<unsigned long long>(ost.rpcs),
                    static_cast<unsigned long long>(ost.bytes));
      os << line;
      ++shown;
    }
  }

  if (!report.latencies.empty()) {
    os << "\n-- latency quantiles --\n";
    for (const LatencySummary& lat : report.latencies) {
      os << "  " << lat.name;
      for (std::size_t pad = lat.name.size(); pad < 24; ++pad) os << ' ';
      char line[200];
      std::snprintf(line, sizeof(line),
                    "n=%llu p50=%s p95=%s p99=%s p99.9=%s max=%s\n",
                    static_cast<unsigned long long>(lat.count),
                    format_seconds(lat.p50).c_str(),
                    format_seconds(lat.p95).c_str(),
                    format_seconds(lat.p99).c_str(),
                    format_seconds(lat.p999).c_str(),
                    format_seconds(lat.max).c_str());
      os << line;
    }
  }
  return os.str();
}

JsonValue wall_report_json(const WallReport& report, int top) {
  JsonValue doc = JsonValue::object();
  doc.set("total_seconds", report.total_seconds);
  doc.set("total_sync_s", report.total_sync);
  doc.set("attributed_sync_s", report.attributed_sync);
  doc.set("coverage", report.coverage());
  doc.set("drain_s", report.drain_seconds);
  doc.set("drain_hidden_s", report.drain_hidden);
  doc.set("drain_exposed_wait_s", report.drain_exposed_wait);

  auto shares_json = [](const std::vector<WallShare>& shares) {
    JsonValue arr = JsonValue::array();
    for (const WallShare& share : shares) {
      JsonValue entry = JsonValue::object();
      entry.set("key", share.key).set("seconds", share.seconds);
      arr.push(std::move(entry));
    }
    return arr;
  };
  doc.set("category_shares", shares_json(report.category_shares));
  doc.set("group_shares", shares_json(report.group_shares));
  doc.set("stage_shares", shares_json(report.stage_shares));

  std::vector<RankWall> by_caused = report.ranks;
  std::sort(by_caused.begin(), by_caused.end(),
            [](const RankWall& a, const RankWall& b) {
              return a.caused > b.caused;
            });
  JsonValue stragglers = JsonValue::array();
  int shown = 0;
  for (const RankWall& rw : by_caused) {
    if (shown >= top || rw.caused <= 0) break;
    JsonValue entry = JsonValue::object();
    entry.set("rank", rw.rank)
        .set("caused_s", rw.caused)
        .set("suffered_s", rw.suffered)
        .set("cycles_caused", rw.cycles_caused);
    stragglers.push(std::move(entry));
    ++shown;
  }
  doc.set("top_stragglers", std::move(stragglers));

  JsonValue cycles = JsonValue::array();
  shown = 0;
  for (const WallCycle& cycle : report.cycles) {
    if (shown >= top) break;
    JsonValue entry = JsonValue::object();
    entry.set("call", cycle.call)
        .set("group", cycle.group)
        .set("cycle", cycle.cycle)
        .set("stage", cycle.stage)
        .set("sync_s", cycle.sync_seconds)
        .set("straggler", cycle.straggler)
        .set("straggler_lag_s", cycle.straggler_lag)
        .set("nranks", cycle.nranks)
        .set("hidden_by_bb_s", cycle.hidden_by_bb);
    cycles.push(std::move(entry));
    ++shown;
  }
  doc.set("worst_cycles", std::move(cycles));

  JsonValue osts = JsonValue::array();
  shown = 0;
  for (const OstWall& ost : report.osts) {
    if (shown >= top) break;
    JsonValue entry = JsonValue::object();
    entry.set("ost", ost.ost)
        .set("service_s", ost.service_s)
        .set("peak_queue_s", ost.peak_queue_s)
        .set("rpcs", ost.rpcs)
        .set("bytes", ost.bytes);
    osts.push(std::move(entry));
    ++shown;
  }
  doc.set("osts", std::move(osts));

  JsonValue latencies = JsonValue::array();
  for (const LatencySummary& lat : report.latencies) {
    JsonValue entry = JsonValue::object();
    entry.set("name", lat.name)
        .set("count", lat.count)
        .set("p50_s", lat.p50)
        .set("p95_s", lat.p95)
        .set("p99_s", lat.p99)
        .set("p999_s", lat.p999)
        .set("max_s", lat.max);
    latencies.push(std::move(entry));
  }
  doc.set("latencies", std::move(latencies));
  return doc;
}

}  // namespace parcoll::obs
