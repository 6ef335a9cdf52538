// Machine-readable run export: the versioned "parcoll-run" JSON schema.
//
// One document per run: tool + config, the measured result (elapsed,
// bytes, bandwidth), the per-category time breakdown, the file's
// close-time statistics, fault counters, the metrics registry dump, and —
// when tracing was on — the collective-wall report. The schema tag and
// version let downstream tooling (tools/bench_to_trajectory, CI trend
// jobs) validate documents before folding them into BENCH_*.json.
//
// Each count is exported from its one owner: per-file counts from
// FileStats (file_stats_json), world fault counts from FaultCounters
// (fault_counters_json), and only the registry's own instruments
// (quantiles, per-OST/per-subgroup series, job slices) from metrics_json.
#pragma once

#include <cstdint>
#include <string>

#include "obs/json.hpp"

namespace parcoll::mpi {
struct TimeBreakdown;
}
namespace parcoll::mpiio {
struct FileStats;
}
namespace parcoll::fault {
struct FaultCounters;
}

namespace parcoll::obs {

class MetricsRegistry;

inline constexpr const char* kRunSchema = "parcoll-run";
inline constexpr int kRunSchemaVersion = 1;

[[nodiscard]] JsonValue time_breakdown_json(const mpi::TimeBreakdown& time);
[[nodiscard]] JsonValue file_stats_json(const mpiio::FileStats& stats);
[[nodiscard]] JsonValue fault_counters_json(const fault::FaultCounters& faults);
[[nodiscard]] JsonValue metrics_json(const MetricsRegistry& metrics);

/// Envelope: {"schema": "parcoll-run", "version": 1, "tool": tool,
/// "config": config, ...} — callers then set "result", "metrics",
/// "wall_report", ... on the returned object.
[[nodiscard]] JsonValue run_document(const std::string& tool,
                                     JsonValue config);

/// Write `doc` to `path` (pretty-printed, trailing newline). Throws
/// std::runtime_error when the file cannot be opened.
void write_json_file(const std::string& path, const JsonValue& doc);

}  // namespace parcoll::obs
