#include "obs/run_export.hpp"

#include <fstream>
#include <stdexcept>

#include "fault/fault.hpp"
#include "mpi/timecat.hpp"
#include "mpiio/stats.hpp"
#include "obs/metrics.hpp"

namespace parcoll::obs {

JsonValue time_breakdown_json(const mpi::TimeBreakdown& time) {
  JsonValue doc = JsonValue::object();
  for (std::size_t c = 0; c < mpi::kNumTimeCats; ++c) {
    doc.set(std::string(mpi::to_string(static_cast<mpi::TimeCat>(c))) + "_s",
            time.seconds[c]);
  }
  doc.set("total_s", time.total());
  return doc;
}

JsonValue file_stats_json(const mpiio::FileStats& stats) {
  JsonValue doc = JsonValue::object();
  doc.set("time", time_breakdown_json(stats.time));
  doc.set("bytes_written", stats.bytes_written);
  doc.set("bytes_read", stats.bytes_read);
  doc.set("collective_writes", stats.collective_writes);
  doc.set("collective_reads", stats.collective_reads);
  doc.set("independent_writes", stats.independent_writes);
  doc.set("independent_reads", stats.independent_reads);
  doc.set("exchange_cycles", stats.exchange_cycles);
  doc.set("rmw_reads", stats.rmw_reads);
  doc.set("parcoll_calls", stats.parcoll_calls);
  doc.set("intranode_calls", stats.intranode_calls);
  doc.set("intranode_bytes", stats.intranode_bytes);
  doc.set("view_switches", stats.view_switches);
  doc.set("last_num_groups", stats.last_num_groups);
  doc.set("fault_retries", stats.fault_retries);
  doc.set("fault_failovers", stats.fault_failovers);
  doc.set("fault_drops", stats.fault_drops);
  doc.set("fault_reelections", stats.fault_reelections);
  doc.set("fault_stalls", stats.fault_stalls);
  doc.set("bb_staged_segments", stats.bb_staged_segments);
  doc.set("bb_staged_bytes", stats.bb_staged_bytes);
  doc.set("bb_drained_bytes", stats.bb_drained_bytes);
  doc.set("bb_spills", stats.bb_spills);
  doc.set("bb_spill_bytes", stats.bb_spill_bytes);
  doc.set("bb_conflict_flushes", stats.bb_conflict_flushes);
  doc.set("bb_drain_retries", stats.bb_drain_retries);
  doc.set("bb_drain_failovers", stats.bb_drain_failovers);
  doc.set("integrity_blocks", stats.integrity_blocks);
  doc.set("integrity_bytes", stats.integrity_bytes);
  doc.set("corrupt_detected", stats.corrupt_detected);
  doc.set("corrupt_repaired", stats.corrupt_repaired);
  doc.set("scrub_repairs", stats.scrub_repairs);
  doc.set("integrity_errors", stats.integrity_errors);
  return doc;
}

JsonValue fault_counters_json(const fault::FaultCounters& faults) {
  JsonValue doc = JsonValue::object();
  doc.set("retries", faults.retries);
  doc.set("failovers", faults.failovers);
  doc.set("drops", faults.drops);
  doc.set("delays", faults.delays);
  doc.set("reelections", faults.reelections);
  doc.set("stalls", faults.stalls);
  doc.set("corrupt_injected", faults.corrupt_injected);
  doc.set("corrupt_detected", faults.corrupt_detected);
  doc.set("corrupt_repaired", faults.corrupt_repaired);
  doc.set("scrub_repairs", faults.scrub_repairs);
  doc.set("faulted_seconds", faults.faulted_seconds);
  return doc;
}

JsonValue metrics_json(const MetricsRegistry& metrics) {
  JsonValue doc = JsonValue::object();

  JsonValue counters = JsonValue::object();
  for (const auto& [name, value] : metrics.counters()) {
    counters.set(name, value);
  }
  doc.set("counters", std::move(counters));

  JsonValue gauges = JsonValue::object();
  for (const auto& [name, value] : metrics.gauges()) {
    gauges.set(name, value);
  }
  doc.set("gauges", std::move(gauges));

  JsonValue quantiles = JsonValue::object();
  for (const auto& [name, q] : metrics.quantiles()) {
    quantiles.set(name, q.summary_json());
  }
  doc.set("quantiles", std::move(quantiles));
  return doc;
}

JsonValue run_document(const std::string& tool, JsonValue config) {
  JsonValue doc = JsonValue::object();
  doc.set("schema", kRunSchema);
  doc.set("version", kRunSchemaVersion);
  doc.set("tool", tool);
  doc.set("config", std::move(config));
  return doc;
}

void write_json_file(const std::string& path, const JsonValue& doc) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("cannot open for writing: " + path);
  }
  os << doc.dump(1) << '\n';
}

}  // namespace parcoll::obs
