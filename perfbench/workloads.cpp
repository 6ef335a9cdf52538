#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <stdexcept>

#include "core/file_area.hpp"
#include "obs/run_export.hpp"
#include "obs/wall_report.hpp"

namespace perfbench {

namespace {

using namespace parcoll;
using Clock = std::chrono::steady_clock;

/// Virtual sampling interval of the telemetry workload's sampler.
constexpr double kSampleInterval = 1e-2;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Run the workload's run_* call for one direction with `spec`.
wl::RunResult run_call(const Workload& workload, const wl::RunSpec& spec,
                       bool write) {
  return workload.btio ? wl::run_btio(workload.bt, workload.nranks, spec, write)
                       : wl::run_ior(workload.ior, workload.nranks, spec, write);
}

/// The directions one simulation runs: IOR writes; BT-IO writes and then
/// reads the dump back.
std::vector<bool> directions(const Workload& workload) {
  return workload.btio ? std::vector<bool>{true, false}
                       : std::vector<bool>{true};
}

wl::RunSpec effective_spec(const Workload& workload) {
  wl::RunSpec spec = workload.spec;
  if (workload.telemetry) {
    spec.metrics = true;
    spec.trace = true;
    spec.sample_interval = kSampleInterval;
  }
  return spec;
}

/// Export a telemetry run through obs the way `parcoll_sim --json
/// --timeline` does: the run document with its wall report, and the
/// timeline document.
void export_run(const Workload& workload, const wl::RunResult& result,
                bool write, const std::string& out_dir, Sample& sample,
                SpanRecorder* spans) {
  const std::string stem =
      out_dir + "/" + workload.name + (write ? "-write" : "-read");
  const Clock::time_point start = Clock::now();
  {
    obs::JsonValue doc = obs::JsonValue::object();
    {
      auto scope = span(spans, "obs.run_document");
      obs::JsonValue config = obs::JsonValue::object();
      config.set("workload", workload.name)
          .set("nprocs", workload.nranks)
          .set("mode", write ? "write" : "read");
      doc = obs::run_document("perfbench", std::move(config));
      doc.set("result", wl::run_result_json(result));
      doc.set("wall_report",
              obs::wall_report_json(obs::build_wall_report(
                  result.trace->spans(), result.metrics.get())));
    }
    auto scope = span(spans, "obs.write_json_file");
    obs::write_json_file(stem + "-run.json", doc);
  }
  {
    obs::JsonValue timeline;
    {
      auto scope = span(spans, "obs.timeline.to_json");
      timeline = result.timeline->to_json();
    }
    auto scope = span(spans, "obs.write_json_file");
    obs::write_json_file(stem + "-timeline.json", timeline);
  }
  sample.export_s += seconds_since(start);
  sample.export_bytes += std::filesystem::file_size(stem + "-run.json") +
                         std::filesystem::file_size(stem + "-timeline.json");
}

}  // namespace

const char* to_string(Layer layer) {
  switch (layer) {
    case Layer::Bb: return "bb";
    case Layer::Integrity: return "integrity";
    case Layer::Intranode: return "intranode";
    case Layer::Telemetry: return "telemetry";
  }
  return "?";
}

bool Workload::uses(Layer layer) const {
  return std::find(layers.begin(), layers.end(), layer) != layers.end();
}

std::uint64_t Workload::expected_bytes() const {
  if (btio) {
    return 2 * bt.step_bytes() * static_cast<std::uint64_t>(bt.nsteps);
  }
  return ior.file_bytes(nranks);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "ior-parcoll", "ior-ext2ph", "ior-bb-integrity", "btio-telemetry"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  // The parcoll_sim defaults: intra-node aggregation on auto, paper-sized
  // IOR blocks (512 MiB in 4 MiB transfers).
  w.spec.intranode = node::IntranodeMode::Auto;
  w.layers = {Layer::Intranode};
  w.spec.tweak_model = [seed](machine::MachineModel& model) {
    model.storage.seed = seed;
  };
  w.ior.order_seed = seed;
  if (name == "ior-parcoll") {
    w.nranks = 1024;
    w.spec.impl = wl::Impl::ParColl;
    w.spec.parcoll_groups = core::kAutoGroups;
  } else if (name == "ior-ext2ph") {
    // Every call synchronizes all 512 ranks (the collective wall), so a
    // quarter of the paper's block keeps the per-call cost and gives a run
    // four times the samples.
    w.nranks = 512;
    w.ior.block_size = 128ull << 20;
    w.spec.impl = wl::Impl::Ext2ph;
  } else if (name == "ior-bb-integrity") {
    w.nranks = 256;
    w.spec.impl = wl::Impl::ParColl;
    w.spec.parcoll_groups = core::kAutoGroups;
    w.spec.bb.enabled = true;
    w.spec.bb.policy = bb::DrainPolicy::Watermark;
    w.spec.integrity.level = fs::IntegrityLevel::Detect;
    w.layers.push_back(Layer::Bb);
    w.layers.push_back(Layer::Integrity);
  } else if (name == "btio-telemetry") {
    w.btio = true;
    w.nranks = 256;
    w.bt.nsteps = 3;
    w.spec.impl = wl::Impl::ParColl;
    w.spec.parcoll_groups = core::kAutoGroups;
    w.telemetry = true;
    w.layers.push_back(Layer::Telemetry);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

Workload without(const Workload& workload, Layer layer) {
  Workload off = workload;
  switch (layer) {
    case Layer::Bb: off.spec.bb.enabled = false; break;
    case Layer::Integrity:
      off.spec.integrity.level = fs::IntegrityLevel::Off;
      break;
    case Layer::Intranode: off.spec.intranode = node::IntranodeMode::Off; break;
    case Layer::Telemetry: off.telemetry = false; break;
  }
  off.layers.erase(std::remove(off.layers.begin(), off.layers.end(), layer),
                   off.layers.end());
  return off;
}

Sample run_sample(const Workload& workload, const std::string& out_dir,
                  SpanRecorder* spans) {
  Sample sample;
  const wl::RunSpec spec = effective_spec(workload);
  for (bool write : directions(workload)) {
    const Clock::time_point start = Clock::now();
    {
      auto scope = span(spans, workload.btio
                                   ? (write ? "workloads.run_btio.write"
                                            : "workloads.run_btio.read")
                                   : "workloads.run_ior");
      sample.results.push_back(run_call(workload, spec, write));
    }
    const double wall = seconds_since(start);
    sample.wall_s += wall;
    sample.setup_s += wall - sample.results.back().engine.run_wall_seconds;
    if (workload.telemetry) {
      export_run(workload, sample.results.back(), write, out_dir, sample,
                 spans);
    }
  }
  return sample;
}

TwinResult run_twin(const Workload& workload, const fault::FaultPlan& fault) {
  Workload twin = workload;
  twin.spec.byte_true = true;
  if (twin.btio) {
    twin.nranks = 16;
    twin.bt.grid = 16;
    twin.bt.nsteps = 2;
  } else {
    twin.nranks = 32;
    twin.ior.block_size = 1ull << 20;
    twin.ior.xfer_size = 128ull << 10;
    // Keep the staging pressure of the full-size run: capacity scales with
    // the per-rank block.
    twin.spec.bb.capacity = std::max<std::uint64_t>(
        workload.spec.bb.capacity / (workload.ior.block_size /
                                     twin.ior.block_size),
        64ull << 10);
  }
  Workload plain = twin;
  plain.spec.impl = wl::Impl::Ext2ph;
  plain.spec.parcoll_groups = 0;
  plain.spec.intranode = node::IntranodeMode::Off;
  plain.spec.bb.enabled = false;
  plain.spec.integrity.level = fs::IntegrityLevel::Off;
  plain.telemetry = false;
  twin.spec.fault = fault;

  TwinResult outcome;
  std::vector<std::string>& errors = outcome.errors;
  for (bool write : directions(twin)) {
    const std::string what =
        twin.name + " twin " + (write ? "write" : "read") + ": ";
    const std::size_t errors_before = errors.size();
    outcome.attempted += 2;
    wl::RunResult got;
    wl::RunResult want;
    try {
      got = run_call(twin, effective_spec(twin), write);
      want = run_call(plain, effective_spec(plain), write);
    } catch (const std::exception& error) {
      errors.push_back(what + "threw: " + error.what());
      ++outcome.failed;
      continue;
    }
    if (!got.verified) errors.push_back(what + "file audit failed");
    if (!want.verified) errors.push_back(what + "plain ext2ph audit failed");
    if (got.file_digest == 0 || got.file_digest != want.file_digest) {
      errors.push_back(what + "digest differs from plain ext2ph");
    }
    if (twin.spec.impl == wl::Impl::ParColl && got.stats.parcoll_calls == 0) {
      errors.push_back(what + "ParColl never partitioned");
    }
    if (write && twin.uses(Layer::Bb) && got.stats.bb_staged_segments == 0) {
      errors.push_back(what + "burst buffer staged nothing");
    }
    if (write && twin.uses(Layer::Integrity) &&
        got.stats.integrity_blocks == 0) {
      errors.push_back(what + "integrity checksummed nothing");
    }
    if (errors.size() > errors_before) ++outcome.failed;
  }
  return outcome;
}

}  // namespace perfbench
