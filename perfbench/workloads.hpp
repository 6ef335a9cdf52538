// The benchmark's named workloads and how one simulation of each runs.
//
// A workload is a fixed ParColl-simulator configuration: a pattern (IOR or
// BT-IO), an I/O implementation, a rank count and the optional layers it
// switches on. The workload seed reaches the program only as generated
// inputs: the storage jitter seed of the machine model and the IOR
// transfer-order seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workloads/btio.hpp"
#include "workloads/ior.hpp"
#include "workloads/runner.hpp"

namespace perfbench {

namespace wl = parcoll::workloads;

/// An optional layer a workload switches on, which the traced run turns
/// off one at a time to measure its host share.
enum class Layer { Bb, Integrity, Intranode, Telemetry };

[[nodiscard]] const char* to_string(Layer layer);

struct Workload {
  std::string name;
  bool btio = false;  // BT-IO write + read-back; otherwise an IOR write
  int nranks = 0;
  wl::IorConfig ior;
  wl::BtIOConfig bt;
  wl::RunSpec spec;
  /// Program metrics, spans and sampler on, plus the obs exports.
  bool telemetry = false;
  /// The optional layers this workload uses.
  std::vector<Layer> layers;

  [[nodiscard]] bool uses(Layer layer) const;
  /// Bytes one simulation moves in its measured phases.
  [[nodiscard]] std::uint64_t expected_bytes() const;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// The named workload with inputs generated from `seed`. Throws
/// std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

/// The same workload with one optional layer switched off.
[[nodiscard]] Workload without(const Workload& workload, Layer layer);

/// One simulation of a workload: every run_* call it makes, plus the obs
/// export of a telemetry workload.
struct Sample {
  double wall_s = 0;    // host seconds of the run_* calls
  double setup_s = 0;   // host seconds inside run_* but outside Engine::run
  double export_s = 0;  // host seconds of the obs export

  /// Host seconds of the whole simulation, export included.
  [[nodiscard]] double host_s() const { return wall_s + export_s; }
  std::uint64_t export_bytes = 0;
  std::vector<wl::RunResult> results;
};

/// Run one simulation. Exports of a telemetry workload go under `out_dir`;
/// `spans` (may be null) records the calls into the workloads and obs
/// layers.
[[nodiscard]] Sample run_sample(const Workload& workload,
                                const std::string& out_dir,
                                SpanRecorder* spans);

/// Correctness twin: a scaled-down byte-true copy of the workload (same
/// pattern, implementation and layers, fewer bytes) checked against the
/// plain ext2ph run of the same pattern. `fault` is installed in the twin
/// only (empty in normal runs); the self-tests plant silent corruption
/// through it to prove a failing twin fails the invocation.
struct TwinResult {
  int attempted = 0;  // simulations run
  int failed = 0;     // twin simulations that threw or failed a check
  std::vector<std::string> errors;
};
[[nodiscard]] TwinResult run_twin(const Workload& workload,
                                  const parcoll::fault::FaultPlan& fault);

}  // namespace perfbench
