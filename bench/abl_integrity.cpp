// Ablation — end-to-end checksum pipeline (detect / repair / scrub).
//
// With integrity=detect every block entering a collective write is
// CRC-32C'd where the user buffer is first touched; OSTs verify write
// RPCs at ingest, drains verify staged segments before they land, and
// reads/close sweeps verify stored bytes. integrity=repair adds healing:
// corrupted RPCs retransmit, decayed staging segments are rebuilt from
// the checksum replicas, and latent media flips are scrubbed back.
//
// The sweep crosses integrity level x corruption source against the
// integrity-off clean baseline. Columns: integ = seconds charged to
// TimeCat::Integrity (summed over ranks), ovh% = elapsed overhead vs the
// clean integrity-off run (the price of the checksum pipeline), then the
// corruption counters (injected / detected / repaired / scrub repairs).
//
// Every run is byte-true and must reproduce the baseline's content
// digest exactly — at repair level even the corrupted runs, since every
// injected flip has to be detected and healed before the file settles.
// A digest mismatch fails the bench (nonzero exit).
//
// Two phantom IOR rows (P=64, ParColl-8, at full scale and under --smoke)
// gate what integrity costs the partitioned protocol: detect's elapsed
// over the integrity-off run must stay within 2 %, the checksum work
// alone. Agreeing on errors over the whole communicator inside every
// partitioned call would put the collective wall back (6.40x); the bench
// exits nonzero above 1.02.
#include <cinttypes>
#include <string>

#include "bench/common.hpp"
#include "fault/fault.hpp"
#include "workloads/ior.hpp"
#include "workloads/tileio.hpp"

int main(int argc, char** argv) {
  const bool smoke = parcoll::bench::smoke_requested(argc, argv);
  using namespace parcoll;
  using namespace parcoll::bench;

  BenchReport report("abl_integrity", argc, argv);
  const int nprocs = scaled(smoke, 128);
  const auto config = workloads::TileIOConfig::paper(nprocs);

  header("Ablation: end-to-end data integrity",
         "Tile-IO (P=" + std::to_string(nprocs) +
             "), checksum pipeline by level and corruption source");
  std::printf("  %-24s %9s %9s %8s %6s %8s %8s %8s %6s\n", "series", "MiB/s",
              "elapsed s", "integ s", "ovh%", "injected", "detected",
              "repaired", "scrub");

  const auto make_spec = [&](fs::IntegrityLevel level) {
    workloads::RunSpec spec = baseline_spec();
    spec.byte_true = true;  // digests must be meaningful
    spec.integrity.level = level;
    return spec;
  };

  const workloads::RunResult base =
      workloads::run_tileio(config, nprocs, make_spec(fs::IntegrityLevel::Off),
                            true);

  bool digests_ok = true;
  const auto run_row = [&](const std::string& series,
                           const workloads::RunSpec& spec) {
    const auto result = workloads::run_tileio(config, nprocs, spec, true);
    const double overhead_pct =
        base.elapsed > 0
            ? 100.0 * (result.elapsed - base.elapsed) / base.elapsed
            : 0.0;
    std::printf("  %-24s %9.1f %9.3f %8.3f %5.1f%% %8" PRIu64 " %8" PRIu64
                " %8" PRIu64 " %6" PRIu64 "\n",
                series.c_str(), result.bandwidth_mib(), result.elapsed,
                result.sum[mpi::TimeCat::Integrity], overhead_pct,
                result.faults.corrupt_injected, result.faults.corrupt_detected,
                result.faults.corrupt_repaired, result.faults.scrub_repairs);
    report.add(series, nprocs, result,
               {{"detected",
                 static_cast<double>(result.faults.corrupt_detected)},
                {"repaired",
                 static_cast<double>(result.faults.corrupt_repaired)},
                {"scrub_repairs",
                 static_cast<double>(result.faults.scrub_repairs)},
                {"checksum_overhead_pct", overhead_pct}});
    if (result.file_digest != base.file_digest) {
      digests_ok = false;
      std::fprintf(stderr,
                   "DIGEST MISMATCH: %s produced %016" PRIx64
                   ", integrity-off baseline %016" PRIx64 "\n",
                   series.c_str(), result.file_digest, base.file_digest);
    }
    return result;
  };

  std::printf("  %-24s %9.1f %9.3f %8.3f %6s %8s %8s %8s %6s\n", "off/clean",
              base.bandwidth_mib(), base.elapsed, 0.0, "-", "-", "-", "-",
              "-");
  report.add("off/clean", nprocs, base);

  // Clean runs: the pipeline's cost with nothing to find.
  run_row("detect/clean", make_spec(fs::IntegrityLevel::Detect));
  run_row("repair/clean", make_spec(fs::IntegrityLevel::Repair));
  std::printf("\n");

  // Corrupted runs at repair level: each source must be fully healed.
  {
    // Wire corruption: flipped write RPCs fail ingest and retransmit.
    workloads::RunSpec spec = make_spec(fs::IntegrityLevel::Repair);
    spec.fault = fault::FaultPlan::parse(
        "seed=29;rpc-corrupt=0.01;timeout=0.005;backoff=0.001:0.01;"
        "max-retries=8");
    run_row("repair/rpc-corrupt", spec);
  }
  {
    // Latent media flips mid-run, placed relative to the measured clean
    // span so they land on bytes that have already been written; the
    // scrubber (plus the close-time sweep backstop) heals them.
    workloads::RunSpec spec = make_spec(fs::IntegrityLevel::Repair);
    spec.fault = fault::FaultPlan::parse(
        "seed=31;media-corrupt=0:" + std::to_string(0.25 * base.elapsed) +
        ";media-corrupt=1:" + std::to_string(0.5 * base.elapsed));
    run_row("repair/media-corrupt", spec);
  }
  {
    // Staged-segment decay: resident bb segments flip while parked and
    // the pre-drain verification rebuilds them before anything lands.
    workloads::RunSpec spec = make_spec(fs::IntegrityLevel::Repair);
    spec.bb.enabled = true;
    spec.fault = fault::FaultPlan::parse("seed=37;bb-corrupt=0.05");
    run_row("repair/bb-corrupt", spec);
  }

  std::printf("\n");

  // ParColl under integrity: phantom IOR at the same size in both modes,
  // with explicit groups so the smoke run partitions too.
  constexpr int kIorProcs = 64;
  constexpr double kMaxDetectRatio = 1.02;
  const auto ior_run = [&](fs::IntegrityLevel level) {
    workloads::RunSpec spec = parcoll_spec(8);
    spec.integrity.level = level;
    return workloads::run_ior(workloads::IorConfig{}, kIorProcs, spec, true);
  };
  const workloads::RunResult ior_off = ior_run(fs::IntegrityLevel::Off);
  const workloads::RunResult ior_detect = ior_run(fs::IntegrityLevel::Detect);
  const double detect_ratio = ior_detect.elapsed / ior_off.elapsed;
  std::printf("  %-24s %9.1f %9.3f %8.3f %6s\n", "ior-parcoll/off",
              ior_off.bandwidth_mib(), ior_off.elapsed, 0.0, "-");
  std::printf("  %-24s %9.1f %9.3f %8.3f %5.1f%%  (detect/off %.4f)\n",
              "ior-parcoll/detect", ior_detect.bandwidth_mib(),
              ior_detect.elapsed, ior_detect.sum[mpi::TimeCat::Integrity],
              100.0 * (detect_ratio - 1.0), detect_ratio);
  report.add("ior-parcoll/off", kIorProcs, ior_off);
  report.add("ior-parcoll/detect", kIorProcs, ior_detect,
             {{"detect_over_off", detect_ratio}});

  footnote("ovh% is elapsed overhead vs the integrity-off clean run: the");
  footnote("price of checksumming every block through staging, exchange,");
  footnote("ingest and the close sweep. Corrupted repair runs must end");
  footnote("bit-identical to the clean baseline — injected counts what the");
  footnote("plan flipped, detected/repaired/scrub what the pipeline caught");
  footnote("ior-parcoll rows: IOR P=64, ParColl-8, phantom; detect/off must");
  footnote("stay <= 1.02, so integrity adds no synchronization to a");
  footnote("partitioned call beyond its subgroup");
  bool ok = true;
  if (!digests_ok) {
    std::fprintf(stderr, "abl_integrity: content digest check FAILED\n");
    ok = false;
  }
  if (detect_ratio > kMaxDetectRatio) {
    std::fprintf(stderr,
                 "abl_integrity: ParColl IOR detect/off elapsed %.4f exceeds "
                 "%.2f\n",
                 detect_ratio, kMaxDetectRatio);
    ok = false;
  }
  return ok ? 0 : 1;
}
