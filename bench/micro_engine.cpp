// micro_engine — DES-engine scaling bench and bit-identity gate.
//
// Three jobs in one binary:
//
//  1. Bit-identity gate (always on): re-runs two small byte-true workloads
//     (tile + IOR) in sequential/program-order mode and compares content
//     digest, schedule token, and simulated clocks against constants pinned
//     from the original engine. Any drift means the engine's
//     (time, seq) total order changed — a correctness bug, not a tuning
//     matter — and the bench exits non-zero so CI fails.
//
//  2. Engine scaling: a synthetic sleep-storm at 1k/10k/100k ranks, a
//     10k-rank lockstep phase whose wakes all share one time per round, a
//     spawn-churn phase that exercises the fiber stack pool, a ParColl IOR
//     run at scale, and the plain-ext2ph baseline at 10k ranks, whose
//     event count and virtual elapsed are pinned too (exit non-zero on
//     drift). Reports host events/s, queue depth, stack pool hits, and peak
//     RSS; --json feeds bench_to_trajectory.
//
//  3. Allocation budget: heap allocations per rank-call over a fixed
//     phantom ParColl IOR, counted by the operator new below (compiled into
//     this binary only). Deterministic, so the run exits non-zero as soon
//     as a change puts allocations back on the collective hot path.
//
// --smoke keeps the rank counts CI-sized (drops the 100k tier, runs the
// lockstep phase for 10 rounds, and the ext2ph baseline at 4096 ranks).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/file_area.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "workloads/ior.hpp"
#include "workloads/tileio.hpp"

namespace {
/// Heap allocations counted while `g_count_allocs` is set.
bool g_count_allocs = false;
std::uint64_t g_allocs = 0;
}  // namespace

// The counting allocator: every other operator new and delete form of the
// standard library forwards to these two.
void* operator new(std::size_t bytes) {
  if (g_count_allocs) ++g_allocs;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace parcoll;
using workloads::RunResult;
using workloads::RunSpec;

/// Most heap allocations one rank may make per collective call of the
/// budget run, amortized over the whole simulation (setup, open and close
/// included). 49 before the collective hot path stopped allocating.
constexpr double kAllocBudgetPerRankCall = 12.0;

// Golden values captured from the pre-PR engine (binary-heap queue,
// ucontext fibers, 256 KiB stacks) for the same configs, byte-true,
// program-order schedule. The event queue, callback arena, pooled
// stacks, and fast context switch must reproduce every one of them
// bit-for-bit.
struct Golden {
  const char* name;
  std::uint64_t file_digest;
  const char* schedule_token;
  double elapsed;
  double total_elapsed;
  std::uint64_t bytes;
  std::uint64_t fs_rpcs;
};

constexpr Golden kGoldenTile = {
    "tileio-32", 2837233136922917773ull, "p",
    0.062553776237471187, 0.063203776237471185, 32768, 32};
constexpr Golden kGoldenIor = {
    "ior-32", 372189963690044911ull, "p",
    0.11984201252554912, 0.12049201252554911, 8388608, 128};

/// Plain-ext2ph IOR baseline pins (phantom, 64 KiB block and transfer,
/// default aggregators, intranode off), captured before ext2ph's metadata
/// went sparse. Host-side planning may get cheaper; these may not move.
struct ScalePin {
  int nranks;
  std::uint64_t events;
  double elapsed;
};
constexpr ScalePin kExt2phPins[] = {
    {4096, 98304, 17.435459863358144},
    {10240, 245760, 106.50143675438417},
};

/// Pre-PR engine throughput on the 10k-rank sleep storm, measured on the
/// same container the goldens were pinned on (RelWithDebInfo, one core).
/// Reference point for the printed speedup, not a pass/fail gate — absolute
/// events/s shifts with the host.
constexpr double kSeedEventsPerSec10k = 257930.0;

bool check_golden(const Golden& want, const RunResult& got) {
  bool ok = true;
  const auto mismatch = [&](const char* field, const std::string& want_s,
                            const std::string& got_s) {
    std::fprintf(stderr,
                 "BIT-IDENTITY MISMATCH %s.%s: pinned %s, got %s\n",
                 want.name, field, want_s.c_str(), got_s.c_str());
    ok = false;
  };
  char buf[64];
  const auto fmt_u64 = [&](std::uint64_t v) {
    std::snprintf(buf, sizeof buf, "%llu", (unsigned long long)v);
    return std::string(buf);
  };
  const auto fmt_d = [&](double v) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string(buf);
  };
  if (got.file_digest != want.file_digest) {
    mismatch("file_digest", fmt_u64(want.file_digest),
             fmt_u64(got.file_digest));
  }
  if (got.schedule_token != want.schedule_token) {
    mismatch("schedule_token", want.schedule_token, got.schedule_token);
  }
  if (got.elapsed != want.elapsed) {
    mismatch("elapsed", fmt_d(want.elapsed), fmt_d(got.elapsed));
  }
  if (got.total_elapsed != want.total_elapsed) {
    mismatch("total_elapsed", fmt_d(want.total_elapsed),
             fmt_d(got.total_elapsed));
  }
  if (got.bytes != want.bytes) {
    mismatch("bytes", fmt_u64(want.bytes), fmt_u64(got.bytes));
  }
  if (got.fs_rpcs != want.fs_rpcs) {
    mismatch("fs_rpcs", fmt_u64(want.fs_rpcs), fmt_u64(got.fs_rpcs));
  }
  if (!got.verified) {
    std::fprintf(stderr, "BIT-IDENTITY MISMATCH %s: byte audit failed\n",
                 want.name);
    ok = false;
  }
  return ok;
}

bool run_identity_gate(bench::BenchReport& report) {
  RunSpec tile_spec;
  tile_spec.impl = workloads::Impl::ParColl;
  tile_spec.parcoll_groups = 4;
  tile_spec.min_group_size = 2;
  tile_spec.byte_true = true;
  workloads::TileIOConfig tile;
  tile.tiles_x = 8;
  tile.tile_w = 16;
  tile.tile_h = 8;
  tile.elem_size = 8;
  const RunResult tile_got = workloads::run_tileio(tile, 32, tile_spec, true);

  RunSpec ior_spec;
  ior_spec.impl = workloads::Impl::Ext2ph;
  ior_spec.byte_true = true;
  workloads::IorConfig ior;
  ior.block_size = 256 << 10;
  ior.xfer_size = 64 << 10;
  const RunResult ior_got = workloads::run_ior(ior, 32, ior_spec, true);

  const bool tile_ok = check_golden(kGoldenTile, tile_got);
  const bool ior_ok = check_golden(kGoldenIor, ior_got);
  std::printf("  %-22s %s (digest %llu, schedule %s)\n", kGoldenTile.name,
              tile_ok ? "bit-identical" : "MISMATCH",
              (unsigned long long)tile_got.file_digest,
              tile_got.schedule_token.c_str());
  std::printf("  %-22s %s (digest %llu, schedule %s)\n", kGoldenIor.name,
              ior_ok ? "bit-identical" : "MISMATCH",
              (unsigned long long)ior_got.file_digest,
              ior_got.schedule_token.c_str());
  report.add("identity:tileio", 32, tile_got,
             {{"bit_identical", tile_ok ? 1.0 : 0.0}});
  report.add("identity:ior", 32, ior_got,
             {{"bit_identical", ior_ok ? 1.0 : 0.0}});
  return tile_ok && ior_ok;
}

std::vector<std::pair<std::string, double>> engine_extras(
    const sim::EngineStats& stats) {
  return {{"events_per_s", stats.events_per_second()},
          {"wall_s", stats.run_wall_seconds},
          {"peak_queue_depth", (double)stats.peak_queue_depth},
          {"stacks_allocated", (double)stats.stacks_allocated},
          {"stacks_reused", (double)stats.stacks_reused},
          {"peak_rss_mib", (double)sim::peak_rss_bytes() / (1 << 20)}};
}

/// Sleep storm: every rank does `rounds` pseudo-random sleeps, all ranks
/// live at once. Stresses the queue (nranks concurrent events, mixed
/// horizons) and the switch path (each event is a cold-stack resume).
sim::EngineStats sleep_storm(int nranks, int rounds) {
  sim::Engine engine;
  for (int i = 0; i < nranks; ++i) {
    engine.spawn([&engine, i, rounds] {
      std::uint64_t x = 88172645463325252ull ^ (std::uint64_t)i;
      for (int k = 0; k < rounds; ++k) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        engine.sleep(1e-6 * (double)(x % 1000));
      }
    });
  }
  engine.run();
  return engine.stats();
}

/// Lockstep: every rank sleeps the same duration each round, so each
/// round's wakes share one time, as the members of a collective do when
/// its last arriver wakes them. Each push lands at the time of the push
/// before it: the run queue's append path. (The storm's random times are
/// the other extreme, where every event starts a run of its own.)
sim::EngineStats lockstep(int nranks, int rounds) {
  sim::Engine engine;
  for (int i = 0; i < nranks; ++i) {
    engine.spawn([&engine, rounds] {
      for (int k = 0; k < rounds; ++k) {
        engine.sleep(1e-6);
      }
    });
  }
  engine.run();
  return engine.stats();
}

/// Spawn churn: `total` short-lived fibers with at most `width` alive at a
/// time. Steady state must serve stacks from the pool, not the allocator.
sim::EngineStats spawn_churn(int total, int width) {
  sim::Engine engine;
  int next = width;
  std::function<void()> body = [&engine, &body, &next, total] {
    engine.sleep(1e-6);
    if (next < total) {
      ++next;
      engine.spawn(body);
    }
  };
  for (int i = 0; i < width; ++i) {
    engine.spawn(body);
  }
  engine.run();
  return engine.stats();
}

void print_engine_row(const char* series, int nranks,
                      const sim::EngineStats& stats) {
  std::printf(
      "  %-22s %8d ranks  %12.0f ev/s  wall %7.3f s  queue %8llu  "
      "stacks %llu+%llu pooled\n",
      series, nranks, stats.events_per_second(), stats.run_wall_seconds,
      (unsigned long long)stats.peak_queue_depth,
      (unsigned long long)stats.stacks_allocated,
      (unsigned long long)stats.stacks_reused);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_requested(argc, argv);
  bench::BenchReport report("micro_engine", argc, argv);

  bench::header("micro_engine",
                "DES engine scaling: run queue, arena events, pooled "
                "small-stack fibers");

  std::printf("bit-identity gate (sequential mode vs pre-PR pins):\n");
  const bool identical = run_identity_gate(report);

  std::printf("sleep storm (%d sleeps/rank, virtual horizon 1 ms):\n", 50);
  double events_per_s_10k = 0.0;
  const std::vector<int> tiers =
      smoke ? std::vector<int>{1000, 10000}
            : std::vector<int>{1000, 10000, 100000};
  for (const int nranks : tiers) {
    // Best-of-3 on the 10k tier: it carries the printed speedup figure, and
    // single runs on a shared host wobble by tens of percent. The other
    // tiers are informational, one rep each.
    const int reps = nranks == 10000 ? 3 : 1;
    sim::EngineStats stats = sleep_storm(nranks, 50);
    for (int rep = 1; rep < reps; ++rep) {
      const sim::EngineStats again = sleep_storm(nranks, 50);
      if (again.events_per_second() > stats.events_per_second()) {
        stats = again;
      }
    }
    char series[32];
    std::snprintf(series, sizeof series, "storm-%dk", nranks / 1000);
    print_engine_row(series, nranks, stats);
    std::vector<std::pair<std::string, double>> extras = engine_extras(stats);
    if (nranks == 10000) {
      events_per_s_10k = stats.events_per_second();
      extras.emplace_back("speedup_vs_seed",
                          events_per_s_10k / kSeedEventsPerSec10k);
    }
    report.add_host(series, nranks, extras);
  }
  if (events_per_s_10k > 0.0) {
    std::printf("  speedup at 10k ranks vs pre-PR engine: %.1fx "
                "(pinned baseline %.0f ev/s)\n",
                events_per_s_10k / kSeedEventsPerSec10k, kSeedEventsPerSec10k);
  }

  {
    const int nranks = 10000;
    const int rounds = smoke ? 10 : 50;
    const sim::EngineStats stats = lockstep(nranks, rounds);
    std::printf("lockstep (%d sleeps/rank, one wake time per round):\n",
                rounds);
    print_engine_row("lockstep-10k", nranks, stats);
    std::vector<std::pair<std::string, double>> extras = engine_extras(stats);
    extras.emplace_back("events", (double)stats.events_executed);
    report.add_host("lockstep-10k", nranks, extras);
  }

  {
    const int total = smoke ? 50000 : 200000;
    const int width = 64;
    const sim::EngineStats stats = spawn_churn(total, width);
    std::printf("spawn churn (%d fibers, %d live):\n", total, width);
    print_engine_row("churn", total, stats);
    bench::footnote("pooled stacks: allocations stay near the live width, "
                    "not the spawn count");
    report.add_host("churn", total, engine_extras(stats));
  }

  {
    // The paper's own answer to scale: partitioned collectives keep the
    // exchange inside subgroups, so a six-figure rank count stays tractable
    // — for the simulated machine and for this simulator.
    const int nranks = smoke ? 4096 : 100000;
    std::printf("parcoll IOR at scale (%d ranks, phantom payloads):\n",
                nranks);
    RunSpec spec;
    spec.impl = workloads::Impl::ParColl;
    spec.parcoll_groups = core::kAutoGroups;
    spec.byte_true = false;
    workloads::IorConfig config;
    config.block_size = 64 << 10;
    config.xfer_size = 64 << 10;
    const auto wall0 = std::chrono::steady_clock::now();
    const RunResult result = workloads::run_ior(config, nranks, spec, true);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall0)
            .count();
    std::printf(
        "  %-22s %8d ranks  %12.0f ev/s  wall %7.3f s  %10.1f MiB/s "
        "(virtual)\n",
        "ior-parcoll", nranks, result.engine.events_per_second(), wall,
        result.bandwidth_mib());
    print_engine_row("ior-parcoll-engine", nranks, result.engine);
    std::vector<std::pair<std::string, double>> extras =
        engine_extras(result.engine);
    extras.emplace_back("host_wall_s", wall);
    report.add("ior-parcoll", nranks, result, extras);
  }

  bool ext2ph_pinned = true;
  {
    // The paper's baseline at scale: every process aggregates and every
    // cycle synchronizes all of them, so per-rank planning cost decides
    // whether the simulator can run it at all.
    const ScalePin& pin = kExt2phPins[smoke ? 0 : 1];
    std::printf("plain ext2ph IOR at scale (%d ranks, phantom payloads):\n",
                pin.nranks);
    RunSpec spec;
    spec.impl = workloads::Impl::Ext2ph;
    spec.byte_true = false;
    workloads::IorConfig config;
    config.block_size = 64 << 10;
    config.xfer_size = 64 << 10;
    const auto wall0 = std::chrono::steady_clock::now();
    const RunResult result = workloads::run_ior(config, pin.nranks, spec, true);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall0)
            .count();
    std::printf(
        "  %-22s %8d ranks  %12.0f ev/s  wall %7.3f s  %10.1f MiB/s "
        "(virtual)\n",
        "ior-ext2ph", pin.nranks, result.engine.events_per_second(), wall,
        result.bandwidth_mib());
    print_engine_row("ior-ext2ph-engine", pin.nranks, result.engine);
    if (result.engine.events_executed != pin.events ||
        result.elapsed != pin.elapsed) {
      std::fprintf(stderr,
                   "PIN MISMATCH ior-ext2ph-%d: pinned %llu events, %.17g s; "
                   "got %llu events, %.17g s\n",
                   pin.nranks, (unsigned long long)pin.events, pin.elapsed,
                   (unsigned long long)result.engine.events_executed,
                   result.elapsed);
      ext2ph_pinned = false;
    }
    std::vector<std::pair<std::string, double>> extras =
        engine_extras(result.engine);
    extras.emplace_back("host_wall_s", wall);
    report.add("ior-ext2ph", pin.nranks, result, extras);
  }

  bool within_budget = true;
  {
    // A steady stream of ParColl calls: 256 ranks write 32 transfers each,
    // with the parcoll_sim defaults (automatic groups, intranode auto).
    constexpr int kRanks = 256;
    RunSpec spec;
    spec.impl = workloads::Impl::ParColl;
    spec.parcoll_groups = core::kAutoGroups;
    spec.intranode = node::IntranodeMode::Auto;
    spec.byte_true = false;
    workloads::IorConfig config;
    config.block_size = 128ull << 20;
    g_allocs = 0;
    g_count_allocs = true;
    const RunResult result = workloads::run_ior(config, kRanks, spec, true);
    g_count_allocs = false;
    const double rank_calls =
        static_cast<double>(result.stats.collective_writes) * kRanks;
    const double per_call = static_cast<double>(g_allocs) / rank_calls;
    within_budget = per_call <= kAllocBudgetPerRankCall;
    std::printf("allocation budget (parcoll IOR, %d ranks, %.0f rank-calls):\n",
                kRanks, rank_calls);
    std::printf("  %-22s %8.2f allocs/rank-call  budget %.0f  %s\n",
                "ior-parcoll", per_call, kAllocBudgetPerRankCall,
                within_budget ? "PASS" : "OVER BUDGET");
    report.add("alloc-budget", kRanks, result,
               {{"allocs_per_rank_call", per_call}});
  }

  if (!identical) {
    std::fprintf(stderr,
                 "micro_engine: bit-identity gate FAILED — engine schedule "
                 "or file contents drifted from the pinned goldens\n");
    return 1;
  }
  if (!ext2ph_pinned) {
    std::fprintf(stderr,
                 "micro_engine: the plain-ext2ph scale run drifted from its "
                 "pinned events or virtual elapsed\n");
    return 1;
  }
  if (!within_budget) {
    std::fprintf(stderr,
                 "micro_engine: the ParColl IOR run made more than %.0f heap "
                 "allocations per rank-call\n",
                 kAllocBudgetPerRankCall);
    return 1;
  }
  std::printf("  bit-identity gate: PASS\n");
  return 0;
}
