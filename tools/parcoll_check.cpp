// parcoll_check — deterministic schedule-exploration model checker.
//
// Explores event tie-break schedules (seeded-random probes and bounded DFS
// over choice points) across a matrix of workload x implementation x
// fault-plan configurations, checking on every schedule that
//   - subgroup collectives match across members (kind, comm, ordinal),
//   - aggregator re-election terminates without deadlock or split-brain,
//   - fault-free schedules never deadlock, and
//   - completed runs leave byte-identical file contents to the clean
//     program-order run (Lustre failover only redirects timing).
//
// Every violation prints a one-line replay command; the token re-executes
// the exact failing interleaving.
//
// Examples:
//   parcoll_check --smoke
//   parcoll_check --config tileio-reelection --budget 200 --mode random
//   parcoll_check --config ior-degrade-drop --schedule r1234
//   parcoll_check --inject-bug mismatch --expect-violation
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "check/explore.hpp"
#include "obs/json.hpp"
#include "obs/run_export.hpp"
#include "sim/random.hpp"

namespace {

using namespace parcoll;
using check::CheckConfig;
using check::ExploreMode;
using check::ExploreOptions;
using check::ExploreStats;
using check::InjectedBug;
using check::ScheduleOutcome;

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --smoke                 run the standing smoke matrix; fail unless\n"
      "                          >= --min-distinct distinct schedules pass\n"
      "  --list                  list the smoke configurations and exit\n"
      "  --config NAME           explore one configuration (repeatable)\n"
      "  --mode random|dfs|both  exploration strategy (default both)\n"
      "  --budget N              schedules per configuration (default 64)\n"
      "  --seed N                base seed for random probes (default 1)\n"
      "  --dfs-depth N           DFS backtrack horizon (default 8)\n"
      "  --min-distinct N        coverage floor for --smoke (default 500)\n"
      "  --keep-going            report all violations, not just the first\n"
      "  --schedule TOKEN        replay one schedule on --config and print\n"
      "                          its outcome (p, r<seed>, d<c0>.<c1>...)\n"
      "  --inject-bug KIND       run the self-test probe program with a\n"
      "                          deliberate bug: mismatch|deadlock|none;\n"
      "                          'corruption' runs the checksum-pipeline\n"
      "                          planted-bug contrast instead\n"
      "  --expect-violation      exit 0 only if exploration finds the bug\n"
      "  --json FILE.json        write a parcoll-run document with one\n"
      "                          point per configuration\n",
      argv0);
}

/// Outcome of one replayed schedule, rendered for a human.
int report_outcome(const std::string& what, const ScheduleOutcome& outcome) {
  std::printf("%s: schedule %s, %zu choice points\n", what.c_str(),
              outcome.token.c_str(), outcome.log.size());
  if (outcome.completed) {
    std::printf("  completed; digest=%llx verified=%s\n",
                static_cast<unsigned long long>(outcome.digest),
                outcome.verified ? "yes" : "no");
  } else {
    std::printf("  %s: %s\n", outcome.deadlock ? "DEADLOCK" : "ERROR",
                outcome.error.c_str());
  }
  if (outcome.faults.any()) {
    std::printf(
        "  faults: retries=%llu failovers=%llu drops=%llu reelections=%llu "
        "stalls=%llu\n",
        static_cast<unsigned long long>(outcome.faults.retries),
        static_cast<unsigned long long>(outcome.faults.failovers),
        static_cast<unsigned long long>(outcome.faults.drops),
        static_cast<unsigned long long>(outcome.faults.reelections),
        static_cast<unsigned long long>(outcome.faults.stalls));
    if (outcome.faults.corrupt_injected > 0) {
      std::printf(
          "  corruption: injected=%llu detected=%llu repaired=%llu "
          "scrub_repairs=%llu\n",
          static_cast<unsigned long long>(outcome.faults.corrupt_injected),
          static_cast<unsigned long long>(outcome.faults.corrupt_detected),
          static_cast<unsigned long long>(outcome.faults.corrupt_repaired),
          static_cast<unsigned long long>(outcome.faults.scrub_repairs));
    }
  }
  std::printf("  invariant checks: %llu\n",
              static_cast<unsigned long long>(outcome.invariant_checks));
  for (const check::Violation& violation : outcome.violations) {
    std::printf("  VIOLATION [%s] %s\n", violation.invariant.c_str(),
                violation.detail.c_str());
  }
  return outcome.violations.empty() && !outcome.deadlock ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool list = false;
  bool keep_going = false;
  bool expect_violation = false;
  std::uint64_t min_distinct = 500;
  std::vector<std::string> selected;
  std::string schedule_token;
  std::string inject_bug;
  std::string json_path;
  ExploreOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--config") {
      selected.push_back(next());
    } else if (arg == "--mode") {
      const std::string value = next();
      if (value == "random") {
        options.mode = ExploreMode::Random;
      } else if (value == "dfs") {
        options.mode = ExploreMode::Dfs;
      } else if (value == "both") {
        options.mode = ExploreMode::Both;
      } else {
        std::fprintf(stderr, "bad --mode (random|dfs|both): %s\n",
                     value.c_str());
        return 2;
      }
    } else if (arg == "--budget") {
      options.budget = std::stoi(next());
    } else if (arg == "--seed") {
      options.seed = std::stoull(next());
    } else if (arg == "--dfs-depth") {
      options.dfs_depth = std::stoi(next());
    } else if (arg == "--min-distinct") {
      min_distinct = std::stoull(next());
    } else if (arg == "--keep-going") {
      keep_going = true;
    } else if (arg == "--schedule") {
      schedule_token = next();
    } else if (arg == "--inject-bug") {
      inject_bug = next();
    } else if (arg == "--expect-violation") {
      expect_violation = true;
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  options.stop_on_violation = !keep_going;

  const std::vector<CheckConfig> all = check::smoke_configs();
  if (list) {
    for (const CheckConfig& config : all) {
      std::printf("%-20s %s x%d %s%s\n", config.name.c_str(),
                  config.workload.c_str(), config.nprocs,
                  workloads::to_string(config.impl),
                  config.fault_spec.empty()
                      ? ""
                      : ("  [" + config.fault_spec + "]").c_str());
    }
    return 0;
  }

  // --- Self-test: deliberately buggy probe program ---------------------
  if (inject_bug == "corruption") {
    // Planted-bug contrast for the checksum pipeline: the same corrupting
    // fault plan must slip through silently with integrity off (digest
    // diverges from the clean reference) and heal completely at
    // integrity=repair (digest matches). Both halves are expectations, so
    // the exit status is the same with or without --expect-violation.
    const ExploreStats stats = check::corruption_selftest();
    std::printf("inject-bug corruption: %llu runs, %llu expectation %s\n",
                static_cast<unsigned long long>(stats.schedules),
                static_cast<unsigned long long>(stats.violations.size()),
                stats.violations.size() == 1 ? "failure" : "failures");
    for (const check::ExploreViolation& violation : stats.violations) {
      std::printf("  FAILED [%s] %s (schedule %s)\n",
                  violation.invariant.c_str(), violation.detail.c_str(),
                  violation.token.c_str());
    }
    if (stats.ok()) {
      std::printf(
          "  checksums off let the corruption through; integrity=repair "
          "restored the clean bytes\n");
    }
    return stats.ok() ? 0 : 1;
  }
  if (!inject_bug.empty()) {
    InjectedBug bug;
    if (inject_bug == "mismatch") {
      bug = InjectedBug::Mismatch;
    } else if (inject_bug == "deadlock") {
      bug = InjectedBug::Deadlock;
    } else if (inject_bug == "none") {
      bug = InjectedBug::None;
    } else {
      std::fprintf(stderr,
                   "bad --inject-bug (mismatch|deadlock|corruption|none): %s\n",
                   inject_bug.c_str());
      return 2;
    }
    if (!schedule_token.empty()) {
      // Replay one schedule against the probe program.
      const ScheduleOutcome outcome = check::run_bug_schedule(
          sim::SchedulePolicy::parse(schedule_token), bug);
      const int status = report_outcome("inject-bug " + inject_bug, outcome);
      return expect_violation ? (status == 0 ? 1 : 0) : status;
    }
    // Explore: the bug only fires on schedules where the second fiber to
    // start is not rank 1, so program order is clean and random probes
    // find it quickly.
    for (int i = 0; i < options.budget; ++i) {
      const std::uint64_t seed =
          sim::hash_combine(options.seed, static_cast<std::uint64_t>(i));
      const ScheduleOutcome outcome =
          check::run_bug_schedule(sim::SchedulePolicy::random(seed), bug);
      if (!outcome.violations.empty() || outcome.deadlock) {
        std::printf("inject-bug %s: caught on schedule %s\n",
                    inject_bug.c_str(), outcome.token.c_str());
        for (const check::Violation& violation : outcome.violations) {
          std::printf("  VIOLATION [%s] %s\n", violation.invariant.c_str(),
                      violation.detail.c_str());
        }
        std::printf("  replay: parcoll_check --inject-bug %s --schedule %s\n",
                    inject_bug.c_str(), outcome.token.c_str());
        return expect_violation ? 0 : 1;
      }
    }
    std::printf("inject-bug %s: no violation in %d schedules\n",
                inject_bug.c_str(), options.budget);
    return expect_violation ? 1 : 0;
  }

  // --- Configuration selection ----------------------------------------
  std::vector<CheckConfig> configs;
  if (smoke || selected.empty()) {
    configs = all;
  }
  for (const std::string& name : selected) {
    bool found = false;
    for (const CheckConfig& config : all) {
      if (config.name == name) {
        configs.push_back(config);
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr, "unknown --config %s (try --list)\n", name.c_str());
      return 2;
    }
  }

  // --- Single-schedule replay ------------------------------------------
  if (!schedule_token.empty()) {
    if (configs.size() != 1) {
      std::fprintf(stderr, "--schedule needs exactly one --config\n");
      return 2;
    }
    sim::SchedulePolicy policy;
    try {
      policy = sim::SchedulePolicy::parse(schedule_token);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "%s\n", error.what());
      return 2;
    }
    return report_outcome(configs[0].name,
                          check::run_schedule(configs[0], policy));
  }

  // --- Exploration ------------------------------------------------------
  if (smoke && options.budget == 64) {
    // The smoke matrix needs enough budget to clear the coverage floor
    // with headroom; callers can still override --budget explicitly.
    options.budget = 90;
  }
  ExploreStats total;
  obs::JsonValue points = obs::JsonValue::array();
  const auto t0 = std::chrono::steady_clock::now();
  for (const CheckConfig& config : configs) {
    const auto c0 = std::chrono::steady_clock::now();
    const ExploreStats stats = check::explore(config, options);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - c0)
            .count();
    std::printf(
        "%-20s %5llu schedules (%llu distinct), %llu invariant checks, "
        "%llu faulted, %.1f sched/s%s\n",
        config.name.c_str(), static_cast<unsigned long long>(stats.schedules),
        static_cast<unsigned long long>(stats.distinct),
        static_cast<unsigned long long>(stats.invariant_checks),
        static_cast<unsigned long long>(stats.faulted_runs),
        elapsed > 0 ? static_cast<double>(stats.schedules) / elapsed : 0.0,
        stats.ok() ? "" : "  FAIL");
    obs::JsonValue row = obs::JsonValue::object();
    row.set("series", config.name);
    row.set("nprocs", config.nprocs);
    row.set("schedules", stats.schedules);
    row.set("distinct_schedules", stats.distinct);
    row.set("invariant_checks", stats.invariant_checks);
    row.set("wall_s", elapsed);
    row.set("schedules_per_s",
            elapsed > 0 ? static_cast<double>(stats.schedules) / elapsed : 0.0);
    row.set("violations",
            static_cast<std::uint64_t>(stats.violations.size()));
    points.push(std::move(row));
    total += stats;
    if (!stats.ok() && options.stop_on_violation) {
      break;
    }
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::printf(
      "total: %llu schedules (%llu distinct) across %zu configs, "
      "%llu invariant checks, %.2fs\n",
      static_cast<unsigned long long>(total.schedules),
      static_cast<unsigned long long>(total.distinct), configs.size(),
      static_cast<unsigned long long>(total.invariant_checks), wall);
  for (const check::ExploreViolation& violation : total.violations) {
    std::printf("VIOLATION %s [%s] %s\n  replay: %s\n",
                violation.config.c_str(), violation.invariant.c_str(),
                violation.detail.c_str(),
                check::replay_command(violation).c_str());
  }

  if (!json_path.empty()) {
    obs::JsonValue config = obs::JsonValue::object();
    config.set("smoke", smoke);
    config.set("budget", options.budget);
    config.set("seed", options.seed);
    config.set("configs", static_cast<std::uint64_t>(configs.size()));
    obs::JsonValue doc = obs::run_document("parcoll_check", std::move(config));
    doc.set("points", std::move(points));
    doc.set("schedules", total.schedules);
    doc.set("distinct_schedules", total.distinct);
    doc.set("violations", static_cast<std::uint64_t>(total.violations.size()));
    try {
      obs::write_json_file(json_path, doc);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "%s\n", error.what());
      return 1;
    }
    std::printf("json: %s\n", json_path.c_str());
  }

  if (!total.ok()) {
    return 1;
  }
  if (smoke && total.distinct < min_distinct) {
    std::fprintf(stderr,
                 "coverage floor missed: %llu distinct schedules < %llu\n",
                 static_cast<unsigned long long>(total.distinct),
                 static_cast<unsigned long long>(min_distinct));
    return 1;
  }
  return 0;
}
