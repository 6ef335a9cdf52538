// Schedule-space exploration: run one workload configuration under many
// event tie-break schedules (seeded-random probes and bounded DFS over
// choice points) and check that every schedule satisfies the collective
// invariants and produces byte-identical file contents.
//
// The reference outcome is the clean program-order run of the same
// configuration with the fault plan stripped. Lustre failover redirects
// only the *timing* of service — bytes land at identical logical offsets —
// so a degraded or permuted run that completes must reproduce the clean
// run's content digest exactly; anything else is a protocol bug.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "sim/schedule.hpp"
#include "workloads/runner.hpp"

namespace parcoll::check {

/// One workload configuration the checker probes. Workload shapes are
/// deliberately tiny (a few KB per rank) so a single schedule runs in
/// milliseconds and a smoke budget covers hundreds of schedules.
struct CheckConfig {
  std::string name;             // stable id, used by --config and replay lines
  std::string workload = "tileio";  // tileio | ior | btio | flashio
  int nprocs = 8;
  workloads::Impl impl = workloads::Impl::Ext2ph;
  int groups = 0;               // ParColl-N (0 = auto partitioning)
  int cb_nodes = 0;             // 0 = all nodes
  int min_group_size = 1;
  bool intranode = false;       // two-level intra-node aggregation
  std::string fault_spec{};     // FaultPlan::parse input; empty = clean
  // Burst-buffer staging tier (bb=enable). Schedules and fault plans must
  // not change the bytes the drains eventually land.
  bool bb = false;
  std::uint64_t bb_capacity = 256ull << 20;
  std::string bb_drain = "immediate";
  // Checksum pipeline level (off|detect|repair). Corruption configs run at
  // repair so every injected flip heals and the content-equivalence check
  // against the clean reference still applies.
  std::string integrity = "off";
  bool scrub = true;

  /// The byte-true RunSpec this configuration describes (before the
  /// schedule policy and checker are attached).
  [[nodiscard]] workloads::RunSpec spec() const;
};

/// What one schedule of one configuration did.
struct ScheduleOutcome {
  bool completed = false;       // the run finished (no exception)
  bool deadlock = false;        // sim::DeadlockError escaped
  std::string error;            // what() of the escaping exception, if any
  std::string token;            // replay token of the schedule that ran
  std::vector<sim::ScheduleChoice> log;  // executed choice points
  std::uint64_t digest = 0;     // file-content digest (completed runs)
  bool verified = false;        // byte-true file audit passed
  std::uint64_t invariant_checks = 0;
  std::vector<Violation> violations;
  fault::FaultCounters faults;
};

/// Run `config` once under `policy`. Never throws: deadlocks and protocol
/// errors come back as outcome fields so the explorer can keep going.
[[nodiscard]] ScheduleOutcome run_schedule(const CheckConfig& config,
                                           const sim::SchedulePolicy& policy);

enum class ExploreMode { Random, Dfs, Both };

struct ExploreOptions {
  ExploreMode mode = ExploreMode::Both;
  std::uint64_t seed = 1;   // base seed for the random probes
  int budget = 64;          // schedules to run for this configuration
  int dfs_depth = 8;        // bounded-DFS backtrack horizon (choice points)
  bool stop_on_violation = true;
};

/// A violation found during exploration, with enough context to replay it.
struct ExploreViolation {
  std::string config;       // CheckConfig::name
  std::string invariant;    // which invariant (or "deadlock"/"error"/...)
  std::string detail;
  std::string token;        // schedule token that triggered it
};

struct ExploreStats {
  std::uint64_t schedules = 0;         // runs executed
  std::uint64_t distinct = 0;          // distinct schedule signatures seen
  std::uint64_t invariant_checks = 0;  // checker observations, summed
  std::uint64_t faulted_runs = 0;      // runs where degraded-mode engaged
  std::vector<ExploreViolation> violations;
  [[nodiscard]] bool ok() const { return violations.empty(); }
  ExploreStats& operator+=(const ExploreStats& other);
};

/// Explore `config` under `options`. The clean program-order reference run
/// is executed first (it counts toward `schedules`); every subsequent
/// schedule is checked against its digest.
[[nodiscard]] ExploreStats explore(const CheckConfig& config,
                                   const ExploreOptions& options);

/// The checker's standing smoke matrix: workloads x implementations x
/// fault plans, all tiny. Fault plans are tuned so degraded mode actually
/// engages (retries, failovers, re-elections) on the program-order run.
[[nodiscard]] std::vector<CheckConfig> smoke_configs();

/// Render the one-line replay command for a violation.
[[nodiscard]] std::string replay_command(const ExploreViolation& violation);

// --- Deliberate bug injection (self-test) ----------------------------------

/// Which bug run_bug_schedule plants in its 4-rank probe program.
enum class InjectedBug {
  None,      // correct program: barrier then allreduce on every rank
  Mismatch,  // schedule-dependent collective-kind mismatch
  Deadlock,  // schedule-dependent missing collective call
};

/// Run a small hand-written SPMD program whose bug (when injected) only
/// fires on schedules where the second fiber to start at t=0 is not rank 1
/// — i.e. never under program order, deterministically under permuted
/// schedules. Used to prove the checker catches real interleaving bugs and
/// that the printed replay token reproduces them.
[[nodiscard]] ScheduleOutcome run_bug_schedule(
    const sim::SchedulePolicy& policy, InjectedBug bug);

/// Planted-bug self-test for the checksum pipeline (--inject-bug
/// corruption): the same silently-corrupting fault plan is run three ways.
/// The clean reference pins the expected bytes; with integrity off the
/// corruption must slip through (digest diverges / audit fails — proving
/// the injection is real and silent); with integrity=repair every flip
/// must be detected and healed so the run matches the reference exactly.
/// The returned stats carry a violation for each expectation that failed
/// (empty violations = the demonstration holds).
[[nodiscard]] ExploreStats corruption_selftest();

}  // namespace parcoll::check
