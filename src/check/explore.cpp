#include "check/explore.hpp"

#include <set>
#include <stdexcept>
#include <utility>

#include "fs/integrity.hpp"
#include "fs/lustre.hpp"
#include "fs/object_store.hpp"
#include "mpi/collectives.hpp"
#include "mpi/runtime.hpp"
#include "sim/random.hpp"
#include "workloads/btio.hpp"
#include "workloads/flashio.hpp"
#include "workloads/ior.hpp"
#include "workloads/tileio.hpp"

namespace parcoll::check {

namespace {

/// Tiny workload shapes: a schedule probe must run in milliseconds, so the
/// checker trades paper-scale payloads for schedule coverage. The access
/// patterns (tiled subarray, segmented contiguous, diagonal multipartition,
/// interleaved AMR blocks) are the real ones.
workloads::TileIOConfig tiny_tileio() {
  workloads::TileIOConfig config;
  config.tiles_x = 4;
  config.tile_w = 4;
  config.tile_h = 4;
  config.elem_size = 8;
  return config;
}

workloads::IorConfig tiny_ior() {
  workloads::IorConfig config;
  config.block_size = 16 << 10;
  config.xfer_size = 4 << 10;
  return config;
}

workloads::BtIOConfig tiny_btio() {
  workloads::BtIOConfig config;
  config.grid = 12;
  config.nsteps = 2;
  return config;
}

workloads::FlashConfig tiny_flashio() {
  workloads::FlashConfig config;
  config.nxb = 4;
  config.nguard = 1;
  config.nblocks = 2;
  config.nvars = 2;
  return config;
}

workloads::RunResult dispatch(const CheckConfig& config,
                              const workloads::RunSpec& spec) {
  if (config.workload == "tileio") {
    return workloads::run_tileio(tiny_tileio(), config.nprocs, spec,
                                 /*write=*/true);
  }
  if (config.workload == "ior") {
    return workloads::run_ior(tiny_ior(), config.nprocs, spec, /*write=*/true);
  }
  if (config.workload == "btio") {
    return workloads::run_btio(tiny_btio(), config.nprocs, spec,
                               /*write=*/true);
  }
  if (config.workload == "flashio") {
    return workloads::run_flashio(tiny_flashio(), config.nprocs, spec,
                                  /*write=*/true);
  }
  throw std::invalid_argument("unknown checker workload: " + config.workload);
}

}  // namespace

workloads::RunSpec CheckConfig::spec() const {
  workloads::RunSpec spec;
  spec.impl = impl;
  spec.parcoll_groups = groups;
  spec.min_group_size = min_group_size;
  spec.cb_nodes = cb_nodes;
  spec.byte_true = true;  // the content-equivalence invariant needs bytes
  if (intranode) {
    spec.intranode = node::IntranodeMode::On;
  }
  if (bb) {
    spec.bb.enabled = true;
    spec.bb.capacity = bb_capacity;
    spec.bb.policy = bb::parse_drain_policy(bb_drain);
  }
  if (!fault_spec.empty()) {
    spec.fault = fault::FaultPlan::parse(fault_spec);
  }
  if (integrity != "off") {
    spec.integrity.level = fs::parse_integrity_level(integrity);
    spec.integrity.scrub = scrub;
  }
  return spec;
}

ScheduleOutcome run_schedule(const CheckConfig& config,
                             const sim::SchedulePolicy& policy) {
  ScheduleOutcome outcome;
  outcome.token = policy.token();

  InvariantChecker checker;
  workloads::RunSpec spec = config.spec();
  spec.checker = &checker;
  spec.schedule = policy;
  // The log must survive the World when a schedule dies mid-run: the
  // policy's record sink points at the outcome, not at engine state.
  spec.schedule.record = &outcome.log;

  try {
    workloads::RunResult result = dispatch(config, spec);
    outcome.completed = true;
    outcome.digest = result.file_digest;
    outcome.verified = result.verified;
    outcome.faults = result.faults;
  } catch (const sim::DeadlockError& error) {
    outcome.deadlock = true;
    outcome.error = error.what();
  } catch (const std::exception& error) {
    outcome.error = error.what();
  }
  checker.finalize();
  outcome.invariant_checks = checker.checks();
  outcome.violations = checker.violations();
  return outcome;
}

ExploreStats& ExploreStats::operator+=(const ExploreStats& other) {
  schedules += other.schedules;
  distinct += other.distinct;
  invariant_checks += other.invariant_checks;
  faulted_runs += other.faulted_runs;
  violations.insert(violations.end(), other.violations.begin(),
                    other.violations.end());
  return *this;
}

ExploreStats explore(const CheckConfig& config, const ExploreOptions& options) {
  ExploreStats stats;
  std::set<std::uint64_t> signatures;

  // The clean program-order run is the oracle every schedule must match.
  CheckConfig clean = config;
  clean.fault_spec.clear();
  const ScheduleOutcome reference =
      run_schedule(clean, sim::SchedulePolicy::program());
  ++stats.schedules;
  signatures.insert(sim::schedule_signature(reference.log));
  stats.invariant_checks += reference.invariant_checks;
  for (const Violation& violation : reference.violations) {
    stats.violations.push_back(
        {config.name, violation.invariant, violation.detail, reference.token});
  }
  if (!reference.completed) {
    stats.violations.push_back({config.name,
                                reference.deadlock ? "deadlock" : "error",
                                reference.error, reference.token});
  } else if (!reference.verified) {
    stats.violations.push_back(
        {config.name, "file-audit",
         "clean reference run failed its byte audit", reference.token});
  }
  if (!stats.violations.empty() && options.stop_on_violation) {
    stats.distinct = signatures.size();
    return stats;
  }
  const std::uint64_t ref_digest = reference.digest;

  // Returns true when exploration should stop.
  const auto consider = [&](const ScheduleOutcome& outcome) {
    ++stats.schedules;
    signatures.insert(sim::schedule_signature(outcome.log));
    stats.invariant_checks += outcome.invariant_checks;
    if (outcome.faults.any()) {
      ++stats.faulted_runs;
    }
    const std::size_t before = stats.violations.size();
    for (const Violation& violation : outcome.violations) {
      stats.violations.push_back(
          {config.name, violation.invariant, violation.detail, outcome.token});
    }
    if (outcome.deadlock) {
      stats.violations.push_back(
          {config.name, "deadlock", outcome.error, outcome.token});
    } else if (!outcome.completed) {
      stats.violations.push_back(
          {config.name, "error", outcome.error, outcome.token});
    } else {
      if (outcome.digest != ref_digest) {
        stats.violations.push_back(
            {config.name, "content-equivalence",
             "file digest differs from the clean program-order run",
             outcome.token});
      }
      if (!outcome.verified) {
        stats.violations.push_back({config.name, "file-audit",
                                    "byte audit failed", outcome.token});
      }
    }
    return options.stop_on_violation && stats.violations.size() > before;
  };

  int budget = options.budget > 0 ? options.budget : 0;
  int dfs_budget = 0;
  int random_budget = 0;
  switch (options.mode) {
    case ExploreMode::Random:
      random_budget = budget;
      break;
    case ExploreMode::Dfs:
      dfs_budget = budget;
      break;
    case ExploreMode::Both:
      dfs_budget = budget / 2;
      random_budget = budget - dfs_budget;
      break;
  }

  // Bounded DFS: systematic neighborhood of program order. When the
  // frontier exhausts before its budget, the remainder goes to random
  // probes (deep-schedule coverage DFS's horizon cannot reach).
  std::vector<std::uint32_t> prefix;
  bool stop = false;
  for (int i = 0; i < dfs_budget && !stop; ++i) {
    const ScheduleOutcome outcome =
        run_schedule(config, sim::SchedulePolicy::dfs(prefix));
    stop = consider(outcome);
    if (stop) {
      break;
    }
    auto next = sim::dfs_next(outcome.log, options.dfs_depth);
    if (!next) {
      random_budget += dfs_budget - i - 1;
      break;
    }
    prefix = std::move(*next);
  }
  for (int i = 0; i < random_budget && !stop; ++i) {
    const std::uint64_t seed =
        sim::hash_combine(options.seed, static_cast<std::uint64_t>(i));
    const ScheduleOutcome outcome =
        run_schedule(config, sim::SchedulePolicy::random(seed));
    stop = consider(outcome);
  }

  stats.distinct = signatures.size();
  return stats;
}

std::vector<CheckConfig> smoke_configs() {
  std::vector<CheckConfig> configs;
  // Clean runs: schedule permutations alone must not change file contents
  // or trip a collective-ordering invariant.
  configs.push_back({"tileio-ext2ph", "tileio", 8, workloads::Impl::Ext2ph});
  configs.push_back(
      {"tileio-parcoll2", "tileio", 8, workloads::Impl::ParColl, 2});
  configs.push_back({"ior-parcoll-auto", "ior", 8, workloads::Impl::ParColl, 0,
                     /*cb_nodes=*/0, /*min_group_size=*/2});
  configs.push_back({"btio-parcoll2", "btio", 9, workloads::Impl::ParColl, 2,
                     /*cb_nodes=*/0, /*min_group_size=*/2});
  {
    CheckConfig config{"flashio-intranode", "flashio", 8,
                       workloads::Impl::Ext2ph};
    config.intranode = true;
    configs.push_back(config);
  }
  // Degraded runs: every schedule must survive the fault plan and still
  // produce the clean run's bytes. Windows cover the whole (tiny) run so
  // the plans engage regardless of how a schedule shifts timings.
  {
    CheckConfig config{"tileio-outage", "tileio", 8, workloads::Impl::Ext2ph};
    config.fault_spec =
        "seed=11;ost-outage=0:0:0.02;rpc-drop=0.02;timeout=0.005;"
        "backoff=0.001:0.01;max-retries=2";
    configs.push_back(config);
  }
  {
    CheckConfig config{"ior-degrade-drop", "ior", 8, workloads::Impl::ParColl,
                       2, /*cb_nodes=*/0, /*min_group_size=*/2};
    config.fault_spec =
        "seed=7;ost-degrade=1:0:1:8.0;rpc-drop=0.05;timeout=0.005;"
        "backoff=0.001:0.01";
    configs.push_back(config);
  }
  {
    // Aggregator stall long past the re-election threshold with cb_nodes
    // limited, so healthy non-aggregator substitutes exist in the subgroup.
    // IOR's multiple transfers give the stall a sync point to fire at
    // mid-run (at=0.015 lands between collective calls on the program-order
    // run, where rank 0 is a group aggregator) with later calls still to
    // come — the shape re-election needs.
    CheckConfig config{"ior-reelection", "ior", 8, workloads::Impl::ParColl,
                       2, /*cb_nodes=*/2, /*min_group_size=*/2};
    config.fault_spec =
        "seed=3;rank-stall=0:0.015:2.0;agg-stall-threshold=0.01";
    configs.push_back(config);
  }
  {
    // Burst-buffer staging, clean: writes return once staged and drain
    // behind. Every schedule must keep the collective-complete invariants
    // across drains and land the program-order run's exact bytes.
    CheckConfig config{"tileio-bb", "tileio", 8, workloads::Impl::ParColl, 2};
    config.bb = true;
    config.bb_drain = "watermark";  // exercises the hi/lo gating + flushes
    configs.push_back(config);
  }
  {
    // Drain failure: an OST outage covering the drain window pushes the
    // background drains themselves into retries/failover. The staged data
    // must replay until durable — no loss, no divergent double-write.
    CheckConfig config{"ior-bb-drain-fault", "ior", 8, workloads::Impl::Ext2ph};
    config.bb = true;
    config.fault_spec =
        "seed=5;ost-outage=0:0:0.05;rpc-drop=0.02;timeout=0.005;"
        "backoff=0.001:0.01;max-retries=2";
    configs.push_back(config);
  }
  // Silent-corruption runs at integrity=repair: every injected flip must be
  // detected and healed, so the content-equivalence check against the clean
  // reference still holds on every schedule.
  {
    // Wire corruption: corrupted write RPCs fail the OST's ingest checksum
    // and retransmit until a clean copy lands.
    CheckConfig config{"tileio-corrupt-rpc", "tileio", 8,
                       workloads::Impl::ParColl, 2};
    config.integrity = "repair";
    config.fault_spec =
        "seed=13;rpc-corrupt=0.1;timeout=0.005;backoff=0.001:0.01;"
        "max-retries=8";
    configs.push_back(config);
  }
  {
    // Staged-segment decay: resident bb segments flip while parked; the
    // pre-drain verification must heal them from the checksum replicas
    // before anything lands on an OST.
    CheckConfig config{"ior-bb-corrupt", "ior", 8, workloads::Impl::Ext2ph};
    config.bb = true;
    config.integrity = "repair";
    config.fault_spec = "seed=17;bb-corrupt=0.25";
    configs.push_back(config);
  }
  {
    // Latent media corruption: bytes already landed on OSTs flip mid-run;
    // the scrubber (and the close-time sweep backstop) must repair them.
    CheckConfig config{"tileio-media-scrub", "tileio", 8,
                       workloads::Impl::Ext2ph};
    config.integrity = "repair";
    config.fault_spec = "seed=19;media-corrupt=0:0.003;media-corrupt=1:0.004";
    configs.push_back(config);
  }
  {
    // Every optional layer at once under ParColl: two subgroups, each
    // aggregating within its nodes first, staging through a watermark-
    // drained burst buffer whose segments decay, healed by integrity
    // repair before they drain. No layer may erase another's effect, and
    // no subgroup may synchronize outside itself (sync-scope).
    CheckConfig config{"ior-parcoll-composed", "ior", 8,
                       workloads::Impl::ParColl, 2, /*cb_nodes=*/0,
                       /*min_group_size=*/2};
    config.intranode = true;
    config.bb = true;
    config.bb_drain = "watermark";
    config.integrity = "repair";
    config.fault_spec = "seed=17;bb-corrupt=0.25";
    configs.push_back(config);
  }
  return configs;
}

std::string replay_command(const ExploreViolation& violation) {
  return "parcoll_check --config " + violation.config + " --schedule '" +
         violation.token + "'";
}

ScheduleOutcome run_bug_schedule(const sim::SchedulePolicy& policy,
                                 InjectedBug bug) {
  ScheduleOutcome outcome;
  outcome.token = policy.token();

  machine::MachineModel model = machine::MachineModel::jaguar(4);
  mpi::World world(std::move(model), /*byte_true=*/true);
  sim::SchedulePolicy installed = policy;
  installed.record = &outcome.log;
  if (installed.kind != sim::TieBreak::Program) {
    world.engine().set_schedule(installed);
  }
  InvariantChecker checker;
  world.set_checker(&checker);

  // All four fibers start at t=0, so their start order is the engine's
  // first choice point. Under program order the second fiber to start is
  // rank 1 and the bug stays dormant; a permuted schedule puts another
  // rank second and the bug fires — deterministically, per schedule.
  auto arrivals = std::make_shared<int>(0);
  try {
    world.run([&checker, arrivals, bug](mpi::Rank& self) {
      (void)checker;
      const int order = (*arrivals)++;
      const bool triggered =
          bug != InjectedBug::None && order == 1 && self.rank() != 1;
      if (triggered && bug == InjectedBug::Deadlock) {
        return;  // never joins the collectives below: peers wait forever
      }
      if (triggered && bug == InjectedBug::Mismatch) {
        // Wrong collective kind at this communicator's sequence point 0.
        mpi::barrier(self, self.comm_world());
      }
      mpi::allreduce_sum(self, self.comm_world(), self.rank());
      mpi::barrier(self, self.comm_world());
    });
    outcome.completed = true;
    outcome.verified = true;
    outcome.digest = 0;
  } catch (const sim::DeadlockError& error) {
    outcome.deadlock = true;
    outcome.error = error.what();
  } catch (const std::exception& error) {
    outcome.error = error.what();
  }
  checker.finalize();
  outcome.invariant_checks = checker.checks();
  outcome.violations = checker.violations();
  return outcome;
}

ExploreStats corruption_selftest() {
  ExploreStats stats;
  const auto policy = sim::SchedulePolicy::program();

  // A plan dense enough that the program-order run is guaranteed to inject:
  // half the write RPCs flip a bit on the wire, and two latent media events
  // flip stored bytes mid-run.
  CheckConfig config{"tileio-corruption-selftest", "tileio", 8,
                     workloads::Impl::Ext2ph};
  config.fault_spec =
      "seed=21;rpc-corrupt=0.5;media-corrupt=0:0.003;timeout=0.005;"
      "backoff=0.001:0.01;max-retries=16";

  const auto expect = [&](bool ok, const std::string& invariant,
                          const std::string& detail,
                          const std::string& token) {
    if (!ok) {
      stats.violations.push_back({config.name, invariant, detail, token});
    }
  };

  // 1. Clean reference pins the expected bytes.
  CheckConfig clean = config;
  clean.fault_spec.clear();
  const ScheduleOutcome reference = run_schedule(clean, policy);
  ++stats.schedules;
  stats.invariant_checks += reference.invariant_checks;
  expect(reference.completed && reference.verified, "selftest-reference",
         "clean reference run failed: " + reference.error, reference.token);
  if (stats.violations.empty()) {
    // 2. Checksums off: the corruption must actually land and slip through
    // silently — the run completes, but the bytes are wrong.
    const ScheduleOutcome unprotected = run_schedule(config, policy);
    ++stats.schedules;
    ++stats.faulted_runs;
    expect(unprotected.completed, "selftest-unprotected",
           "corrupted run with checksums off did not complete: " +
               unprotected.error,
           unprotected.token);
    expect(unprotected.faults.corrupt_injected > 0, "selftest-unprotected",
           "fault plan injected no corruption", unprotected.token);
    expect(unprotected.faults.corrupt_detected == 0, "selftest-unprotected",
           "corruption was detected with checksums off", unprotected.token);
    expect(!unprotected.completed ||
               unprotected.digest != reference.digest || !unprotected.verified,
           "selftest-unprotected",
           "injected corruption left the file bit-identical to the clean "
           "run: the planted bug did not reproduce",
           unprotected.token);

    // 3. integrity=repair: same plan, but every flip is detected and healed
    // and the file comes out bit-identical to the clean reference.
    CheckConfig repaired = config;
    repaired.integrity = "repair";
    const ScheduleOutcome protected_run = run_schedule(repaired, policy);
    ++stats.schedules;
    ++stats.faulted_runs;
    stats.invariant_checks += protected_run.invariant_checks;
    for (const Violation& violation : protected_run.violations) {
      stats.violations.push_back({repaired.name, violation.invariant,
                                  violation.detail, protected_run.token});
    }
    expect(protected_run.completed, "selftest-repair",
           "corrupted run with integrity=repair did not complete: " +
               protected_run.error,
           protected_run.token);
    expect(protected_run.faults.corrupt_injected > 0, "selftest-repair",
           "fault plan injected no corruption", protected_run.token);
    expect(protected_run.faults.corrupt_detected > 0, "selftest-repair",
           "no injected corruption was detected", protected_run.token);
    expect(!protected_run.completed ||
               (protected_run.digest == reference.digest &&
                protected_run.verified),
           "selftest-repair",
           "integrity=repair did not restore the clean run's bytes",
           protected_run.token);
  }
  stats.distinct = stats.schedules;
  return stats;
}

}  // namespace parcoll::check
