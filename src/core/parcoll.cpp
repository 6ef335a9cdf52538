#include "core/parcoll.hpp"

#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bb/staging.hpp"
#include "bb/target.hpp"
#include "check/invariants.hpp"
#include "core/intermediate_view.hpp"
#include "core/subgroup.hpp"
#include "fs/integrity.hpp"
#include "mpi/collectives.hpp"
#include "mpi/trace.hpp"
#include "mpiio/aggregator_dist.hpp"
#include "mpiio/ext2ph.hpp"
#include "mpiio/sieve.hpp"
#include "obs/metrics.hpp"
#include "node/hier_coll.hpp"
#include "node/intra_agg.hpp"
#include "node/nodecomm.hpp"
#include "sim/random.hpp"

namespace parcoll::core {

namespace {

/// Digest of the comm-global part of a subgroup plan. Every member of the
/// establishing collective must compute the identical value, or subgroups
/// would silently disagree on boundaries/rosters (the failure PARCOACH-style
/// checking exists to catch).
std::uint64_t plan_hash(const SubgroupPlan& plan) {
  std::uint64_t h = static_cast<std::uint64_t>(plan.fa().mode);
  h = sim::hash_combine(h, static_cast<std::uint64_t>(plan.fa().num_groups));
  for (int group : plan.fa().group_of_rank) {
    h = sim::hash_combine(h, static_cast<std::uint64_t>(group));
  }
  for (const auto& [lo, hi] : plan.fa().areas) {
    h = sim::hash_combine(sim::hash_combine(h, lo), hi);
  }
  for (const auto& aggs : plan.aggs_per_group()) {
    h = sim::hash_combine(h, aggs.size());
    for (int agg : aggs) {
      h = sim::hash_combine(h, static_cast<std::uint64_t>(agg));
    }
  }
  return h;
}

/// Digest of a re-election round's outcome: the agreed clock and the
/// roster every subgroup member will aggregate through for this call.
std::uint64_t roster_hash(double agreed, const std::vector<int>& roster) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(agreed));
  std::memcpy(&bits, &agreed, sizeof(bits));
  std::uint64_t h = sim::mix64(bits);
  for (int agg : roster) {
    h = sim::hash_combine(h, static_cast<std::uint64_t>(agg));
  }
  return h;
}

RankAccess access_of(const mpiio::PreparedRequest& request) {
  RankAccess access;
  if (!request.extents.empty()) {
    access.st = request.extents.front().offset;
    access.end = request.extents.back().end();
  }
  access.bytes = request.bytes;
  return access;
}

/// The plan of calls over `comm` with `aggregators`. Coordination funnels
/// through node leaders whenever cb_intranode is not disable and some node
/// hosts two members. The data path stages two-level under enable, and
/// under automatic only when every aggregator keeps its own leader: several
/// aggregators on one node (the Catamount every-process default) would
/// lose I/O parallelism to buy the coordination win. The open file's
/// leader roster is made once, by its first caller, into `file_leaders`; a
/// subgroup's or a re-elected call's is as short as its aggregator roster,
/// so each member maps that onto node leaders itself.
CallPlan make_call_plan(mpi::Rank& self, const mpi::Comm& comm,
                        mpiio::Roster aggregators, const mpiio::Hints& hints,
                        std::optional<mpiio::Roster>* file_leaders = nullptr) {
  CallPlan plan{comm, std::move(aggregators), std::nullopt, nullptr};
  if (hints.cb_intranode == node::IntranodeMode::Off) return plan;
  node::NodeComm nodes = node::make_node_comm(
      self, comm, self.world().model().topology, hints.cb_intranode_leader);
  if (!nodes.multi()) return plan;
  const auto leaders = [&]() -> mpiio::Roster {
    auto locals = nodes.layout->to_leader_locals(*plan.aggregators);
    if (hints.cb_intranode == node::IntranodeMode::Auto &&
        locals.size() != plan.aggregators->size()) {
      return nullptr;
    }
    return mpiio::make_roster(std::move(locals));
  };
  if (file_leaders == nullptr) {
    plan.leader_aggregators = leaders();
  } else {
    if (!*file_leaders) *file_leaders = leaders();
    plan.leader_aggregators = **file_leaders;
  }
  plan.nodes = std::move(nodes);
  return plan;
}

/// The plan of calls over the file communicator or a split-phase helper's
/// copy of it (same local ranks). Its shared parts live in `file` and take
/// no collective sequence number, so a rank that re-plans alone (after a
/// set_view only it made) takes no step that the others skip.
CallPlan make_file_plan(mpi::Rank& self, mpiio::FileCommon& file,
                        const mpi::Comm& comm) {
  if (file.aggregators == nullptr) {
    // A plain call is the one-group case of the aggregator rule.
    file.aggregators = mpiio::make_roster(std::move(mpiio::select_aggregators(
        self.world().model().topology, comm, file.hints,
        std::vector<int>(static_cast<std::size_t>(comm.size()), 0), 1)[0]));
  }
  return make_call_plan(self, comm, file.aggregators, file.hints,
                        &file.leader_aggregators);
}

/// The partition of `comm` for this call's requests: the build of the
/// pattern-detection allgather of every member's access summary, staged
/// through node leaders when `nodes` is given, else flat.
std::shared_ptr<const SharedGroupInfo> gather_partition(
    mpi::Rank& self, const mpi::Comm& comm, const mpiio::Hints& hints,
    const mpiio::PreparedRequest& prep, const node::NodeComm* nodes) {
  const auto plan = [&](const std::vector<RankAccess>& accesses) {
    return plan_partition(self.world().model().topology, comm, accesses,
                          hints);
  };
  return nodes != nullptr ? node::hier_allgather<SharedGroupInfo>(
                                self, *nodes, access_of(prep), plan)
                          : mpi::allgather_build<SharedGroupInfo>(
                                self, comm, access_of(prep), plan);
}

/// Establish a ParColl partition over `comm` and each subgroup's route.
/// The pattern-detection allgather is the one global exchange; through node
/// leaders its inter-node stage involves num_nodes participants, not P.
SubgroupPlan establish_partition(mpi::Rank& self, mpiio::FileCommon& file,
                                 const mpi::Comm& comm,
                                 const mpiio::PreparedRequest& prep) {
  mpi::SpanGuard partition_span(self, obs::SpanKind::Stage, "partition");
  const CallPlan parent = make_file_plan(self, file, comm);
  SubgroupPlan plan = form_subgroups(
      self, comm,
      gather_partition(self, comm, file.hints, prep,
                       parent.nodes ? &*parent.nodes : nullptr));
  // One group runs on the file communicator, whose plan is made already
  // (its roster is the same one-group rule's).
  plan.call = plan.call.comm == comm
                  ? parent
                  : make_call_plan(self, plan.call.comm, plan.call.aggregators,
                                   file.hints);
  if (plan.fa().mode == PartitionMode::Direct) {
    // Establishing-call invariant: my extents lie in my File Area (the
    // partition was built from clean split points).
    const auto [fa_lo, fa_hi] =
        plan.fa().areas[static_cast<std::size_t>(plan.my_group)];
    if (!prep.extents.empty() && (prep.extents.front().offset < fa_lo ||
                                  prep.extents.back().end() > fa_hi)) {
      throw std::logic_error("parcoll: request escapes its File Area");
    }
  }
  if (auto* checker = self.world().checker()) {
    checker->on_partition(self.rank(), comm.context_id(), comm.size(),
                          plan_hash(plan));
  }
  return plan;
}

/// The plan cached in `slot`, or a new one from `make`, cached there. With
/// `reuse` false, or no slot (a split-phase helper), every call re-plans.
template <typename Plan, typename Make>
std::shared_ptr<const Plan> cached_plan(std::shared_ptr<void>* slot,
                                        bool reuse, Make&& make) {
  if (slot != nullptr && reuse && *slot) {
    return std::static_pointer_cast<const Plan>(*slot);
  }
  auto plan = std::make_shared<Plan>(make());
  if (slot != nullptr) *slot = plan;
  return plan;
}

/// Run one two-phase exchange on `plan`: flat, or staged two-level —
/// requests aggregate within each node first and only the node leaders
/// join the inter-node ext2ph, through the plan's leader roster.
void run_two_phase(mpi::Rank& self, const CallPlan& plan,
                   mpiio::IoTarget& target, const mpiio::CollRequest& request,
                   mpiio::Ext2phOptions options, bool is_write,
                   CollectiveOutcome& outcome) {
  outcome.two_level = plan.leader_aggregators != nullptr;
  options.aggregators =
      outcome.two_level ? plan.leader_aggregators : plan.aggregators;
  const mpiio::Ext2phOutcome result =
      outcome.two_level
          ? node::two_level(self, *plan.nodes, target, request, options,
                            is_write)
          : mpiio::ext2ph(self, plan.comm, target, request, options, is_write);
  outcome.cycles = result.cycles;
  outcome.rmw_reads = result.rmw_reads;
  outcome.intra_bytes = result.intra_bytes;
}

}  // namespace

/// Everything write and read share: take (or make) the call's plan, build
/// the target, and run ext2ph in the right space. Split collectives'
/// helper fibers pass no cache slot.
CollectiveOutcome run_collective_engine(mpi::Rank& self,
                                        mpiio::FileCommon& file,
                                        const mpi::Comm& comm,
                                        mpiio::PreparedRequest& prep,
                                        bool is_write,
                                        std::shared_ptr<void>* cache_slot) {
  auto& fs = self.world().fs();
  const mpiio::Hints& hints = file.hints;
  bb::StagingStore* bb_store = file.bb.get();

  // Burst-buffer staging: with bb=enable every write target below becomes
  // a BbTarget, so aggregator writes land in the per-node staging store
  // and drain to Lustre in the background. The foreground guard tells the
  // arbitrate drain policy that ranks are inside a collective call.
  bb::ForegroundGuard foreground(bb_store);

  mpiio::Ext2phOptions options;
  options.cb_buffer_size = hints.cb_buffer_size;
  if (hints.cb_fd_align) {
    options.fd_alignment = fs.meta(file.fs_id).stripe_size;
  }

  CollectiveOutcome outcome;
  outcome.bytes = prep.bytes;
  outcome.comm = comm;
  bb::BbTarget physical(fs, file.fs_id, bb_store);

  const bool cb_enabled = is_write ? hints.cb_write_enabled
                                   : hints.cb_read_enabled;
  if (!cb_enabled) {
    // romio_cb_write/read=disable: the collective call is serviced locally
    // with data sieving, exactly as ROMIO degrades it. No coordination.
    // Sieve windows bypass the staging store, so staged data under them
    // lands first.
    if (bb_store != nullptr && prep.extents.size() > 1) {
      bb_store->flush_overlapping(self, prep.extents);
    }
    mpiio::sieve_serve(self, physical, file.fs_id, prep, is_write);
    return outcome;
  }

  if (!hints.partitioned()) {
    // Plain extended two-phase over the whole group (the baseline).
    const auto plan = cached_plan<CallPlan>(
        cache_slot, /*reuse=*/true,
        [&] { return make_file_plan(self, file, comm); });
    run_two_phase(self, *plan, physical, {prep.extents, prep.data()},
                  options, is_write, outcome);
    return outcome;
  }

  // Establish (or reuse) the partition: the first ParColl call after a view
  // is set caches it on the handle, so later calls on the same view go
  // straight to their subgroup and subgroups drift independently through
  // time. Only the establishing call pays a global exchange.
  const auto cached = cached_plan<SubgroupPlan>(
      cache_slot, hints.parcoll_persistent_groups,
      [&] { return establish_partition(self, file, comm, prep); });
  const SubgroupPlan& plan = *cached;
  outcome.partitioned = true;
  outcome.mode = plan.fa().mode;
  outcome.num_groups = plan.fa().num_groups;
  outcome.comm = plan.call.comm;
  if (auto* checker = self.world().checker();
      checker != nullptr && plan.call.comm != comm) {
    checker->on_partitioned_call_begin(self.rank(), comm.context_id());
  }
  // Everything from here runs subgroup-local; the span labels descendants
  // (re-election, exchange cycles, I/O) with this rank's subgroup.
  mpi::SpanGuard subgroup_span(self, obs::SpanKind::Subgroup, "subgroup",
                               plan.my_group);

  // Degraded mode: when the fault plan schedules rank stalls, the subgroup
  // agrees on a common time (a max-reduction over its members' clocks) and
  // replaces any aggregator stalled past the threshold for this call. The
  // cached plan is never mutated: a recovered aggregator is reinstated on
  // the next call. Gated on has_rank_stalls() so the extra reduction
  // cannot perturb fault-free timing.
  const CallPlan* call = &plan.call;
  CallPlan reelected;
  const fault::FaultPlan* fplan = self.world().fault_plan();
  if (fplan != nullptr && fplan->has_rank_stalls()) {
    mpi::SpanGuard reelect_span(self, obs::SpanKind::Stage, "reelect");
    const double agreed =
        call->nodes ? node::hier_allreduce_max(self, *call->nodes, self.now())
                    : mpi::allreduce_max(self, call->comm, self.now());
    int replaced = 0;
    std::vector<int> roster = reelect_stalled_aggregators(
        call->comm, *call->aggregators, *fplan, agreed, &replaced);
    if (auto* checker = self.world().checker()) {
      checker->on_reelection(self.rank(), call->comm.context_id(),
                             call->comm.size(), roster_hash(agreed, roster));
    }
    if (replaced > 0) {
      if (call->comm.local_rank(self.rank()) == 0) {
        self.world().fault_state().of(self.rank()).reelections +=
            static_cast<std::uint64_t>(replaced);
      }
      // Every member replaced the same aggregators, so the whole subgroup
      // decides this call's route again for the new roster.
      reelected = make_call_plan(self, call->comm,
                                 mpiio::make_roster(std::move(roster)), hints);
      call = &reelected;
    }
  }

  if (plan.fa().mode != PartitionMode::Intermediate) {
    // SingleGroup (whose subcomm is the whole comm) and Direct run in file
    // space.
    run_two_phase(self, *call, physical, {prep.extents, prep.data()},
                  options, is_write, outcome);
  } else {
    // Intermediate view (pattern c). Share the members' physical extents
    // within the subgroup so aggregators can resolve intermediate ranges.
    // The intermediate coordinate space is subgroup-local (each group's
    // space starts at 0): groups touch disjoint physical segments, so their
    // spaces are independent and no global exchange is needed per call.
    // The exchange is an allgatherv's; its last arriver builds the map
    // straight from the contributions.
    const auto map = mpi::coll_build<IntermediateMap>(
        self, call->comm, mpi::CollKind::Allgather,
        mpi::detail::bytes_of(prep.extents),
        [](mpi::CollContribs all) { return IntermediateMap(all); });
    IntermediateTarget target(physical, map);
    const auto sub_me =
        static_cast<std::size_t>(call->comm.local_rank(self.rank()));
    const fs::Extent inter{map->inter_start(sub_me), prep.bytes};
    const mpiio::CollRequest request{
        std::span(&inter, prep.bytes > 0 ? 1 : 0), prep.data()};
    run_two_phase(self, *call, target, request, options, is_write, outcome);
  }

  // Per-subgroup call/cycle counters, recorded once per call by the
  // subgroup's first rank (mirrors the FileStats call-level convention).
  auto* metrics = self.world().metrics();
  if (metrics != nullptr && plan.call.comm.local_rank(self.rank()) == 0) {
    const auto group =
        static_cast<std::size_t>(plan.my_group >= 0 ? plan.my_group : 0);
    ++metrics->counter("parcoll.group.calls", group);
    metrics->counter("parcoll.group.cycles", group) += outcome.cycles;
  }
  return outcome;
}

void end_subgroup_scope(mpi::Rank& self, const mpi::Comm& comm,
                        const CollectiveOutcome& outcome) {
  if (auto* checker = self.world().checker();
      checker != nullptr && outcome.comm != comm) {
    checker->on_partitioned_call_end(self.rank(), comm.context_id());
  }
}

mpiio::FileStats collective_counts(mpiio::FileHandle& file,
                                   const CollectiveOutcome& outcome,
                                   bool is_write) {
  mpiio::FileStats counts;
  counts.exchange_cycles = outcome.cycles;
  counts.rmw_reads = outcome.rmw_reads;
  counts.intranode_bytes = outcome.intra_bytes;
  // Call-level counters are recorded once per collective call, by the
  // call's first rank; per-rank quantities (time, bytes, cycles) sum.
  if (file.comm().local_rank(file.self().rank()) == 0) {
    (is_write ? counts.collective_writes : counts.collective_reads) = 1;
    counts.intranode_calls = outcome.two_level ? 1 : 0;
    counts.parcoll_calls = outcome.partitioned ? 1 : 0;
    counts.view_switches = outcome.mode == PartitionMode::Intermediate ? 1 : 0;
    counts.last_num_groups = outcome.num_groups;
  }
  return counts;
}

namespace {
/// Collective error agreement at the end of a collective call (integrity
/// on only): reduce a pending unrecoverable-corruption word over the
/// communicator the call synchronized, and return the agreed word (0: no
/// error). A call partitioned into subgroups agrees within its subgroup on
/// the errors that overlap its members' extents, so no subgroup waits on
/// another or throws another's error; any other call agrees over the file
/// communicator on the file's highest-priority error. Errors a call does
/// not see surface at close, which agrees file-wide. With integrity off
/// this never reduces, so the default path stays free of the extra
/// reduction.
std::uint64_t agree_on_errors(mpiio::FileHandle& file,
                              const CollectiveOutcome& outcome,
                              const mpiio::PreparedRequest& prep) {
  auto* integ = file.self().world().integrity();
  if (integ == nullptr) {
    return 0;
  }
  const bool subgroup = outcome.comm != file.comm();
  const std::uint64_t word = mpi::allreduce_max(
      file.self(), outcome.comm,
      subgroup ? integ->pending_word(file.fs_id(), prep.extents)
               : integ->pending_word(file.fs_id()));
  if (auto* checker = file.self().world().checker()) {
    checker->on_error_agreement(file.self().rank(),
                                outcome.comm.context_id(),
                                outcome.comm.size(), word);
  }
  return word;
}

/// write_at_all / read_at_all: the lifecycle around the collective
/// engine. The engine's targets go through the staging store, so the hooks
/// flush nothing; reads verify before any aggregator serves the bytes.
CollectiveOutcome collective_call(mpiio::FileHandle& file, bool is_write,
                                  std::uint64_t offset, const void* buffer,
                                  std::uint64_t count,
                                  const dtype::Datatype& memtype) {
  mpi::SpanGuard call_span(file.self(), obs::SpanKind::Call,
                           is_write ? "write_at_all" : "read_at_all");
  mpiio::IoCall call =
      file.begin_call(is_write, mpiio::FileHandle::Route::Staged, offset,
                      buffer, count, memtype);
  const CollectiveOutcome outcome =
      run_collective_engine(file.self(), file.common(), file.comm(),
                            call.request, is_write, &file.engine_cache());
  const std::uint64_t error = agree_on_errors(file, outcome, call.request);
  end_subgroup_scope(file.self(), file.comm(), outcome);
  // A call ending in the agreed error still moved its bytes and spent its
  // time, so it is counted; only a read's buffer is not delivered.
  file.end_call(call, collective_counts(file, outcome, is_write),
                /*deliver=*/error == 0);
  if (error != 0) {
    throw file.self().world().integrity()->error_of(error);
  }
  return outcome;
}
}  // namespace

CollectiveOutcome write_at_all(mpiio::FileHandle& file, std::uint64_t offset,
                               const void* buffer, std::uint64_t count,
                               const dtype::Datatype& memtype) {
  return collective_call(file, true, offset, buffer, count, memtype);
}

CollectiveOutcome read_at_all(mpiio::FileHandle& file, std::uint64_t offset,
                              void* buffer, std::uint64_t count,
                              const dtype::Datatype& memtype) {
  return collective_call(file, false, offset, buffer, count, memtype);
}

CollectiveOutcome write_all(mpiio::FileHandle& file, const void* buffer,
                            std::uint64_t count,
                            const dtype::Datatype& memtype) {
  const auto outcome =
      write_at_all(file, file.position(), buffer, count, memtype);
  file.advance_bytes(count * memtype.size());
  return outcome;
}

CollectiveOutcome read_all(mpiio::FileHandle& file, void* buffer,
                           std::uint64_t count, const dtype::Datatype& memtype) {
  const auto outcome =
      read_at_all(file, file.position(), buffer, count, memtype);
  file.advance_bytes(count * memtype.size());
  return outcome;
}

ParcollDecision plan_decision(mpiio::FileHandle& file, std::uint64_t offset,
                              std::uint64_t count,
                              const dtype::Datatype& memtype) {
  mpiio::PreparedRequest prep;
  prep.bytes = count * memtype.size();
  prep.extents = file.view().map(offset, prep.bytes);
  const auto partition = gather_partition(file.self(), file.comm(),
                                          file.hints(), prep, nullptr);
  ParcollDecision decision;
  decision.mode = partition->fa.mode;
  decision.num_groups = partition->fa.num_groups;
  decision.aggregators_per_group = partition->aggs_per_group;
  return decision;
}

}  // namespace parcoll::core
