#include "core/parcoll.hpp"

#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>

#include "bb/staging.hpp"
#include "bb/target.hpp"
#include "check/invariants.hpp"
#include "core/intermediate_view.hpp"
#include "core/subgroup.hpp"
#include "fs/integrity.hpp"
#include "mpi/collectives.hpp"
#include "mpi/trace.hpp"
#include "mpiio/ext2ph.hpp"
#include "obs/metrics.hpp"
#include "mpiio/sieve.hpp"
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

/// The two-level structure of `comm`, or nullopt for the flat protocol:
/// the cb_intranode hint must be on (or auto) and some node must host >= 2
/// members, so one-process-per-node machines never change structure.
std::optional<node::NodeComm> two_level_nodes(mpi::Rank& self,
                                              const mpi::Comm& comm,
                                              const mpiio::Hints& hints) {
  if (hints.cb_intranode == node::IntranodeMode::Off) {
    return std::nullopt;
  }
  node::NodeComm nodes = node::make_node_comm(
      self, comm, self.world().model().topology, hints.cb_intranode_leader);
  if (!nodes.multi()) {
    return std::nullopt;
  }
  return nodes;
}

/// Run one two-phase exchange over `comm`, either flat or — when
/// two_level_nodes says so and Auto's gate agrees — staged two-level:
/// requests aggregate within each node first and only the node leaders
/// join the inter-node ext2ph. `options.aggregators` is comm-local on
/// entry; under two-level staging it is mapped onto the leaders of the
/// nodes hosting those ranks, so ParColl's aggregator distribution (and
/// any fault re-election) carries through to the leader stage.
void run_two_phase(mpi::Rank& self, const mpi::Comm& comm,
                   const mpiio::Hints& hints, mpiio::IoTarget& target,
                   const mpiio::CollRequest& request,
                   mpiio::Ext2phOptions options, bool is_write,
                   CollectiveOutcome& outcome) {
  std::optional<node::NodeComm> nodes;
  if (hints.cb_intranode != node::IntranodeMode::Off) {
    // The decision depends only on the communicator, the roster and the
    // hints, which every member shares, so one member maps the roster to
    // node leaders per call and all of them read the result (null: flat).
    const auto leader_aggs = mpi::shared_once<mpiio::Roster>(
        self, comm, [&]() -> mpiio::Roster {
          const auto view = two_level_nodes(self, comm, hints);
          if (!view) return nullptr;
          auto leaders = view->layout->to_leader_locals(*options.aggregators);
          // Auto's cost gate: staging funnels all file traffic through the
          // node leaders, so a roster with several aggregators on one node
          // (e.g. the Catamount every-process default) would lose I/O
          // parallelism to buy the coordination win. Auto declines then;
          // On trusts the user.
          if (hints.cb_intranode == node::IntranodeMode::Auto &&
              leaders.size() != options.aggregators->size()) {
            return nullptr;
          }
          return mpiio::make_roster(std::move(leaders));
        });
    if (*leader_aggs) {
      nodes = node::make_node_comm(self, comm, self.world().model().topology,
                                   hints.cb_intranode_leader);
      options.aggregators = *leader_aggs;
    }
  }
  outcome.two_level = nodes.has_value();
  const mpiio::Ext2phOutcome result =
      nodes ? node::two_level(self, *nodes, target, request, options, is_write)
            : mpiio::ext2ph(self, comm, target, request, options, is_write);
  outcome.cycles = result.cycles;
  outcome.rmw_reads = result.rmw_reads;
  outcome.intra_bytes = result.intra_bytes;
}

}  // namespace

/// Everything write and read share: plan (or reuse) the partition, build
/// the target, and run ext2ph in the right space. Handle-independent: the
/// cache slot may be null (no partition reuse), which is how split
/// collectives' helper fibers call it.
CollectiveOutcome run_collective_engine(mpi::Rank& self, const mpi::Comm& comm,
                                        const mpiio::Hints& hints, int fs_id,
                                        bb::StagingStore* bb_store,
                                        mpiio::PreparedRequest& prep,
                                        bool is_write,
                                        std::shared_ptr<void>* cache_slot) {
  auto& fs = self.world().fs();

  // Burst-buffer staging: with bb=enable every write target below becomes
  // a BbTarget, so aggregator writes land in the per-node staging store
  // and drain to Lustre in the background. The foreground guard tells the
  // arbitrate drain policy that ranks are inside a collective call.
  bb::ForegroundGuard foreground(bb_store);

  mpiio::Ext2phOptions options;
  options.cb_buffer_size = hints.cb_buffer_size;
  if (hints.cb_fd_align) {
    options.fd_alignment = fs.meta(fs_id).stripe_size;
  }

  CollectiveOutcome outcome;
  outcome.bytes = prep.bytes;
  outcome.comm = comm;
  bb::BbTarget physical(fs, fs_id, bb_store);

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
    mpiio::sieve_serve(self, physical, fs_id, prep, is_write);
    return outcome;
  }

  const ParcollSettings settings = ParcollSettings::from(hints);
  if (!settings.enabled()) {
    // Plain extended two-phase over the whole group (the baseline). The
    // default roster is a function of the communicator and the hints, so
    // one member builds it per call and every member shares it (by default
    // every process aggregates: P private copies would be quadratic).
    options.aggregators = mpi::shared_once<std::vector<int>>(self, comm, [&] {
      return mpiio::default_aggregators(self.world().model().topology, comm,
                                        hints);
    });
    run_two_phase(self, comm, hints, physical, {prep.extents, prep.data()},
                  options, is_write, outcome);
    return outcome;
  }

  // Establish (or reuse) the partition: the first ParColl call after a view
  // is set caches it on the handle, so later calls on the same view go
  // straight to their subgroup and subgroups drift independently through
  // time. Only the establishing call pays a global exchange.
  std::shared_ptr<SubgroupPlan> cached;
  if (cache_slot != nullptr) {
    cached = std::static_pointer_cast<SubgroupPlan>(*cache_slot);
  }
  if (!cached || !hints.parcoll_persistent_groups) {
    // The pattern-detection allgather is the one remaining global exchange;
    // under two-level staging it funnels through the node leaders, so the
    // inter-node stage involves num_nodes participants instead of P.
    mpi::SpanGuard partition_span(self, obs::SpanKind::Stage, "partition");
    const auto nodes = two_level_nodes(self, comm, hints);
    const auto accesses =
        nodes ? std::make_shared<const std::vector<RankAccess>>(
                    node::hier_allgather(self, *nodes, access_of(prep)))
              : mpi::allgather_shared(self, comm, access_of(prep));
    cached = std::make_shared<SubgroupPlan>(
        form_subgroups(self, comm, accesses, hints));
    if (cached->fa().mode == PartitionMode::Direct) {
      // Establishing-call invariant: my extents lie in my File Area (the
      // partition was built from clean split points).
      const auto [fa_lo, fa_hi] =
          cached->fa().areas[static_cast<std::size_t>(cached->my_group)];
      if (!prep.extents.empty() &&
          (prep.extents.front().offset < fa_lo ||
           prep.extents.back().end() > fa_hi)) {
        throw std::logic_error("parcoll: request escapes its File Area");
      }
    }
    if (cache_slot != nullptr) {
      *cache_slot = cached;
    }
    if (auto* checker = self.world().checker()) {
      checker->on_partition(self.rank(), comm.context_id(), comm.size(),
                            plan_hash(*cached));
    }
  }
  const SubgroupPlan& plan = *cached;
  outcome.partitioned = true;
  outcome.mode = plan.fa().mode;
  outcome.num_groups = plan.fa().num_groups;
  outcome.comm = plan.subcomm;
  if (auto* checker = self.world().checker();
      checker != nullptr && plan.subcomm != comm) {
    checker->on_partitioned_call_begin(self.rank(), comm.context_id());
  }
  // Aliases the cached plan: no per-call copy of the roster.
  options.aggregators = mpiio::Roster(cached, &plan.sub_aggregators);
  // Everything from here runs subgroup-local; the span labels descendants
  // (re-election, exchange cycles, I/O) with this rank's subgroup.
  mpi::SpanGuard subgroup_span(self, obs::SpanKind::Subgroup, "subgroup",
                               plan.my_group);

  // Degraded mode: when the fault plan schedules rank stalls, the subgroup
  // agrees on a common time (a max-reduction over its members' clocks) and
  // replaces any aggregator stalled past the threshold for this call. The
  // cached roster is never mutated: a recovered aggregator is reinstated
  // on the next call. Gated on has_rank_stalls() so the extra reduction
  // cannot perturb fault-free timing.
  const fault::FaultPlan* fplan = self.world().fault_plan();
  if (fplan != nullptr && fplan->has_rank_stalls()) {
    mpi::SpanGuard reelect_span(self, obs::SpanKind::Stage, "reelect");
    const auto nodes = two_level_nodes(self, plan.subcomm, hints);
    const double agreed =
        nodes ? node::hier_allreduce_max(self, *nodes, self.now())
              : mpi::allreduce_max(self, plan.subcomm, self.now());
    int replaced = 0;
    options.aggregators = mpiio::make_roster(reelect_stalled_aggregators(
        plan.subcomm, plan.sub_aggregators, *fplan, agreed, &replaced));
    if (auto* checker = self.world().checker()) {
      checker->on_reelection(self.rank(), plan.subcomm.context_id(),
                             plan.subcomm.size(),
                             roster_hash(agreed, *options.aggregators));
    }
    if (replaced > 0 && plan.subcomm.local_rank(self.rank()) == 0) {
      self.world().fault_state().of(self.rank()).reelections +=
          static_cast<std::uint64_t>(replaced);
    }
  }

  if (plan.fa().mode != PartitionMode::Intermediate) {
    // SingleGroup (whose subcomm is the whole comm) and Direct run in file
    // space.
    run_two_phase(self, plan.subcomm, hints, physical,
                  {prep.extents, prep.data()}, options, is_write, outcome);
  } else {
    // Intermediate view (pattern c). Share the members' physical extents
    // within the subgroup so aggregators can resolve intermediate ranges.
    // The intermediate coordinate space is subgroup-local (each group's
    // space starts at 0): groups touch disjoint physical segments, so their
    // spaces are independent and no global exchange is needed per call.
    // The exchange is an allgatherv's; its last arriver builds the map.
    const auto map = mpi::coll_build<IntermediateMap>(
        self, plan.subcomm, mpi::CollKind::Allgather,
        mpi::detail::bytes_of(prep.extents),
        [](mpi::CollContribs all) {
          std::vector<MemberSegments> members;
          members.reserve(all.size());
          std::uint64_t inter_pos = 0;
          for (const auto& contribution : all) {
            MemberSegments member;
            member.inter_start = inter_pos;
            member.extents =
                mpi::detail::vector_from<fs::Extent>(contribution);
            for (const fs::Extent& extent : member.extents) {
              inter_pos += extent.length;
            }
            members.push_back(std::move(member));
          }
          return IntermediateMap(std::move(members));
        });
    IntermediateTarget target(physical, map);
    const auto sub_me =
        static_cast<std::size_t>(plan.subcomm.local_rank(self.rank()));
    const fs::Extent inter{map->inter_start(sub_me), prep.bytes};
    const mpiio::CollRequest request{
        std::span(&inter, prep.bytes > 0 ? 1 : 0), prep.data()};
    run_two_phase(self, plan.subcomm, hints, target, request, options,
                  is_write, outcome);
  }

  // Per-subgroup call/cycle counters, recorded once per call by the
  // subgroup's first rank (mirrors the FileStats call-level convention).
  auto* metrics = self.world().metrics();
  if (metrics != nullptr && plan.subcomm.local_rank(self.rank()) == 0) {
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
  const CollectiveOutcome outcome = run_collective_engine(
      file.self(), file.comm(), file.hints(), file.fs_id(), file.bb_store(),
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
  auto& self = file.self();
  const mpi::Comm& comm = file.comm();
  mpiio::PreparedRequest prep;
  prep.bytes = count * memtype.size();
  prep.extents = file.view().map(offset, prep.bytes);
  const auto accesses = mpi::allgather_shared(self, comm, access_of(prep));
  const SubgroupPlan plan = form_subgroups(self, comm, accesses, file.hints());
  ParcollDecision decision;
  decision.mode = plan.fa().mode;
  decision.num_groups = plan.fa().num_groups;
  decision.aggregators_per_group = plan.aggs_per_group();
  return decision;
}

}  // namespace parcoll::core
