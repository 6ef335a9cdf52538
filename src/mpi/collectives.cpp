#include "mpi/collectives.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <optional>
#include <string_view>
#include <tuple>

#include "check/invariants.hpp"
#include "mpi/runtime.hpp"
#include "mpi/trace.hpp"
#include "obs/metrics.hpp"
#include "sim/random.hpp"

namespace parcoll::mpi {

namespace {
int ceil_log2(int n) {
  if (n <= 1) return 0;
  return std::bit_width(static_cast<unsigned>(n - 1));
}

/// Order-sensitive digest of a communicator's member list, for the
/// collective-match invariant (two comms with the same context id must
/// also agree on membership).
std::uint64_t members_hash(const Comm& comm) {
  std::uint64_t h = comm.context_id();
  for (int member : comm.members()) {
    h = sim::hash_combine(h, static_cast<std::uint64_t>(member));
  }
  return h;
}

}  // namespace

const char* to_string(CollKind kind) {
  switch (kind) {
    case CollKind::Barrier:   return "barrier";
    case CollKind::Bcast:     return "bcast";
    case CollKind::Gather:    return "gather";
    case CollKind::Allgather: return "allgather";
    case CollKind::Alltoall:  return "alltoall";
    case CollKind::Allreduce: return "allreduce";
  }
  return "?";
}

double coll_cost(const machine::NetworkParams& net, CollKind kind, int nranks,
                 std::uint64_t max_contrib, std::uint64_t total) {
  if (nranks <= 1) return 0.0;
  const double hops = static_cast<double>(ceil_log2(nranks));
  const double lat = net.coll_latency;
  const double bw = net.coll_bandwidth;
  switch (kind) {
    case CollKind::Barrier:
      return 2.0 * hops * lat;
    case CollKind::Bcast:
      return hops * lat + static_cast<double>(total) / bw;
    case CollKind::Gather:
      return hops * lat + static_cast<double>(total) / bw;
    case CollKind::Allgather:
      return hops * lat +
             static_cast<double>(total) * (nranks - 1) / nranks / bw;
    case CollKind::Alltoall:
      // The linear-in-P personalized exchange: each rank handles a message
      // (or its overhead) for every peer, plus moving its contribution.
      return static_cast<double>(nranks) * net.alltoall_per_peer +
             static_cast<double>(nranks) * nranks * net.alltoall_congestion +
             static_cast<double>(max_contrib) * (nranks - 1) / nranks / bw;
    case CollKind::Allreduce:
      return 2.0 * hops * lat +
             2.0 * static_cast<double>(max_contrib) / bw;
  }
  return 0.0;
}

CollEngine::CollEngine(sim::Engine& engine, const machine::NetworkParams& net)
    : engine_(engine), net_(net) {}

std::uint64_t CollEngine::derive_context(std::uint64_t parent_ctx,
                                         std::uint64_t seq, int color) const {
  return sim::hash_combine(sim::hash_combine(parent_ctx, seq),
                           static_cast<std::uint64_t>(color) + 0x1234567ull);
}

CollGathered::CollGathered(CollContribs all) {
  std::size_t total = 0;
  for (const auto& part : all) total += part.size();
  bytes_.reserve(total);
  parts_.reserve(all.size());
  for (const auto& part : all) {
    const std::size_t at = bytes_.size();
    bytes_.insert(bytes_.end(), part.begin(), part.end());
    parts_.emplace_back(bytes_.data() + at, part.size());
  }
}

std::shared_ptr<const void> CollEngine::exchange(
    Rank& self, const Comm& comm, CollKind kind,
    std::span<const std::byte> contribution, const CollBuild* build,
    std::uint64_t charge_as) {
  const int me = comm.local_rank(self.rank());
  if (me < 0) {
    throw std::logic_error("collective: caller is not in the communicator");
  }
  const std::uint64_t seq = self.next_coll_seq(comm.context_id());

  if (auto* checker = self.world().checker()) {
    // Report before the kind-match throw below, so a mismatch is recorded
    // as a structured violation even though the run then aborts.
    checker->on_collective(self.rank(), comm.context_id(), seq,
                           static_cast<int>(kind), comm.size(),
                           members_hash(comm));
  }

  Op*& open = open_[comm.context_id()];
  Op* op = open;
  while (op != nullptr && op->seq != seq) op = op->next;
  Op mine;  // the op itself, when I am the first to arrive
  if (op == nullptr) {
    mine.seq = seq;
    mine.kind = kind;
    mine.next = open;
    open = op = &mine;
  }
  if (op->kind != kind) {
    throw std::logic_error("collective: mismatched collective kinds at the "
                           "same sequence point (program error); schedule=" +
                           engine_.schedule_token());
  }
  if (op->build == nullptr) op->build = build;
  Arrival arrival;
  arrival.local = me;
  arrival.contribution = contribution;
  arrival.pid = self.pid();
  arrival.time = engine_.now();
  (op->first == nullptr ? op->first : op->last->next) = &arrival;
  op->last = &arrival;
  op->max_arrival = std::max(op->max_arrival, arrival.time);

  if (++op->arrived < comm.size()) {
    // Not everyone is here: block until the last arriver releases us.
    engine_.suspend("collective");
    // Woken at the completion time, with the result handed over.
  } else {
    // Last arriver: close the op, compute the cost, build the result and
    // hand it to everyone, then release them.
    Op** link = &open_[comm.context_id()];
    while (*link != op) link = &(*link)->next;
    *link = op->next;
    std::uint64_t max_contrib = charge_as;
    std::uint64_t total =
        charge_as * static_cast<std::uint64_t>(comm.size());
    if (charge_as == 0) {
      for (const Arrival* a = op->first; a != nullptr; a = a->next) {
        max_contrib =
            std::max<std::uint64_t>(max_contrib, a->contribution.size());
        total += a->contribution.size();
      }
    }
    const double completion =
        op->max_arrival +
        coll_cost(net_, kind, comm.size(), max_contrib, total);
    std::shared_ptr<const void> result;
    if (op->build != nullptr) {
      ordered_.resize(static_cast<std::size_t>(comm.size()));
      for (const Arrival* a = op->first; a != nullptr; a = a->next) {
        ordered_[static_cast<std::size_t>(a->local)] = a->contribution;
      }
      result = (*op->build)(ordered_);
    }
    for (Arrival* a = op->first; a != nullptr; a = a->next) {
      a->result = result;
      a->max_arrival = op->max_arrival;
      if (a != &arrival) engine_.wake_at(completion, a->pid);
    }
    engine_.sleep_until(completion);
  }

  // Running again at the completion time: charge the synchronization wait.
  const double sync_wait = engine_.now() - arrival.time;
  self.times().add(TimeCat::Sync, sync_wait);

  if (auto* metrics = self.world().metrics()) {
    metrics->quantile("mpi.coll.sync_wait_s").observe(sync_wait);
    // How far behind the last arriver this rank showed up: the straggler
    // itself observes lag 0, everyone it kept waiting observes its slack.
    metrics->quantile("mpi.coll.straggler_lag_s")
        .observe(arrival.max_arrival - arrival.time);
    static constexpr std::string_view kCalls[] = {
        "mpi.coll.calls.barrier",   "mpi.coll.calls.bcast",
        "mpi.coll.calls.gather",    "mpi.coll.calls.allgather",
        "mpi.coll.calls.alltoall",  "mpi.coll.calls.allreduce"};
    ++metrics->counter(kCalls[static_cast<std::size_t>(kind)]);
  }
  return std::move(arrival.result);
}

void barrier(Rank& self, const Comm& comm) {
  coll_exchange(self, comm, CollKind::Barrier, {});
}

std::shared_ptr<const void> coll_exchange(Rank& self, const Comm& comm,
                                          CollKind kind,
                                          std::span<const std::byte> contribution,
                                          const CollBuild* build,
                                          std::uint64_t charge_as) {
  self.maybe_fault_stall();
  // A standalone collective (one issued outside any collective-I/O call,
  // e.g. a workload-level barrier) opens its own Call span so its sync
  // time stays attributable in the wall report. Inside a call, the
  // enclosing cycle/stage spans already label the wait.
  std::optional<SpanGuard> call_span;
  if (Tracer* tracer = self.world().tracer();
      tracer != nullptr && !tracer->spans().in_call(self.pid())) {
    call_span.emplace(self, obs::SpanKind::Call, to_string(kind));
  }
  return self.world().colls().exchange(self, comm, kind, contribution, build,
                                      charge_as);
}

int coll_local_rank(Rank& self, const Comm& comm) {
  const int local = comm.local_rank(self.rank());
  if (local < 0) {
    throw std::logic_error("collective: caller is not in the communicator");
  }
  return local;
}

Comm comm_split(Rank& self, const Comm& comm, int color, int key) {
  struct Entry {
    int color;
    int key;
    int world;
  };
  // Derived context ids hash the split's own sequence number, which every
  // member reads before the exchange takes it.
  const std::uint64_t seq = self.coll_seq(comm.context_id());
  const CollEngine& colls = self.world().colls();
  // The last arriver builds every color's communicator once, so the
  // members of one color share one state; building per caller would cost
  // an O(P) scan per rank plus an O(group) private member table per
  // member, quadratic on wide communicators.
  const Entry mine{color, key, self.rank()};
  const auto by_color = coll_build<std::map<int, Comm>>(
      self, comm, CollKind::Allgather, detail::bytes_of(mine),
      [&](CollContribs all) {
        std::map<int, std::vector<Entry>> groups;
        for (const auto& bytes : all) {
          const Entry entry = detail::scalar_from<Entry>(bytes);
          groups[entry.color].push_back(entry);
        }
        std::map<int, Comm> comms;
        for (auto& [group_color, group] : groups) {
          std::sort(group.begin(), group.end(),
                    [](const Entry& a, const Entry& b) {
                      return std::tie(a.key, a.world) <
                             std::tie(b.key, b.world);
                    });
          std::vector<int> members;
          members.reserve(group.size());
          for (const Entry& entry : group) {
            members.push_back(entry.world);
          }
          comms.emplace(group_color,
                        Comm(colls.derive_context(comm.context_id(), seq,
                                                  group_color),
                             std::move(members)));
        }
        return comms;
      });
  return by_color->at(color);
}

}  // namespace parcoll::mpi
