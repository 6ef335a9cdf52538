// Collective operations: semantic and costed.
//
// Each collective really moves the participants' data (so offsets lists,
// sizes, etc. are exchanged for real), and it really synchronizes: the
// operation completes at max(arrival times) + cost(kind, P, bytes). Each
// rank charges (completion - its own arrival) to TimeCat::Sync — this is
// the quantity whose growth with P the paper names the collective wall.
//
// Cost model (NetworkParams): latency terms follow the usual binomial-tree
// log2(P) shapes; alltoall carries a linear-in-P per-peer term, which is the
// dominant contributor in the two-phase protocol's per-cycle metadata
// exchange.
//
// Implementation note: every collective is one rendezvous,
// CollEngine::exchange. A contribution is a view of the caller's own bytes,
// read while the caller waits, so nothing is copied to arrive; the last
// arriver builds the one result every member receives, and the typed
// wrappers below read their part of it (data routing fidelity does not
// affect timing: costs are per-kind). A value shared by several ranks has
// one of two homes, by its lifetime:
//  - made in a collective call: that collective's build (coll_build), run
//    once by the last arriver over every contribution in local-rank order;
//    any member may pass it (a root alone, to publish an object it holds),
//    and every member receives the one immutable result;
//  - fixed for a communicator or an open file: World::shared_object.
// So no rank scans all P contributions or holds a private P-sized copy.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "machine/machine_model.hpp"
#include "mpi/comm.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"

namespace parcoll::mpi {

class Rank;

enum class CollKind {
  Barrier,
  Bcast,
  Gather,     // rootward concatenation
  Allgather,  // includes allgatherv-shaped exchanges
  Alltoall,
  Allreduce,
};

[[nodiscard]] const char* to_string(CollKind kind);

/// Completion cost of a collective over P ranks once everyone has arrived.
/// `max_contrib` is the largest single contribution; `total` the sum.
[[nodiscard]] double coll_cost(const machine::NetworkParams& net,
                               CollKind kind, int nranks,
                               std::uint64_t max_contrib, std::uint64_t total);

/// Every member's contribution to one collective, in local-rank order:
/// views of the members' own bytes, valid while the build runs.
using CollContribs = std::span<const std::span<const std::byte>>;

/// A collective's build step: makes, from every member's contribution in
/// local-rank order, the one value every member receives.
using CollBuild = std::function<std::shared_ptr<const void>(CollContribs)>;

/// Every member's contribution, copied once into one buffer: what a
/// collective without a build of its own (coll_run) hands each member.
class CollGathered {
 public:
  explicit CollGathered(CollContribs all);
  [[nodiscard]] std::size_t size() const { return parts_.size(); }
  [[nodiscard]] std::span<const std::byte> operator[](std::size_t i) const {
    return parts_[i];
  }
  [[nodiscard]] auto begin() const { return parts_.begin(); }
  [[nodiscard]] auto end() const { return parts_.end(); }

 private:
  std::vector<std::byte> bytes_;
  std::vector<std::span<const std::byte>> parts_;
};

/// A member's slice of one shared collective result. It keeps the whole
/// result alive, so a rank reads its part where the build left it.
template <typename T>
class SharedSpan {
 public:
  SharedSpan() = default;
  SharedSpan(std::shared_ptr<const void> owner, std::span<const T> items)
      : owner_(std::move(owner)), items_(items) {}
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] const T& operator[](std::size_t i) const { return items_[i]; }
  [[nodiscard]] auto begin() const { return items_.begin(); }
  [[nodiscard]] auto end() const { return items_.end(); }

 private:
  std::shared_ptr<const void> owner_;
  std::span<const T> items_;
};

class CollEngine {
 public:
  CollEngine(sim::Engine& engine, const machine::NetworkParams& net);

  /// Core rendezvous: block until all members of `comm` have contributed,
  /// then return the call's one shared result. Charges Sync time. The
  /// contribution is read in place, so it must stay untouched until the
  /// call returns. Any member may pass a `build`, and all that pass one
  /// pass the same build: the last arriver runs the first one passed, once,
  /// over every contribution, and every member receives what it made; with
  /// none the result is null. A nonzero `charge_as` bills the call as if
  /// every member had contributed that many bytes (a sparse exchange
  /// charged as its dense form, or a reduction whose values nobody reads).
  std::shared_ptr<const void> exchange(Rank& self, const Comm& comm,
                                       CollKind kind,
                                       std::span<const std::byte> contribution,
                                       const CollBuild* build = nullptr,
                                       std::uint64_t charge_as = 0);

  /// Allocate a context id for a derived communicator. Must be called in
  /// the same order by all ranks that use the result (comm_split does).
  std::uint64_t derive_context(std::uint64_t parent_ctx, std::uint64_t seq,
                               int color) const;

 private:
  /// One member inside a rendezvous. It lives in that member's frame
  /// while the member waits; the last arriver hands it the result.
  struct Arrival {
    int local = 0;
    std::span<const std::byte> contribution;
    sim::ProcId pid = sim::kNoProc;
    double time = 0.0;
    Arrival* next = nullptr;  // the next member to arrive
    std::shared_ptr<const void> result;
    double max_arrival = 0.0;
  };
  /// An open rendezvous. It lives in its first arriver's frame, which
  /// stays suspended until the last member arrives and closes it.
  struct Op {
    std::uint64_t seq = 0;
    CollKind kind = CollKind::Barrier;
    const CollBuild* build = nullptr;  // the first one a member passed
    int arrived = 0;
    double max_arrival = 0.0;
    Arrival* first = nullptr;  // in arrival order
    Arrival* last = nullptr;
    Op* next = nullptr;  // another open op on the same context
  };

  sim::Engine& engine_;
  const machine::NetworkParams& net_;
  /// The open ops of each context id. A context's entry stays once made,
  /// so opening an op on it allocates nothing.
  std::unordered_map<std::uint64_t, Op*> open_;
  /// Every contribution in local-rank order, laid out by the last arriver
  /// for the build it runs (which never yields).
  std::vector<std::span<const std::byte>> ordered_;
  /// The per-call instruments of the World's registry.
  obs::QuantileHandle sync_wait_{"mpi.coll.sync_wait_s"};
  obs::QuantileHandle straggler_lag_{"mpi.coll.straggler_lag_s"};
  std::array<obs::CounterHandle, 6> calls_{
      obs::CounterHandle{"mpi.coll.calls.barrier"},
      obs::CounterHandle{"mpi.coll.calls.bcast"},
      obs::CounterHandle{"mpi.coll.calls.gather"},
      obs::CounterHandle{"mpi.coll.calls.allgather"},
      obs::CounterHandle{"mpi.coll.calls.alltoall"},
      obs::CounterHandle{"mpi.coll.calls.allreduce"}};
};

// --- Typed wrappers -------------------------------------------------------

namespace detail {
/// A view of `value`'s bytes: a contribution read in place.
template <typename T>
std::span<const std::byte> bytes_of(const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  return std::as_bytes(std::span<const T>(&value, 1));
}
template <typename T>
std::span<const std::byte> bytes_of(std::span<const T> values) {
  static_assert(std::is_trivially_copyable_v<T>);
  return std::as_bytes(values);
}
template <typename T>
std::span<const std::byte> bytes_of(const std::vector<T>& values) {
  return bytes_of(std::span<const T>(values));
}
template <typename T>
T scalar_from(std::span<const std::byte> bytes) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (bytes.size() != sizeof(T)) {
    throw std::logic_error("collective: contribution size mismatch");
  }
  T value;
  std::memcpy(&value, bytes.data(), sizeof(T));
  return value;
}
template <typename T>
std::vector<T> vector_from(std::span<const std::byte> bytes) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (bytes.size() % sizeof(T) != 0) {
    throw std::logic_error("collective: contribution not a whole number of T");
  }
  std::vector<T> values(bytes.size() / sizeof(T));
  if (!values.empty()) {
    std::memcpy(values.data(), bytes.data(), bytes.size());
  }
  return values;
}
}  // namespace detail

void barrier(Rank& self, const Comm& comm);

/// Everyone receives root's value.
template <typename T>
T bcast(Rank& self, const Comm& comm, int root, const T& value);

/// `send` has one element per rank; result[j] = what rank j sent to me.
template <typename T>
std::vector<T> alltoall(Rank& self, const Comm& comm,
                        const std::vector<T>& send);

/// One entry of a sparse personalized exchange: a peer (local rank) and
/// the value sent to it, or received from it.
template <typename T>
struct PeerValue {
  int peer = 0;
  T value{};
};

/// Sparse alltoall: `send` lists (destination, value) pairs, strictly
/// ascending by destination; the result lists (source, value) for every
/// rank that named me, ascending by source: my slice of the inboxes the
/// last arriver lays out once. It runs and is charged as the dense
/// alltoall of P-entry vectors of T (same kind, completion time and Sync
/// charges); only what each rank materializes scales with the peers it
/// touches instead of with P.
template <typename T>
SharedSpan<PeerValue<T>> sparse_alltoall(Rank& self, const Comm& comm,
                                         std::span<const PeerValue<T>> send);
template <typename T>
SharedSpan<PeerValue<T>> sparse_alltoall(
    Rank& self, const Comm& comm, const std::vector<PeerValue<T>>& send) {
  return sparse_alltoall<T>(self, comm, std::span<const PeerValue<T>>(send));
}

/// Element-wise reduction of everyone's value with `op`.
template <typename T, typename BinaryOp>
T allreduce(Rank& self, const Comm& comm, const T& value, BinaryOp op);

template <typename T>
T allreduce_sum(Rank& self, const Comm& comm, const T& value);
template <typename T>
T allreduce_max(Rank& self, const Comm& comm, const T& value);

/// Root receives [rank0's value, ...]; others get an empty vector.
template <typename T>
std::vector<T> gather(Rank& self, const Comm& comm, int root, const T& value);

/// Split `comm` by color; members with the same color form a new
/// communicator ordered by (key, world rank). Collective over `comm`.
Comm comm_split(Rank& self, const Comm& comm, int color, int key);

// --- template definitions -------------------------------------------------

/// The front end to CollEngine::exchange (fault stalls, the standalone
/// call span); the typed front ends below go through it.
std::shared_ptr<const void> coll_exchange(Rank& self, const Comm& comm,
                                          CollKind kind,
                                          std::span<const std::byte> contribution,
                                          const CollBuild* build = nullptr,
                                          std::uint64_t charge_as = 0);
int coll_local_rank(Rank& self, const Comm& comm);

/// A collective with a build, passed by every member: the last arriver
/// runs `build(contribs)` once, over every contribution in local-rank
/// order, and every member receives the same immutable R. `charge_as` as
/// in CollEngine::exchange.
template <typename R, typename Build>
std::shared_ptr<const R> coll_build(Rank& self, const Comm& comm,
                                    CollKind kind,
                                    std::span<const std::byte> contribution,
                                    Build&& build,
                                    std::uint64_t charge_as = 0) {
  const CollBuild erased =
      [&build](CollContribs all) -> std::shared_ptr<const void> {
    return std::make_shared<const R>(build(all));
  };
  return std::static_pointer_cast<const R>(
      coll_exchange(self, comm, kind, contribution, &erased, charge_as));
}

/// A collective whose every member receives all contributions, copied
/// once by the last arriver.
inline std::shared_ptr<const CollGathered> coll_run(
    Rank& self, const Comm& comm, CollKind kind,
    std::span<const std::byte> contribution) {
  return coll_build<CollGathered>(
      self, comm, kind, contribution,
      [](CollContribs all) { return CollGathered(all); });
}

/// A collective whose one result is `object`: the members that hold it
/// pass it (a root alone, typically) and the rest pass null, and every
/// member receives it. The call is charged as `kind` over the
/// contributions, which nobody reads.
template <typename R>
std::shared_ptr<const R> coll_publish(Rank& self, const Comm& comm,
                                      CollKind kind,
                                      std::span<const std::byte> contribution,
                                      const std::shared_ptr<const R>& object) {
  const CollBuild publish =
      [&object](CollContribs) -> std::shared_ptr<const void> {
    return object;
  };
  return std::static_pointer_cast<const R>(coll_exchange(
      self, comm, kind, contribution, object != nullptr ? &publish : nullptr));
}

/// An allgather whose last arriver runs `build(values)` once, over every
/// member's value in local-rank order (a `const std::vector<T>&`), and
/// every member receives the same immutable R. The exchange and its cost
/// are allgather's; no member holds the P values.
template <typename R, typename T, typename Build>
std::shared_ptr<const R> allgather_build(Rank& self, const Comm& comm,
                                         const T& value, Build&& build) {
  return coll_build<R>(self, comm, CollKind::Allgather,
                       detail::bytes_of(value), [&build](CollContribs all) {
                         std::vector<T> values;
                         values.reserve(all.size());
                         for (const auto& contribution : all) {
                           values.push_back(
                               detail::scalar_from<T>(contribution));
                         }
                         return build(std::as_const(values));
                       });
}

/// allgather_build's identity case: every member receives the one shared
/// vector of every member's value.
template <typename T>
std::shared_ptr<const std::vector<T>> allgather_shared(Rank& self,
                                                       const Comm& comm,
                                                       const T& value) {
  return allgather_build<std::vector<T>>(
      self, comm, value, [](const std::vector<T>& values) { return values; });
}

template <typename T>
T bcast(Rank& self, const Comm& comm, int root, const T& value) {
  const bool is_root = coll_local_rank(self, comm) == root;
  auto all = coll_run(self, comm, CollKind::Bcast,
                      is_root ? detail::bytes_of(value)
                              : std::span<const std::byte>{});
  return detail::scalar_from<T>((*all)[static_cast<std::size_t>(root)]);
}

template <typename T>
std::vector<T> alltoall(Rank& self, const Comm& comm,
                        const std::vector<T>& send) {
  if (static_cast<int>(send.size()) != comm.size()) {
    throw std::logic_error("alltoall: send vector must have comm.size() items");
  }
  auto all = coll_run(self, comm, CollKind::Alltoall, detail::bytes_of(send));
  const auto me = static_cast<std::size_t>(coll_local_rank(self, comm));
  // Extract only my column — deserializing whole rows would cost O(P^2)
  // per rank, which matters at 1024 ranks x dozens of cycles.
  std::vector<T> result(all->size());
  for (std::size_t j = 0; j < all->size(); ++j) {
    const auto row = (*all)[j];
    if (row.size() != static_cast<std::size_t>(comm.size()) * sizeof(T)) {
      throw std::logic_error("alltoall: contribution size mismatch");
    }
    std::memcpy(&result[j], row.data() + me * sizeof(T), sizeof(T));
  }
  return result;
}

template <typename T>
SharedSpan<PeerValue<T>> sparse_alltoall(Rank& self, const Comm& comm,
                                         std::span<const PeerValue<T>> send) {
  for (std::size_t i = 0; i < send.size(); ++i) {
    if (send[i].peer < 0 || send[i].peer >= comm.size() ||
        (i > 0 && send[i].peer <= send[i - 1].peer)) {
      throw std::logic_error(
          "sparse_alltoall: destinations must be strictly ascending local "
          "ranks");
    }
  }
  // The last arriver lays every inbox out once, back to back in one
  // array: count the records per destination, then place each at its
  // destination's cursor. Sources are visited in ascending order, so each
  // inbox comes out ascending by source.
  struct Inboxes {
    std::vector<PeerValue<T>> records;
    std::vector<std::size_t> start;  // inbox d is [start[d], start[d + 1])
  };
  const auto read = [](std::span<const std::byte> records, std::size_t i) {
    PeerValue<T> record;
    std::memcpy(&record, records.data() + i * sizeof record, sizeof record);
    return record;
  };
  const auto inboxes = coll_build<Inboxes>(
      self, comm, CollKind::Alltoall, detail::bytes_of(send),
      [&read](CollContribs all) {
        Inboxes boxes;
        boxes.start.assign(all.size() + 1, 0);
        for (const auto& records : all) {
          for (std::size_t i = 0; i < records.size() / sizeof(PeerValue<T>);
               ++i) {
            ++boxes.start[static_cast<std::size_t>(read(records, i).peer) + 1];
          }
        }
        for (std::size_t d = 1; d < boxes.start.size(); ++d) {
          boxes.start[d] += boxes.start[d - 1];
        }
        boxes.records.resize(boxes.start.back());
        for (std::size_t source = 0; source < all.size(); ++source) {
          const auto& records = all[source];
          for (std::size_t i = 0; i < records.size() / sizeof(PeerValue<T>);
               ++i) {
            const PeerValue<T> record = read(records, i);
            boxes.records[boxes.start[static_cast<std::size_t>(
                record.peer)]++] = {static_cast<int>(source), record.value};
          }
        }
        // Each cursor now sits at the next inbox's start: shift them back.
        for (std::size_t d = all.size(); d-- > 1;) {
          boxes.start[d] = boxes.start[d - 1];
        }
        boxes.start[0] = 0;
        return boxes;
      },
      static_cast<std::uint64_t>(comm.size()) * sizeof(T));
  const auto me = static_cast<std::size_t>(coll_local_rank(self, comm));
  const std::span<const PeerValue<T>> mine(
      inboxes->records.data() + inboxes->start[me],
      inboxes->start[me + 1] - inboxes->start[me]);
  return SharedSpan<PeerValue<T>>(inboxes, mine);
}

template <typename T, typename BinaryOp>
T allreduce(Rank& self, const Comm& comm, const T& value, BinaryOp op) {
  // One left fold in local-rank order, shared by every member: each member
  // folding all P values would be quadratic, and one fixed order keeps
  // floating-point results bit-identical on every rank.
  return *coll_build<T>(self, comm, CollKind::Allreduce,
                        detail::bytes_of(value),
                        [&op](CollContribs all) {
                          T accum = detail::scalar_from<T>(all[0]);
                          for (std::size_t i = 1; i < all.size(); ++i) {
                            accum = op(accum, detail::scalar_from<T>(all[i]));
                          }
                          return accum;
                        });
}

template <typename T>
T allreduce_sum(Rank& self, const Comm& comm, const T& value) {
  return allreduce(self, comm, value, [](T a, T b) { return a + b; });
}
template <typename T>
T allreduce_max(Rank& self, const Comm& comm, const T& value) {
  return allreduce(self, comm, value, [](T a, T b) { return a < b ? b : a; });
}

template <typename T>
std::vector<T> gather(Rank& self, const Comm& comm, int root, const T& value) {
  auto all = coll_run(self, comm, CollKind::Gather, detail::bytes_of(value));
  std::vector<T> result;
  if (coll_local_rank(self, comm) == root) {
    result.reserve(all->size());
    for (const auto& contribution : *all) {
      result.push_back(detail::scalar_from<T>(contribution));
    }
  }
  return result;
}

}  // namespace parcoll::mpi
