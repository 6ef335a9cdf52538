// Point-to-point messaging: isend/irecv with tag matching, wait/waitall,
// and blocking send/recv built on top.
//
// Timing model: posting a send or receive costs cpu_msg_overhead of CPU.
// The wire transfer is reserved on the network when the send meets a
// matching receive; both requests complete at the delivery time. Waiting on
// an incomplete request blocks the fiber and charges the wait to TimeCat::P2P.
//
// Payloads: a send may carry real bytes or be a phantom of a given size; a
// receive may supply a real buffer or a null one. Bytes are copied only when
// both sides are real, straight from the sender's buffer into the receiver's
// when the two match. An eager send that finds no posted receive is
// buffered until one comes (MPI's eager protocol), since its sender may
// reuse the buffer at once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <unordered_map>
#include <utility>

#include "machine/machine_model.hpp"
#include "mpi/comm.hpp"
#include "mpi/timecat.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "sim/small_vector.hpp"

namespace parcoll::mpi {

class Rank;
class P2PEngine;

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

namespace detail {
/// One posted send or receive. Its engine reuses it once nothing names it:
/// no Request, and no pending or in-flight message it still completes.
struct ReqState {
  bool complete = false;
  std::uint64_t transferred = 0;  // bytes actually moved (recv side)
  int matched_source = -1;        // local rank in the comm (recv side)
  sim::ProcId waiter = sim::kNoProc;
  int refs = 0;
  P2PEngine* engine = nullptr;
  ReqState* next_free = nullptr;
};
/// Drop one reference; the last one returns the state to its engine.
void release(ReqState* state);
}  // namespace detail

/// Handle to an outstanding isend/irecv. Cheap to copy.
class Request {
 public:
  Request() = default;
  Request(const Request& other) : state_(other.state_) {
    if (state_ != nullptr) ++state_->refs;
  }
  Request(Request&& other) noexcept
      : state_(std::exchange(other.state_, nullptr)) {}
  Request& operator=(Request other) noexcept {
    std::swap(state_, other.state_);
    return *this;
  }
  ~Request() {
    if (state_ != nullptr) detail::release(state_);
  }

  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  [[nodiscard]] bool done() const { return state_ && state_->complete; }
  /// Bytes delivered (receive side), valid once done().
  [[nodiscard]] std::uint64_t transferred() const { return state_->transferred; }
  /// Matched source local rank (receive side), valid once done().
  [[nodiscard]] int source() const { return state_->matched_source; }

 private:
  friend class P2PEngine;
  /// Takes a reference the caller already counted.
  explicit Request(detail::ReqState* state) : state_(state) {}
  detail::ReqState* state_ = nullptr;
};

class P2PEngine {
 public:
  P2PEngine(sim::Engine& engine, net::Network& network,
            const machine::Topology& topology);

  /// Post a send of `bytes` to `dst` (local rank in `comm`) with `tag`.
  /// `data` may be nullptr for a phantom payload. Posting overhead is
  /// charged to `cat` (the intra-node aggregation stage accounts its
  /// shipping as TimeCat::Intra; everything else keeps the P2P default).
  /// A caller outside `comm` gets std::logic_error before anything happens.
  Request isend(Rank& self, const Comm& comm, int dst, int tag,
                const void* data, std::uint64_t bytes,
                TimeCat cat = TimeCat::P2P);

  /// Post a receive into `buffer` (may be nullptr) of up to `capacity`
  /// bytes from `src` (local rank, or kAnySource) with `tag` (or kAnyTag).
  /// A caller outside `comm` gets std::logic_error before anything happens.
  Request irecv(Rank& self, const Comm& comm, int src, int tag, void* buffer,
                std::uint64_t capacity, TimeCat cat = TimeCat::P2P);

  /// Block until `request` completes; charges the wait to `cat`. One fiber
  /// waits on a request at a time.
  void wait(Rank& self, Request& request, TimeCat cat = TimeCat::P2P);

  void waitall(Rank& self, std::span<Request> requests,
               TimeCat cat = TimeCat::P2P);

  /// Blocking convenience wrappers.
  void send(Rank& self, const Comm& comm, int dst, int tag, const void* data,
            std::uint64_t bytes, TimeCat cat = TimeCat::P2P);
  /// Returns the number of bytes received.
  std::uint64_t recv(Rank& self, const Comm& comm, int src, int tag,
                     void* buffer, std::uint64_t capacity,
                     TimeCat cat = TimeCat::P2P);

 private:
  /// Eager payloads this short ride inside their queue entry when they
  /// must wait for a receive.
  static constexpr std::size_t kInlinePayload = 64;

  /// A posted send, while unmatched. `state` is null for an eager send,
  /// complete as soon as posted; otherwise the entry holds a reference.
  struct PendingSend {
    int src_local = 0;
    int tag = 0;
    std::uint64_t bytes = 0;
    const std::byte* data = nullptr;  // the sender's buffer (null: phantom)
    sim::SmallVector<std::byte, kInlinePayload> buffered;  // eager copy
    int src_node = 0;
    detail::ReqState* state = nullptr;
    [[nodiscard]] const std::byte* payload() const {
      return buffered.empty() ? data : buffered.data();
    }
  };
  /// A posted receive, while unmatched; the entry holds a reference.
  struct PendingRecv {
    int src_local = 0;  // kAnySource allowed
    int tag = 0;        // kAnyTag allowed
    void* buffer = nullptr;
    std::uint64_t capacity = 0;
    int dst_node = 0;
    detail::ReqState* state = nullptr;
  };
  // Queues keyed by (context_id, destination world rank).
  struct Key {
    std::uint64_t ctx;
    int dst;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<std::uint64_t>()(k.ctx * 1000003u +
                                        static_cast<std::uint64_t>(k.dst));
    }
  };

  friend void detail::release(detail::ReqState* state);

  /// A fresh state (reused when one is free) with one reference.
  detail::ReqState* acquire();
  void complete_pair(const PendingSend& send, const PendingRecv& recv);
  /// Complete `state` (null, or already complete: nothing to do), wake its
  /// waiter and drop the reference the engine held for it.
  void finish(detail::ReqState* state);

  sim::Engine& engine_;
  net::Network& network_;
  const machine::Topology& topology_;
  std::deque<detail::ReqState> states_;  // every state made; stable addresses
  detail::ReqState* free_ = nullptr;
  std::unordered_map<Key, std::deque<PendingSend>, KeyHash> unexpected_;
  std::unordered_map<Key, std::deque<PendingRecv>, KeyHash> posted_;
};

}  // namespace parcoll::mpi
