#include "mpi/p2p.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "mpi/runtime.hpp"

namespace parcoll::mpi {

namespace {
bool tag_matches(int posted_tag, int msg_tag) {
  return posted_tag == kAnyTag || posted_tag == msg_tag;
}
bool src_matches(int posted_src, int msg_src) {
  return posted_src == kAnySource || posted_src == msg_src;
}
}  // namespace

P2PEngine::P2PEngine(sim::Engine& engine, net::Network& network,
                     const machine::Topology& topology)
    : engine_(engine), network_(network), topology_(topology) {}

void detail::release(ReqState* state) {
  if (--state->refs > 0) return;
  P2PEngine& owner = *state->engine;
  state->next_free = owner.free_;
  owner.free_ = state;
}

detail::ReqState* P2PEngine::acquire() {
  detail::ReqState* state = free_;
  if (state != nullptr) {
    free_ = state->next_free;
  } else {
    state = &states_.emplace_back();
  }
  *state = detail::ReqState{};
  state->engine = this;
  state->refs = 1;
  return state;
}

void P2PEngine::finish(detail::ReqState* state) {
  if (state == nullptr || state->complete) {
    return;  // eager sends are already locally complete
  }
  state->complete = true;
  if (state->waiter != sim::kNoProc) {
    engine_.wake(std::exchange(state->waiter, sim::kNoProc));
  }
  detail::release(state);
}

void P2PEngine::complete_pair(const PendingSend& send,
                              const PendingRecv& recv) {
  const double delivered = network_.transfer(engine_.now(), send.src_node,
                                             recv.dst_node, send.bytes);
  if (send.bytes > recv.capacity) {
    throw std::runtime_error("P2P: message truncation (recv buffer too small)");
  }
  recv.state->transferred = send.bytes;
  recv.state->matched_source = send.src_local;
  // The bytes move now; the receiver may look at them only once its
  // request completes, at the delivery time.
  if (send.payload() != nullptr && recv.buffer != nullptr && send.bytes > 0) {
    std::memcpy(recv.buffer, send.payload(), send.bytes);
  }
  engine_.post(delivered, [this, send_state = send.state,
                           recv_state = recv.state] {
    finish(send_state);
    finish(recv_state);
  });
}

Request P2PEngine::isend(Rank& self, const Comm& comm, int dst, int tag,
                         const void* data, std::uint64_t bytes, TimeCat cat) {
  if (dst < 0 || dst >= comm.size()) {
    throw std::out_of_range("isend: bad destination rank");
  }
  const int src_local = comm.local_rank(self.rank());
  if (src_local < 0) {
    throw std::logic_error("isend: sender is not a member of the communicator");
  }
  self.busy(cat, network_.params().cpu_msg_overhead);

  detail::ReqState* state = acquire();
  PendingSend send;
  send.src_local = src_local;
  send.tag = tag;
  send.bytes = bytes;
  send.data = static_cast<const std::byte*>(data);
  send.src_node = self.node();
  const bool eager = bytes <= network_.params().eager_threshold;
  if (eager) {
    // Eager protocol: the send is locally complete at once; the wire
    // transfer still happens at match time.
    state->complete = true;
  } else {
    send.state = state;
    ++state->refs;
  }

  const Key key{comm.context_id(), comm.world_rank(dst)};
  auto posted_it = posted_.find(key);
  if (posted_it != posted_.end()) {
    auto& queue = posted_it->second;
    for (auto it = queue.begin(); it != queue.end(); ++it) {
      if (src_matches(it->src_local, send.src_local) &&
          tag_matches(it->tag, send.tag)) {
        PendingRecv recv = *it;
        queue.erase(it);
        complete_pair(send, recv);
        return Request(state);
      }
    }
  }
  if (eager && send.data != nullptr && bytes > 0) {
    // The sender may reuse its buffer at once: keep a copy until a
    // receive matches.
    send.buffered.resize(bytes);
    std::memcpy(send.buffered.data(), send.data, bytes);
    send.data = nullptr;
  }
  unexpected_[key].push_back(std::move(send));
  return Request(state);
}

Request P2PEngine::irecv(Rank& self, const Comm& comm, int src, int tag,
                         void* buffer, std::uint64_t capacity, TimeCat cat) {
  if (src != kAnySource && (src < 0 || src >= comm.size())) {
    throw std::out_of_range("irecv: bad source rank");
  }
  if (comm.local_rank(self.rank()) < 0) {
    throw std::logic_error(
        "irecv: receiver is not a member of the communicator");
  }
  self.busy(cat, network_.params().cpu_msg_overhead);

  detail::ReqState* state = acquire();
  ++state->refs;  // the engine's, until the receive completes
  PendingRecv recv;
  recv.src_local = src;
  recv.tag = tag;
  recv.buffer = buffer;
  recv.capacity = capacity;
  recv.dst_node = self.node();
  recv.state = state;

  const Key key{comm.context_id(), self.rank()};
  auto unexpected_it = unexpected_.find(key);
  if (unexpected_it != unexpected_.end()) {
    auto& queue = unexpected_it->second;
    for (auto it = queue.begin(); it != queue.end(); ++it) {
      if (src_matches(recv.src_local, it->src_local) &&
          tag_matches(recv.tag, it->tag)) {
        const PendingSend send = std::move(*it);
        queue.erase(it);
        complete_pair(send, recv);
        return Request(state);
      }
    }
  }
  posted_[key].push_back(recv);
  return Request(state);
}

void P2PEngine::wait(Rank& self, Request& request, TimeCat cat) {
  if (!request.valid()) {
    throw std::logic_error("wait: invalid request");
  }
  detail::ReqState& state = *request.state_;
  if (state.complete) {
    return;
  }
  if (state.waiter != sim::kNoProc) {
    throw std::logic_error("wait: another fiber already waits on the request");
  }
  const double blocked_at = engine_.now();
  state.waiter = self.pid();
  engine_.suspend("p2p wait");
  self.times().add(cat, engine_.now() - blocked_at);
}

void P2PEngine::waitall(Rank& self, std::span<Request> requests, TimeCat cat) {
  for (Request& request : requests) {
    wait(self, request, cat);
  }
}

void P2PEngine::send(Rank& self, const Comm& comm, int dst, int tag,
                     const void* data, std::uint64_t bytes, TimeCat cat) {
  Request request = isend(self, comm, dst, tag, data, bytes, cat);
  wait(self, request, cat);
}

std::uint64_t P2PEngine::recv(Rank& self, const Comm& comm, int src, int tag,
                              void* buffer, std::uint64_t capacity,
                              TimeCat cat) {
  Request request = irecv(self, comm, src, tag, buffer, capacity, cat);
  wait(self, request, cat);
  return request.transferred();
}

}  // namespace parcoll::mpi
