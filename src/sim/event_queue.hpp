// Run queue of engine events, and the callback arena.
//
// The simulator's events come in bursts: a collective's last arriver wakes
// every member at one completion time, and the members then advance in
// lockstep, so most pushes land at the timestamp of the push just before
// them. The queue keeps such pushes together as a *run*: consecutive
// pushes that share one timestamp, chained in push order, which is also
// seq order. The newest run stays open, outside the heap, and a push at
// its time appends to it in O(1), pops in between or not. Closed runs sit
// in a binary min-heap keyed by the (time, seq) of their head event.
// Popping the head of a closed run puts its next event at the root, where
// inside a burst the sift moves nothing.
//
// Every pop returns precisely the (time, seq)-minimal event: each run is
// sorted, and the heap and the open run compare their heads. A push whose
// seq is below the open run's last one (a choice-point loser that the
// engine re-pushes with its original seq) starts a new run. So schedules,
// digests, and SchedulePolicy choice points follow the engine's total
// order exactly. Run nodes come from a pool with a freelist, and posted
// callbacks from a freelist arena of SmallCallback slots, so steady-state
// queueing allocates nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/callback.hpp"

namespace parcoll::sim {

/// One pending engine event. `pid >= 0` is a process resume; kNoProc (-1)
/// marks a callback event whose body sits in the CallbackArena at `cb`.
struct QueuedEvent {
  double time;
  std::uint64_t seq;
  int pid;
  std::uint32_t cb;
};

inline constexpr std::uint32_t kNoCallback = 0xffffffffu;

/// Freelist arena for posted callbacks: slots are reused, so steady-state
/// posting allocates nothing (beyond a capture too big for SmallCallback's
/// inline buffer).
class CallbackArena {
 public:
  std::uint32_t put(SmallCallback fn) {
    if (free_.empty()) {
      slots_.push_back(std::move(fn));
      return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    slots_[slot] = std::move(fn);
    return slot;
  }

  /// Move the callback out and recycle its slot.
  SmallCallback take(std::uint32_t slot) {
    SmallCallback fn = std::move(slots_[slot]);
    free_.push_back(slot);
    return fn;
  }

  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

 private:
  std::vector<SmallCallback> slots_;
  std::vector<std::uint32_t> free_;
};

class EventQueue {
 public:
  /// Insert `event` (seq already assigned by the engine; re-pushing a
  /// popped event — the choice-point path — keeps its original seq, and
  /// with it its exact place in the total order).
  void push(const QueuedEvent& event) {
    if (!open_live_) {
      open_ = Node{event, kNil};
      open_tail_ = kNil;
      open_live_ = true;
    } else if (event.time == open_.event.time && event.seq > open_last_seq_) {
      const std::uint32_t node = take_node(event);
      (open_tail_ == kNil ? open_.next : pool_[open_tail_].next) = node;
      open_tail_ = node;
    } else {
      close_open_run();
      open_ = Node{event, kNil};
      open_tail_ = kNil;
    }
    open_last_seq_ = event.seq;
    if (++size_ > peak_depth_) peak_depth_ = size_;
  }

  /// Remove and return the (time, seq)-minimal event.
  QueuedEvent pop() {
    --size_;
    if (open_is_min()) {
      const QueuedEvent event = open_.event;
      if (open_.next == kNil) {
        open_live_ = false;
      } else {
        const std::uint32_t next = open_.next;
        open_ = pool_[next];
        give_node(next);
        if (open_.next == kNil) open_tail_ = kNil;
      }
      return event;
    }
    const QueuedEvent event = heap_[0].event;
    const std::uint32_t next = heap_[0].next;
    if (next != kNil) {
      // The run's next event replaces its head; inside a burst it is still
      // the minimum, so the sift stops at once.
      sift_down(pool_[next]);
      give_node(next);
    } else {
      const Node last = heap_.back();
      heap_.pop_back();
      if (!heap_.empty()) sift_down(last);
    }
    return event;
  }

  /// The (time, seq)-minimal event without removing it (queue must be
  /// non-empty). The engine uses this to prefetch the next fiber's state
  /// while the current event executes.
  [[nodiscard]] QueuedEvent peek() const {
    return open_is_min() ? open_.event : heap_[0].event;
  }

  /// Pid of the event after the minimal one, or -1 when there is none (or
  /// it is a callback). Prefetch hint only; never consulted for ordering.
  [[nodiscard]] int second_pid_hint() const {
    if (size_ < 2) return -1;
    // The second event is the least head once the minimum is gone: the
    // minimum's successor in its run, the other side's head, and, when the
    // minimum tops the heap, the root's two children.
    const QueuedEvent* second = nullptr;
    const auto consider = [&second](const QueuedEvent& candidate) {
      if (second == nullptr || before(candidate, *second)) second = &candidate;
    };
    if (open_is_min()) {
      if (open_.next != kNil) consider(pool_[open_.next].event);
      if (!heap_.empty()) consider(heap_[0].event);
    } else {
      if (heap_[0].next != kNil) consider(pool_[heap_[0].next].event);
      if (open_live_) consider(open_.event);
      if (heap_.size() > 1) consider(heap_[1].event);
      if (heap_.size() > 2) consider(heap_[2].event);
    }
    return second->pid;
  }

  /// Timestamp of the minimal event (queue must be non-empty).
  [[nodiscard]] double min_time() const { return peek().time; }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Most events ever pending at once.
  [[nodiscard]] std::size_t peak_depth() const { return peak_depth_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// A run's event and the pool index of the run's next event (kNil at
  /// the run's tail). The heap holds closed runs' heads, `open_` the open
  /// run's head, and the pool every other event.
  struct Node {
    QueuedEvent event;
    std::uint32_t next;
  };

  /// (time, seq) order, compared without branches: the sifts' outcomes
  /// are data-dependent, so a branch per comparison mispredicts.
  static bool before(const QueuedEvent& a, const QueuedEvent& b) {
    return (a.time < b.time) | ((a.time == b.time) & (a.seq < b.seq));
  }

  /// True when the open run's head is the minimal event.
  [[nodiscard]] bool open_is_min() const {
    return open_live_ &&
           (heap_.empty() || before(open_.event, heap_[0].event));
  }

  std::uint32_t take_node(const QueuedEvent& event) {
    std::uint32_t node = free_;
    if (node == kNil) {
      node = static_cast<std::uint32_t>(pool_.size());
      pool_.push_back(Node{event, kNil});
    } else {
      free_ = pool_[node].next;
      pool_[node] = Node{event, kNil};
    }
    return node;
  }

  void give_node(std::uint32_t node) {
    pool_[node].next = free_;
    free_ = node;
  }

  /// Move the open run into the heap, keyed by its head.
  void close_open_run() {
    heap_.push_back(open_);
    std::size_t hole = heap_.size() - 1;
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!before(open_.event, heap_[parent].event)) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = open_;
  }

  /// Fill the root with `moving` and restore heap order below it. The
  /// lesser child is picked by adding a comparison, not by branching.
  void sift_down(const Node moving) {
    const std::size_t n = heap_.size();
    std::size_t hole = 0;
    for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
      if (child + 1 < n) {
        child += before(heap_[child + 1].event, heap_[child].event);
      }
      if (!before(heap_[child].event, moving.event)) break;
      heap_[hole] = heap_[child];
      hole = child;
    }
    heap_[hole] = moving;
  }

  std::vector<Node> heap_;  // closed runs' heads, min-heap on (time, seq)
  std::vector<Node> pool_;  // every run's events after its head, chained
  std::uint32_t free_ = kNil;  // pool freelist, chained through next
  Node open_{};                // the open run's head, when open_live_
  bool open_live_ = false;
  std::uint32_t open_tail_ = kNil;  // pool index of its last event, or kNil
  std::uint64_t open_last_seq_ = 0;
  std::size_t size_ = 0;
  std::size_t peak_depth_ = 0;
};

/// Peak resident set size of the calling process in bytes (VmHWM), 0 when
/// unavailable. Host-side instrumentation only — never feeds the model.
[[nodiscard]] std::uint64_t peak_rss_bytes();

}  // namespace parcoll::sim
