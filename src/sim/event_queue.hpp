// Binary-heap event queue and the callback arena.
//
// Events are 24-byte PODs kept in one vector as a binary min-heap on
// (time, seq), so each sift moves little data. Posted callbacks live in a
// freelist arena of SmallCallback slots, so the dominant wake/sleep events
// carry nothing but {time, seq, pid}.
//
// A plain heap fits the simulator's traffic: there is about one pending
// event per live fiber, and a collective's last arriver wakes every other
// member at one completion time, so events arrive in same-time bursts that
// no time-bucketing scheme can spread out. Every pop returns precisely the
// (time, seq)-minimal event, so schedules, digests, and SchedulePolicy
// choice points follow the engine's total order exactly.
#pragma once

#include <algorithm>
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
    heap_.push_back(event);
    std::push_heap(heap_.begin(), heap_.end(), later);
    if (heap_.size() > peak_depth_) peak_depth_ = heap_.size();
  }

  /// Remove and return the (time, seq)-minimal event.
  QueuedEvent pop() {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const QueuedEvent event = heap_.back();
    heap_.pop_back();
    return event;
  }

  /// The (time, seq)-minimal event without removing it (queue must be
  /// non-empty). The engine uses this to prefetch the next fiber's state
  /// while the current event executes.
  [[nodiscard]] QueuedEvent peek() const { return heap_.front(); }

  /// Pid of the event after the minimal one — the lesser of the root's two
  /// children — or -1 when there is none (or it is a callback). Prefetch
  /// hint only; never consulted for ordering.
  [[nodiscard]] int second_pid_hint() const {
    if (heap_.size() < 2) return -1;
    if (heap_.size() == 2) return heap_[1].pid;
    return later(heap_[1], heap_[2]) ? heap_[2].pid : heap_[1].pid;
  }

  /// Timestamp of the minimal event (queue must be non-empty).
  [[nodiscard]] double min_time() const { return heap_.front().time; }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  /// Most events ever pending at once.
  [[nodiscard]] std::size_t peak_depth() const { return peak_depth_; }

 private:
  /// Heap comparator: `true` when `a` runs later than `b`, so the std heap
  /// algorithms (max-heap by default) keep the earliest event on top.
  static bool later(const QueuedEvent& a, const QueuedEvent& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }

  std::vector<QueuedEvent> heap_;
  std::size_t peak_depth_ = 0;
};

/// Peak resident set size of the calling process in bytes (VmHWM), 0 when
/// unavailable. Host-side instrumentation only — never feeds the model.
[[nodiscard]] std::uint64_t peak_rss_bytes();

}  // namespace parcoll::sim
