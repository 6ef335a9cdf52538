#include "sim/engine.hpp"

#include <chrono>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace parcoll::sim {

namespace {

/// The run queue compares times for equality and order, so a NaN would
/// land anywhere in it without notice, and an infinity never comes due.
void require_finite(double t, const char* where) {
  if (!std::isfinite(t)) {
    throw std::logic_error(std::string(where) + ": non-finite time");
  }
}

}  // namespace

ProcId Engine::spawn(std::function<void()> body, std::size_t stack_bytes) {
  if (stack_bytes == 0) {
    stack_bytes = default_stack_bytes_;
  } else if (stack_bytes < kMinStackBytes) {
    throw std::invalid_argument(
        "Engine::spawn: stack of " + std::to_string(stack_bytes) +
        " bytes is below the " + std::to_string(kMinStackBytes) +
        "-byte safety floor");
  }
  const ProcId pid = static_cast<ProcId>(procs_.size());
  Process proc;
  proc.fiber = std::make_unique<Fiber>(std::move(body), stack_bytes, &stacks_);
  proc.resume_sp = proc.fiber->saved_sp();
  proc.state = ProcState::Runnable;
  procs_.push_back(std::move(proc));
  ++live_;
  ++fibers_spawned_;
  if (live_ > peak_live_) peak_live_ = live_;
  schedule_resume(now_, pid);
  return pid;
}

void Engine::set_default_stack_bytes(std::size_t bytes) {
  if (bytes < kMinStackBytes) {
    throw std::invalid_argument(
        "Engine::set_default_stack_bytes: " + std::to_string(bytes) +
        " bytes is below the " + std::to_string(kMinStackBytes) +
        "-byte safety floor (deep collective call chains overflow smaller "
        "stacks)");
  }
  default_stack_bytes_ = bytes;
}

EngineStats Engine::stats() const {
  EngineStats s;
  s.events_executed = events_executed_;
  s.callback_events = callback_events_;
  s.fibers_spawned = fibers_spawned_;
  s.peak_live_fibers = peak_live_;
  s.stacks_allocated = stacks_.allocated();
  s.stacks_reused = stacks_.reused();
  s.peak_queue_depth = queue_.peak_depth();
  s.choice_points = choice_log_.size();
  s.default_stack_bytes = default_stack_bytes_;
  s.run_wall_seconds = run_wall_seconds_;
  return s;
}

void Engine::schedule_resume(double t, ProcId pid) {
  queue_.push(QueuedEvent{t, event_seq_++, pid, kNoCallback});
}

void Engine::post(double t, SmallCallback fn) {
  require_finite(t, "Engine::post");
  if (t < now_) {
    throw std::logic_error("Engine::post: time in the past");
  }
  const std::uint32_t slot = callbacks_.put(std::move(fn));
  queue_.push(QueuedEvent{t, event_seq_++, kNoProc, slot});
}

void Engine::resume_process(ProcId pid) {
  // Note: the fiber body may spawn new processes, reallocating procs_, so
  // never hold a Process reference across resume(). The Fiber object itself
  // is heap-allocated and stable.
  Fiber* fiber = nullptr;
  {
    Process& proc = procs_[static_cast<std::size_t>(pid)];
    if (proc.state == ProcState::Finished) {
      throw std::logic_error("Engine: resuming finished process");
    }
    proc.state = ProcState::Running;
    fiber = proc.fiber.get();
  }
  current_ = pid;
  try {
    fiber->resume();
  } catch (...) {
    // The body exited with an exception: mark the process dead so the
    // engine stays consistent, then let the error reach run()'s caller.
    current_ = kNoProc;
    Process& failed = procs_[static_cast<std::size_t>(pid)];
    failed.state = ProcState::Finished;
    failed.fiber.reset();
    --live_;
    throw;
  }
  current_ = kNoProc;
  Process& proc = procs_[static_cast<std::size_t>(pid)];
  proc.resume_sp = fiber->saved_sp();
  if (fiber->finished()) {
    const bool intact = fiber->stack_intact();
    proc.state = ProcState::Finished;
    proc.fiber.reset();  // returns the stack to the pool (if intact)
    --live_;
    if (!intact) {
      std::ostringstream message;
      message << "Engine: fiber stack overflow detected for pid " << pid
              << " (stack canary trampled; raise --stack-bytes above "
              << default_stack_bytes_ << ")";
      throw std::runtime_error(message.str());
    }
  }
  // Otherwise the process suspended itself (sleep/suspend set its state).
}

void Engine::set_schedule(SchedulePolicy policy) {
  if (!choice_log_.empty() || now_ != 0.0) {
    throw std::logic_error("Engine::set_schedule: engine already ran");
  }
  policy_ = std::move(policy);
}

QueuedEvent Engine::pop_next() {
  QueuedEvent first = queue_.pop();
  if (policy_.kind == TieBreak::Program) {
    // Historical fast path: (time, seq) queue order is the schedule.
    return first;
  }
  if (queue_.empty() || queue_.min_time() != first.time) {
    return first;  // a single candidate is not a choice point
  }
  // Gather every event tied at the minimal timestamp; queue order leaves
  // them sorted by sequence number, so alternative 0 is program order.
  std::vector<QueuedEvent> ties;
  ties.push_back(first);
  while (!queue_.empty() && queue_.min_time() == ties.front().time) {
    ties.push_back(queue_.pop());
  }
  const auto alternatives = static_cast<std::uint32_t>(ties.size());
  const std::uint32_t chosen =
      policy_.pick(choice_log_.size(), alternatives);
  choice_log_.push_back(ScheduleChoice{chosen, alternatives});
  if (policy_.record != nullptr) {
    policy_.record->push_back(choice_log_.back());
  }
  QueuedEvent next = ties[chosen];
  for (std::uint32_t i = 0; i < alternatives; ++i) {
    if (i != chosen) {
      // Re-pushed with its original seq, so its place in the total order
      // is unchanged.
      queue_.push(ties[i]);
    }
  }
  return next;
}

void Engine::run() {
  const auto wall_start = std::chrono::steady_clock::now();
  while (!queue_.empty()) {
    const QueuedEvent event = pop_next();
    if (!queue_.empty()) {
      // Warm the next fiber's state while this event executes: the switch
      // path is memory-latency bound on cold fiber stacks at high rank
      // counts, and the upcoming restore touches exactly these lines.
      const QueuedEvent next = queue_.peek();
      if (next.pid >= 0) {
        const Process& np = procs_[static_cast<std::size_t>(next.pid)];
        __builtin_prefetch(np.fiber.get());
        if (np.resume_sp != nullptr) {
          __builtin_prefetch(np.resume_sp);
          __builtin_prefetch(static_cast<const char*>(np.resume_sp) + 64);
        }
      }
      // One more ahead: by the time that fiber restores, the deeper
      // prefetch has had two event bodies of latency to land.
      if (const int second = queue_.second_pid_hint(); second >= 0) {
        const Process& sp = procs_[static_cast<std::size_t>(second)];
        __builtin_prefetch(sp.fiber.get());
        if (sp.resume_sp != nullptr) {
          __builtin_prefetch(sp.resume_sp);
        }
      }
    }
    now_ = event.time;
    ++events_executed_;
    if (event.pid == kNoProc) {
      SmallCallback fn = callbacks_.take(event.cb);
      ++callback_events_;
      fn();
    } else {
      resume_process(event.pid);
    }
  }
  run_wall_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  if (live_ > 0) {
    std::ostringstream message;
    message << "simulation deadlock at t=" << now_
            << "s; schedule=" << schedule_token() << "; blocked processes:";
    for (std::size_t pid = 0; pid < procs_.size(); ++pid) {
      if (procs_[pid].state == ProcState::Blocked) {
        message << " [pid " << pid << ": " << procs_[pid].block_reason << "]";
      }
    }
    throw DeadlockError(message.str());
  }
}

void Engine::unwind() {
  unwinding_ = true;
  // As in resume_process, hold no Process reference across a resume.
  for (std::size_t pid = 0; pid < procs_.size(); ++pid) {
    Fiber* fiber = procs_[pid].fiber.get();
    if (fiber == nullptr) continue;
    current_ = static_cast<ProcId>(pid);
    fiber->unwind();
    current_ = kNoProc;
    procs_[pid].state = ProcState::Finished;
    procs_[pid].fiber.reset();
    --live_;
  }
}

void Engine::sleep(double seconds) {
  if (seconds < 0) {
    throw std::logic_error("Engine::sleep: negative duration");
  }
  sleep_until(now_ + seconds);
}

void Engine::sleep_until(double t) {
  const ProcId pid = current_;
  if (pid == kNoProc) {
    throw std::logic_error("Engine::sleep_until outside a process");
  }
  require_finite(t, "Engine::sleep_until");
  if (t <= now_) {
    return;  // nothing to wait for; keep running
  }
  Process& proc = procs_[static_cast<std::size_t>(pid)];
  proc.state = ProcState::Runnable;  // will run again without external wake
  schedule_resume(t, pid);
  proc.fiber->yield();
}

void Engine::suspend(const char* why) {
  const ProcId pid = current_;
  if (pid == kNoProc) {
    throw std::logic_error("Engine::suspend outside a process");
  }
  Process& proc = procs_[static_cast<std::size_t>(pid)];
  proc.state = ProcState::Blocked;
  proc.block_reason = why;
  proc.fiber->yield();
}

void Engine::wake_at(double t, ProcId pid) {
  if (unwinding_) return;  // nothing runs again
  require_finite(t, "Engine::wake_at");
  if (t < now_) {
    throw std::logic_error("Engine::wake_at: time in the past");
  }
  Process& proc = procs_.at(static_cast<std::size_t>(pid));
  if (proc.state != ProcState::Blocked) {
    throw std::logic_error("Engine::wake_at: process is not suspended");
  }
  proc.state = ProcState::Runnable;
  proc.block_reason = "";
  schedule_resume(t, pid);
}

void WaitQueue::wait(Engine& engine, const char* why) {
  waiters_.push_back(engine.current());
  engine.suspend(why);
}

bool WaitQueue::notify_one(Engine& engine) {
  if (head_ == waiters_.size()) return false;
  const ProcId pid = waiters_[head_++];
  if (head_ == waiters_.size()) {
    waiters_.clear();
    head_ = 0;
  } else if (head_ > 64 && head_ * 2 > waiters_.size()) {
    // Drop the drained prefix so a long-lived queue doesn't grow unbounded.
    waiters_.erase(waiters_.begin(),
                   waiters_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  engine.wake(pid);
  return true;
}

void WaitQueue::notify_all(Engine& engine) {
  while (notify_one(engine)) {
  }
}

}  // namespace parcoll::sim
