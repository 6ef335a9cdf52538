// Discrete-event simulation engine.
//
// The engine owns a virtual clock and a time-ordered event queue. Simulated
// processes are fibers (sim/fiber.hpp) that run ordinary blocking code and
// interact with the engine through sleep()/suspend(); resources such as
// network links and storage servers are modeled analytically by the layers
// above (they reserve busy time and put the caller to sleep until the
// reservation completes), so the engine itself stays tiny.
//
// Hot-path layout (see docs/PERFORMANCE.md): events are 24-byte PODs queued
// as same-time runs (sim/event_queue.hpp), posted callbacks live in a
// freelist arena, and rank fibers draw small pooled stacks
// (sim/stack_pool.hpp) instead of a fresh 256 KiB allocation each.
//
// Determinism: events with equal timestamps are ordered by a monotone
// sequence number, so a given program produces an identical schedule on
// every run. A SchedulePolicy (sim/schedule.hpp) can replace that default
// tie-break to explore other interleavings; every policy is itself
// deterministic and replayable from a compact token.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/fiber.hpp"
#include "sim/schedule.hpp"
#include "sim/stack_pool.hpp"

namespace parcoll::sim {

/// Identifier of a simulated process (dense, starting at 0).
using ProcId = int;
inline constexpr ProcId kNoProc = -1;

/// Thrown by Engine::run when no event is pending but processes are still
/// blocked — i.e. the simulated program deadlocked. The message lists each
/// blocked process with the reason string it passed to suspend(), plus the
/// engine's schedule token, so the failing interleaving can be replayed
/// verbatim (e.g. parcoll_sim --schedule-replay <token>).
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(std::string what) : std::runtime_error(std::move(what)) {}
};

/// Engine self-instrumentation, collected for free on the hot path and
/// surfaced through `parcoll_sim --json` and bench/micro_engine. Host-side
/// observability only: nothing here feeds back into the model.
struct EngineStats {
  std::uint64_t events_executed = 0;   // fiber resumes + callbacks
  std::uint64_t callback_events = 0;   // post()-ed callbacks among them
  std::uint64_t fibers_spawned = 0;
  std::uint64_t peak_live_fibers = 0;
  std::uint64_t stacks_allocated = 0;  // pool misses (fresh allocations)
  std::uint64_t stacks_reused = 0;     // pool hits
  std::uint64_t stack_slabs_mapped = 0;  // slabs no earlier engine left
  std::uint64_t peak_queue_depth = 0;
  std::uint64_t choice_points = 0;     // equal-time ties policy resolved
  std::uint64_t default_stack_bytes = 0;
  double run_wall_seconds = 0.0;  // host wall clock spent inside run()

  /// Events executed per host-wall second (0 before run()).
  [[nodiscard]] double events_per_second() const {
    return run_wall_seconds > 0.0
               ? static_cast<double>(events_executed) / run_wall_seconds
               : 0.0;
  }
};

class Engine {
 public:
  Engine() = default;

  /// Default stack for engine-spawned fibers. Rank bodies block a few
  /// frames deep (collective -> protocol -> fs -> network), far from the
  /// historical 256 KiB; sanitized builds keep the old size because ASan
  /// redzones inflate every frame.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  static constexpr std::size_t kDefaultStackBytes = 256 * 1024;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  static constexpr std::size_t kDefaultStackBytes = 256 * 1024;
#else
  static constexpr std::size_t kDefaultStackBytes = 64 * 1024;
#endif
#else
  static constexpr std::size_t kDefaultStackBytes = 64 * 1024;
#endif

  /// Safety floor for any stack knob: below this, deep collective call
  /// chains overrun even simple bodies and the canary trips.
  static constexpr std::size_t kMinStackBytes = 16 * 1024;

  /// Create a process whose body starts executing at the current virtual
  /// time (time 0 if called before run()). May be called from inside a
  /// running process to spawn dynamically. `stack_bytes` 0 means the
  /// engine default (set_default_stack_bytes).
  ProcId spawn(std::function<void()> body, std::size_t stack_bytes = 0);

  /// Run events until every spawned process has finished.
  /// Throws DeadlockError if progress stops with processes still blocked.
  void run();

  /// Unwind every started, unfinished process (Fiber::unwind), in pid
  /// order, after a run that ended in an exception or a deadlock left
  /// them suspended. Nothing runs again afterwards, so wakes issued by the
  /// destructors that run meanwhile are dropped. Call while everything
  /// those destructors touch is still alive.
  void unwind();

  /// Current virtual time, seconds.
  [[nodiscard]] double now() const { return now_; }

  /// Stable address of the clock, for observers recording timestamps
  /// without holding an Engine reference (e.g. the tracer).
  [[nodiscard]] const double* now_address() const { return &now_; }

  /// The process currently executing, or kNoProc from scheduler context.
  [[nodiscard]] ProcId current() const { return current_; }

  /// Number of processes that have been spawned but not yet finished.
  [[nodiscard]] std::size_t live_processes() const { return live_; }

  /// Override the default stack size for subsequently spawned fibers.
  /// Throws std::invalid_argument below kMinStackBytes — a too-small stack
  /// is silent memory corruption, not a tuning knob.
  void set_default_stack_bytes(std::size_t bytes);
  [[nodiscard]] std::size_t default_stack_bytes() const {
    return default_stack_bytes_;
  }

  /// Self-instrumentation snapshot (valid any time; wall seconds and
  /// events/s are complete after run() returns).
  [[nodiscard]] EngineStats stats() const;

  // --- Calls below are only valid from inside a process fiber. ---

  /// Advance this process's virtual time by `seconds` (finite, >= 0).
  void sleep(double seconds);

  /// Sleep until absolute virtual time `t` (finite; no-op if t <= now()).
  void sleep_until(double t);

  /// Block until another process (or event) calls wake() on us.
  /// `why` is reported in the deadlock message if we never wake; it must
  /// point at storage that outlives the block (in practice: a literal).
  void suspend(const char* why);

  // --- Calls below are valid from anywhere. ---

  /// Make a blocked process runnable again at virtual time `t` (finite,
  /// >= now). It is an error to wake a process that is not suspended.
  void wake_at(double t, ProcId pid);

  /// Make a blocked process runnable at the current virtual time.
  void wake(ProcId pid) { wake_at(now_, pid); }

  /// Run `fn` on the scheduler context at virtual time `t` (finite,
  /// >= now).
  void post(double t, SmallCallback fn);

  /// Monotone counter; used by models that need a deterministic
  /// per-engine sequence (e.g. jitter streams).
  std::uint64_t next_stream_seq() { return stream_seq_++; }

  // --- Schedule exploration -----------------------------------------------

  /// Replace the tie-break policy (call before run()). The default Program
  /// policy keeps the engine on the historical fast path: equal-time events
  /// run in push order and no choice points are recorded.
  void set_schedule(SchedulePolicy policy);
  [[nodiscard]] const SchedulePolicy& schedule_policy() const {
    return policy_;
  }

  /// The decisions taken at choice points so far (empty under Program).
  [[nodiscard]] const std::vector<ScheduleChoice>& choice_log() const {
    return choice_log_;
  }

  /// Replayable token of the schedule this engine is executing.
  [[nodiscard]] std::string schedule_token() const { return policy_.token(); }

 private:
  enum class ProcState { Runnable, Running, Blocked, Finished };

  struct Process {
    std::unique_ptr<Fiber> fiber;
    // Where the suspended fiber will resume from, mirrored out of the
    // Fiber after every switch so run()'s prefetch of the next event's
    // fiber needs no dependent load through the Fiber object.
    void* resume_sp = nullptr;
    ProcState state = ProcState::Runnable;
    const char* block_reason = "";  // literal passed to suspend()
  };

  void schedule_resume(double t, ProcId pid);
  void resume_process(ProcId pid);
  /// Pop the next event to run, consulting the schedule policy when
  /// several events are tied at the minimal timestamp.
  QueuedEvent pop_next();

  // Note: stacks_ is declared before procs_ so the pool outlives the
  // fibers, which release their stacks into it from ~Fiber.
  FiberStackPool stacks_;
  EventQueue queue_;
  CallbackArena callbacks_;
  std::vector<Process> procs_;
  double now_ = 0.0;
  std::uint64_t event_seq_ = 0;
  std::uint64_t stream_seq_ = 0;
  ProcId current_ = kNoProc;
  std::size_t live_ = 0;
  bool unwinding_ = false;
  std::size_t default_stack_bytes_ = kDefaultStackBytes;
  std::uint64_t events_executed_ = 0;
  std::uint64_t callback_events_ = 0;
  std::uint64_t fibers_spawned_ = 0;
  std::uint64_t peak_live_ = 0;
  double run_wall_seconds_ = 0.0;
  SchedulePolicy policy_;
  std::vector<ScheduleChoice> choice_log_;
};

/// Condition-variable analogue for simulated processes: a FIFO of blocked
/// process ids. Wait/notify are instantaneous in virtual time. Woken ids
/// advance a ring head instead of shifting the vector — notify_one on a
/// deep queue (an OST service queue at 100k ranks) is O(1), not O(n).
class WaitQueue {
 public:
  /// Suspend the calling process until notified.
  void wait(Engine& engine, const char* why);

  /// Wake the oldest waiter, if any. Returns true if one was woken.
  bool notify_one(Engine& engine);

  /// Wake all waiters.
  void notify_all(Engine& engine);

  [[nodiscard]] bool empty() const { return head_ == waiters_.size(); }
  [[nodiscard]] std::size_t size() const { return waiters_.size() - head_; }

 private:
  std::vector<ProcId> waiters_;
  std::size_t head_ = 0;  // index of the oldest un-woken waiter
};

}  // namespace parcoll::sim
