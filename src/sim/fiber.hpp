// Cooperative fibers.
//
// Every simulated process (an MPI rank in this codebase) runs ordinary
// blocking C++ code on its own fiber stack. The discrete-event engine owns
// the scheduler context; a fiber runs until it blocks (yield) and is later
// resumed at a new point in virtual time. Everything is single-threaded, so
// no locking is needed anywhere in the simulator.
//
// Two context-switch backends:
//  - On x86-64 ELF targets a hand-rolled switch (callee-saved registers +
//    mxcsr/x87 control word, ~20 ns) replaces swapcontext, whose mandatory
//    sigprocmask syscalls dominated the engine's event loop.
//  - Everywhere else (or with -DPARCOLL_FORCE_UCONTEXT) the original POSIX
//    ucontext path remains.
// Both backends carry the AddressSanitizer fiber-switch annotations.
//
// Stacks come from an optional FiberStackPool (the engine passes one) so
// finished fibers donate their stacks to later spawns, and the low 64
// bytes of every stack hold a canary pattern: a fiber that runs off the
// end of an undersized stack tramples it, which Engine::run turns into a
// hard error instead of silent corruption.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>

#if !defined(PARCOLL_FAST_CONTEXT) && !defined(PARCOLL_FORCE_UCONTEXT)
#if defined(__x86_64__) && defined(__ELF__)
#define PARCOLL_FAST_CONTEXT 1
#endif
#endif

#if !defined(PARCOLL_FAST_CONTEXT)
#include <ucontext.h>
#endif

namespace parcoll::sim {

class FiberStackPool;

/// A single cooperative execution context with its own stack.
///
/// Lifecycle: construct with a body, call resume() repeatedly from the
/// scheduler until finished(). The body calls yield() to give control back.
/// Fibers are not copyable or movable (the saved context points into the
/// stack).
class Fiber {
 public:
  using Body = std::function<void()>;

  explicit Fiber(Body body, std::size_t stack_bytes = kDefaultStackBytes,
                 FiberStackPool* pool = nullptr);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switch from the caller into the fiber. Returns when the fiber yields
  /// or its body returns. Must not be called on a finished fiber, nor from
  /// inside any fiber (only the scheduler resumes). If the body exited with
  /// an exception, it is rethrown here (exceptions cannot unwind across a
  /// context switch) with the fiber marked finished.
  void resume();

  /// Switch from inside the fiber back to whoever resumed it.
  void yield();

  /// Abandon a started, unfinished fiber (from the scheduler): resume it
  /// once so that its pending yield() throws a private sentinel, which
  /// unwinds its stack, running every destructor on it, out of the body.
  /// A further yield() while unwinding throws again at once, and whatever
  /// escapes the body is dropped. Returns with the fiber finished; a no-op
  /// on a fiber that never started or already finished.
  void unwind();

  /// True once the body has returned. A finished fiber must not be resumed.
  [[nodiscard]] bool finished() const { return finished_; }

  /// True while the canary at the deep end of the stack is unscathed. A
  /// trampled canary means the fiber overflowed its stack; the engine
  /// checks at fiber exit and refuses to continue on corruption.
  [[nodiscard]] bool stack_intact() const;

  /// The fiber currently executing on this thread, or nullptr when the
  /// scheduler context is running.
  static Fiber* current() { return current_; }

  /// Stack pointer this fiber will resume from (fast backend only;
  /// nullptr under ucontext). The engine prefetches around it so the
  /// restore of the next fiber overlaps the current event's execution.
  [[nodiscard]] void* saved_sp() const {
#if defined(PARCOLL_FAST_CONTEXT)
    return ctx_sp_;
#else
    return nullptr;
#endif
  }

  /// Default for bare fibers constructed outside the engine. Engine-spawned
  /// rank fibers default far lower (Engine::kDefaultStackBytes) and pool
  /// their stacks.
  static constexpr std::size_t kDefaultStackBytes = 256 * 1024;

  /// Bytes at the deep end of every stack reserved for the overflow canary.
  static constexpr std::size_t kCanaryBytes = 64;

 private:
#if defined(PARCOLL_FAST_CONTEXT)
  friend void fiber_entry_thunk(Fiber* self);
#else
  static void trampoline(unsigned int ptr_hi, unsigned int ptr_lo);
#endif
  void run_body();

#if defined(PARCOLL_FAST_CONTEXT)
  void* ctx_sp_ = nullptr;     // fiber's saved stack pointer
  void* link_sp_ = nullptr;    // scheduler's saved stack pointer
#else
  ucontext_t context_{};
  ucontext_t return_point_{};
#endif
  char* stack_ = nullptr;                // usable stack memory
  std::unique_ptr<char[]> owned_stack_;  // backing when no pool is attached
  std::size_t stack_bytes_ = 0;
  FiberStackPool* pool_ = nullptr;
  Body body_;
  std::exception_ptr exception_;
  bool started_ = false;
  bool finished_ = false;
  bool unwinding_ = false;
  // Bookkeeping for the AddressSanitizer fiber-switch annotations (unused in
  // non-sanitized builds): the fiber's saved fake stack and the scheduler
  // stack bounds learned on first entry, needed to switch back legally.
  void* asan_fake_stack_ = nullptr;
  const void* asan_sched_stack_bottom_ = nullptr;
  std::size_t asan_sched_stack_size_ = 0;

  static thread_local Fiber* current_;
};

}  // namespace parcoll::sim
