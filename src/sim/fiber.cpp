#include "sim/fiber.hpp"

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "sim/stack_pool.hpp"

// Context switches move stacks behind AddressSanitizer's back. Without the
// fiber annotations ASan believes the OS thread stack is still current, so
// an exception thrown on a fiber stack (__asan_handle_no_return) unpoisons
// the wrong region and aborts with a bogus stack-use-after-scope. Announce
// every switch when compiled with ASan; plain builds compile the hooks away.
#if defined(__SANITIZE_ADDRESS__)
#define PARCOLL_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PARCOLL_ASAN_FIBERS 1
#endif
#endif

#if defined(PARCOLL_ASAN_FIBERS)
#include <sanitizer/common_interface_defs.h>
#endif

namespace parcoll::sim {
namespace {

inline void asan_start_switch([[maybe_unused]] void** save,
                              [[maybe_unused]] const void* target_bottom,
                              [[maybe_unused]] std::size_t target_size) {
#if defined(PARCOLL_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(save, target_bottom, target_size);
#endif
}

inline void asan_finish_switch([[maybe_unused]] void* saved,
                               [[maybe_unused]] const void** old_bottom,
                               [[maybe_unused]] std::size_t* old_size) {
#if defined(PARCOLL_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(saved, old_bottom, old_size);
#endif
}

constexpr unsigned char kCanaryByte = 0x5a;

/// Thrown out of yield() into a fiber being unwound; run_body drops it.
struct Unwind {};

}  // namespace

thread_local Fiber* Fiber::current_ = nullptr;

#if defined(PARCOLL_FAST_CONTEXT)

// The switch saves the SysV callee-saved registers plus the SSE/x87 control
// words on the outgoing stack, stores the stack pointer through the first
// argument, and restores the incoming stack the same way. No signal-mask
// syscalls — the whole reason this path exists.
extern "C" void parcoll_ctx_swap(void** save_sp, void* restore_sp);
extern "C" void parcoll_ctx_entry();

asm(R"(
    .text
    .align 16
    .globl parcoll_ctx_swap
    .type parcoll_ctx_swap, @function
parcoll_ctx_swap:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $8, %rsp
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
    .size parcoll_ctx_swap, .-parcoll_ctx_swap

    .align 16
    .globl parcoll_ctx_entry
    .type parcoll_ctx_entry, @function
parcoll_ctx_entry:
    movq %r12, %rdi
    callq parcoll_fiber_entry
    ud2
    .size parcoll_ctx_entry, .-parcoll_ctx_entry

    .section .note.GNU-stack,"",@progbits
    .text
)");

void fiber_entry_thunk(Fiber* self) {
  // First time on this stack: complete the switch the scheduler started and
  // learn the scheduler stack bounds for the trips back.
  asan_finish_switch(nullptr, &self->asan_sched_stack_bottom_,
                     &self->asan_sched_stack_size_);
  self->run_body();
  // The fiber is done for good, so pass no save slot: ASan frees its fake
  // stack. The final swap never returns here.
  asan_start_switch(nullptr, self->asan_sched_stack_bottom_,
                    self->asan_sched_stack_size_);
  parcoll_ctx_swap(&self->ctx_sp_, self->link_sp_);
}

extern "C" void parcoll_fiber_entry(void* self) {
  fiber_entry_thunk(static_cast<Fiber*>(self));
  __builtin_unreachable();
}

Fiber::Fiber(Body body, std::size_t stack_bytes, FiberStackPool* pool)
    : stack_(pool != nullptr ? pool->acquire(stack_bytes) : nullptr),
      stack_bytes_(stack_bytes),
      pool_(pool),
      body_(std::move(body)) {
  if (stack_ == nullptr) {
    owned_stack_.reset(new char[stack_bytes]);
    stack_ = owned_stack_.get();
  }
  std::memset(stack_, kCanaryByte, kCanaryBytes);
  // Build the frame parcoll_ctx_swap restores from: control words, six
  // callee-saved registers (r12 carries `this` into parcoll_ctx_entry), and
  // a return address. The return-address slot sits at top-8 so the entry
  // thunk observes the 16-byte alignment the SysV ABI promises at a call.
  auto top = reinterpret_cast<std::uintptr_t>(stack_) + stack_bytes;
  top &= ~static_cast<std::uintptr_t>(15);
  auto* frame = reinterpret_cast<std::uint64_t*>(top - 64);
  std::uint32_t mxcsr = 0;
  std::uint16_t fcw = 0;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fcw));
  frame[0] = (static_cast<std::uint64_t>(fcw) << 32) | mxcsr;
  frame[1] = 0;                                      // r15
  frame[2] = 0;                                      // r14
  frame[3] = 0;                                      // r13
  frame[4] = reinterpret_cast<std::uint64_t>(this);  // r12
  frame[5] = 0;                                      // rbx
  frame[6] = 0;                                      // rbp
  frame[7] = reinterpret_cast<std::uint64_t>(&parcoll_ctx_entry);
  ctx_sp_ = frame;
}

void Fiber::resume() {
  if (finished_) {
    throw std::logic_error("Fiber::resume on finished fiber");
  }
  if (current_ != nullptr) {
    throw std::logic_error("Fiber::resume called from inside a fiber");
  }
  started_ = true;
  current_ = this;
  void* sched_fake_stack = nullptr;
  asan_start_switch(&sched_fake_stack, stack_, stack_bytes_);
  parcoll_ctx_swap(&link_sp_, ctx_sp_);
  asan_finish_switch(sched_fake_stack, nullptr, nullptr);
  // Back on the scheduler: either the fiber yielded or it finished.
  if (finished_ && exception_) {
    std::exception_ptr rethrown = std::exchange(exception_, nullptr);
    std::rethrow_exception(rethrown);
  }
}

void Fiber::yield() {
  if (current_ != this) {
    throw std::logic_error("Fiber::yield called from the wrong context");
  }
  if (unwinding_) throw Unwind{};
  current_ = nullptr;
  asan_start_switch(&asan_fake_stack_, asan_sched_stack_bottom_,
                    asan_sched_stack_size_);
  parcoll_ctx_swap(&ctx_sp_, link_sp_);
  asan_finish_switch(asan_fake_stack_, &asan_sched_stack_bottom_,
                     &asan_sched_stack_size_);
  current_ = this;
  if (unwinding_) throw Unwind{};
}

#else  // ucontext fallback

Fiber::Fiber(Body body, std::size_t stack_bytes, FiberStackPool* pool)
    : stack_(pool != nullptr ? pool->acquire(stack_bytes) : nullptr),
      stack_bytes_(stack_bytes),
      pool_(pool),
      body_(std::move(body)) {
  if (stack_ == nullptr) {
    owned_stack_.reset(new char[stack_bytes]);
    stack_ = owned_stack_.get();
  }
  std::memset(stack_, kCanaryByte, kCanaryBytes);
  if (getcontext(&context_) != 0) {
    throw std::runtime_error("Fiber: getcontext failed");
  }
  context_.uc_stack.ss_sp = stack_;
  context_.uc_stack.ss_size = stack_bytes;
  context_.uc_link = &return_point_;
  // makecontext only passes ints, so smuggle `this` through two halves.
  auto self = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
              static_cast<unsigned int>(self >> 32),
              static_cast<unsigned int>(self & 0xffffffffu));
}

void Fiber::trampoline(unsigned int ptr_hi, unsigned int ptr_lo) {
  auto self = reinterpret_cast<Fiber*>(
      (static_cast<std::uintptr_t>(ptr_hi) << 32) |
      static_cast<std::uintptr_t>(ptr_lo));
  // First time on this stack: complete the switch the scheduler started and
  // learn the scheduler stack bounds for the trips back.
  asan_finish_switch(nullptr, &self->asan_sched_stack_bottom_,
                     &self->asan_sched_stack_size_);
  self->run_body();
  // Returning lets ucontext follow uc_link back to return_point_. The fiber
  // is done for good, so pass no save slot: ASan frees its fake stack.
  asan_start_switch(nullptr, self->asan_sched_stack_bottom_,
                    self->asan_sched_stack_size_);
}

void Fiber::resume() {
  if (finished_) {
    throw std::logic_error("Fiber::resume on finished fiber");
  }
  if (current_ != nullptr) {
    throw std::logic_error("Fiber::resume called from inside a fiber");
  }
  started_ = true;
  current_ = this;
  void* sched_fake_stack = nullptr;
  asan_start_switch(&sched_fake_stack, stack_, stack_bytes_);
  swapcontext(&return_point_, &context_);
  asan_finish_switch(sched_fake_stack, nullptr, nullptr);
  // Back on the scheduler: either the fiber yielded or it finished.
  if (finished_ && exception_) {
    std::exception_ptr rethrown = std::exchange(exception_, nullptr);
    std::rethrow_exception(rethrown);
  }
}

void Fiber::yield() {
  if (current_ != this) {
    throw std::logic_error("Fiber::yield called from the wrong context");
  }
  if (unwinding_) throw Unwind{};
  current_ = nullptr;
  asan_start_switch(&asan_fake_stack_, asan_sched_stack_bottom_,
                    asan_sched_stack_size_);
  swapcontext(&context_, &return_point_);
  asan_finish_switch(asan_fake_stack_, &asan_sched_stack_bottom_,
                     &asan_sched_stack_size_);
  current_ = this;
  if (unwinding_) throw Unwind{};
}

#endif  // PARCOLL_FAST_CONTEXT

Fiber::~Fiber() {
  // A trampled (overflowed) stack is never recycled; its slab memory is
  // reclaimed when the pool itself is destroyed.
  if (pool_ != nullptr && stack_ != nullptr && stack_intact()) {
    pool_->release(stack_bytes_, stack_);
  }
}

void Fiber::unwind() {
  if (!started_ || finished_) return;
  unwinding_ = true;
  resume();
}

void Fiber::run_body() {
  try {
    body_();
  } catch (...) {
    // An unwound fiber's run has already ended: the sentinel, and anything
    // its handlers throw while unwinding, has nowhere to go.
    if (!unwinding_) exception_ = std::current_exception();
  }
  finished_ = true;
  current_ = nullptr;
}

bool Fiber::stack_intact() const {
  for (std::size_t i = 0; i < kCanaryBytes; ++i) {
    if (static_cast<unsigned char>(stack_[i]) != kCanaryByte) return false;
  }
  return true;
}

}  // namespace parcoll::sim
