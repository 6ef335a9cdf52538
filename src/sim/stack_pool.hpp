// Fiber stack pool.
//
// Spawning one fiber per simulated rank used to allocate (and at 256 KiB,
// mmap) a fresh stack per process and free it at exit. At 100k ranks that
// is 100k mmap/munmap round trips and a cold page walk per fiber. The pool
// recycles the stacks of finished fibers keyed by size, so a run's steady
// state allocates only as many stacks as are ever live at once.
//
// Stacks are carved sequentially from large slabs instead of allocated one
// by one. Beyond saving the per-stack allocator round trip, the slabs are
// 2 MiB-aligned and marked MADV_HUGEPAGE: with tens of thousands of live
// fibers the working set is one or two touched pages per scattered stack,
// and the resulting dTLB miss per context switch is a measurable slice of
// the event loop. Huge-page-backed contiguous stacks cut the TLB footprint
// by ~512x.
//
// Slab memory outlives the pool that mapped it: a dying pool (with the
// engine that owns it) hands its slabs to a per-thread spare list, and the
// next pool on the thread carves from a spare slab before it maps a new
// one. A process that runs many simulations one after another therefore
// maps and first-touches its fiber stacks once; the spare slabs are
// returned to the OS when the thread exits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <new>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#define PARCOLL_STACK_SLABS 1
#endif

#if defined(__SANITIZE_ADDRESS__)
#define PARCOLL_STACK_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PARCOLL_STACK_POOL_ASAN 1
#endif
#endif
#if defined(PARCOLL_STACK_POOL_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace parcoll::sim {

class FiberStackPool {
 public:
  FiberStackPool() = default;
  FiberStackPool(const FiberStackPool&) = delete;
  FiberStackPool& operator=(const FiberStackPool&) = delete;

  ~FiberStackPool() {
    // Last slab first, so the next pool takes them back in this pool's
    // order: a simulation that spawns the same fibers gets the same
    // stacks, and touches no page that this one left untouched.
    std::vector<Slab>& spare = spares().slabs;
    for (auto slab = slabs_.rbegin(); slab != slabs_.rend(); ++slab) {
#if defined(PARCOLL_STACK_POOL_ASAN)
      // A fiber destroyed mid-call leaves poisoned frames behind; the next
      // pool's stacks start clean, as freshly mapped ones would.
      ASAN_UNPOISON_MEMORY_REGION(slab->base, slab->bytes);
#endif
      spare.push_back(*slab);
    }
  }

  /// A recycled stack of exactly `bytes`, or a fresh carve from a slab.
  char* acquire(std::size_t bytes) {
    std::vector<char*>& shelf = free_[bytes];
    if (!shelf.empty()) {
      char* stack = shelf.back();
      shelf.pop_back();
      ++reused_;
      return stack;
    }
    ++allocated_;
    return carve(bytes);
  }

  void release(std::size_t bytes, char* stack) {
    free_[bytes].push_back(stack);
  }

  /// Stacks that had to be newly carved (pool misses).
  [[nodiscard]] std::uint64_t allocated() const { return allocated_; }
  /// Stacks served from the freelist (pool hits).
  [[nodiscard]] std::uint64_t reused() const { return reused_; }
  /// Slabs this pool mapped because no spare slab was large enough.
  [[nodiscard]] std::uint64_t slabs_mapped() const { return mapped_; }

 private:
  static constexpr std::size_t kSlabAlign = 2 * 1024 * 1024;  // THP size
  static constexpr std::size_t kSlabBytes = 8 * 1024 * 1024;

  struct Slab {
    char* base;
    std::size_t bytes;
  };

  /// The slabs of this thread's dead pools, released at thread exit.
  struct SpareSlabs {
    std::vector<Slab> slabs;
    ~SpareSlabs() {
      for (const Slab& slab : slabs) unmap(slab);
    }
  };
  static SpareSlabs& spares() {
    thread_local SpareSlabs spare;
    return spare;
  }

  char* carve(std::size_t bytes) {
    // Page-granular stride keeps every stack's deep end (the canary page)
    // page-aligned within the slab.
    const std::size_t stride = (bytes + 4095) / 4096 * 4096;
    if (cursor_remaining_ < stride) {
      new_slab(stride);
    }
    char* stack = cursor_;
    cursor_ += stride;
    cursor_remaining_ -= stride;
    return stack;
  }

  void new_slab(std::size_t at_least) {
    std::size_t slab_bytes = kSlabBytes;
    while (slab_bytes < at_least) {
      slab_bytes += kSlabAlign;
    }
    // The most recently retired spare that is large enough, else a new map.
    std::vector<Slab>& spare = spares().slabs;
    Slab slab{nullptr, 0};
    for (std::size_t i = spare.size(); i-- > 0;) {
      if (spare[i].bytes >= slab_bytes) {
        slab = spare[i];
        spare.erase(spare.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    if (slab.base == nullptr) {
      slab = map(slab_bytes);
      ++mapped_;
    }
    slabs_.push_back(slab);
    cursor_ = slab.base;
    cursor_remaining_ = slab.bytes;
  }

  static Slab map(std::size_t slab_bytes) {
#if defined(PARCOLL_STACK_SLABS)
    // Over-map by one alignment unit and trim so the kept range is 2 MiB-
    // aligned; only aligned ranges are eligible for huge-page collapse.
    const std::size_t mapped = slab_bytes + kSlabAlign;
    void* raw = ::mmap(nullptr, mapped, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED) {
      throw std::bad_alloc();
    }
    auto addr = reinterpret_cast<std::uintptr_t>(raw);
    const std::uintptr_t aligned = (addr + kSlabAlign - 1) & ~(kSlabAlign - 1);
    if (aligned > addr) {
      ::munmap(raw, aligned - addr);
    }
    const std::uintptr_t tail = aligned + slab_bytes;
    const std::uintptr_t mapped_end = addr + mapped;
    if (mapped_end > tail) {
      ::munmap(reinterpret_cast<void*>(tail), mapped_end - tail);
    }
    char* base = reinterpret_cast<char*>(aligned);
    ::madvise(base, slab_bytes, MADV_HUGEPAGE);
    return Slab{base, slab_bytes};
#else
    return Slab{new char[slab_bytes], slab_bytes};
#endif
  }

  static void unmap(const Slab& slab) {
#if defined(PARCOLL_STACK_SLABS)
    ::munmap(slab.base, slab.bytes);
#else
    delete[] slab.base;
#endif
  }

  std::vector<Slab> slabs_;
  std::map<std::size_t, std::vector<char*>> free_;
  char* cursor_ = nullptr;
  std::size_t cursor_remaining_ = 0;
  std::uint64_t allocated_ = 0;
  std::uint64_t reused_ = 0;
  std::uint64_t mapped_ = 0;
};

}  // namespace parcoll::sim
