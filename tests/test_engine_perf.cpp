// Engine scaling layer: event queue order exactness, golden
// bit-identity pins, stack-pool reuse under churn and across engines,
// the stack canary on a reused slab, WaitQueue FIFO at
// depth, deadlock message stability, stack-size knob validation, and
// rejection of non-finite event times.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "sim/callback.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/small_vector.hpp"
#include "workloads/ior.hpp"
#include "workloads/tileio.hpp"

namespace parcoll {
namespace {

using sim::Engine;
using sim::EventQueue;
using sim::QueuedEvent;
using sim::WaitQueue;

bool ordered_before(const QueuedEvent& a, const QueuedEvent& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

struct OrderedBefore {
  bool operator()(const QueuedEvent& a, const QueuedEvent& b) const {
    return ordered_before(a, b);
  }
};

/// The event queue and a sorted reference, driven through the same
/// operations. After every push and pop the queue's whole view must match
/// the reference: the minimum (peek, min_time), size, peak depth and the
/// prefetch hint, which names the second event's pid (-1 for a callback or
/// when there is none).
class QueueHarness {
 public:
  void push(const QueuedEvent& event) {
    queue_.push(event);
    reference_.insert(event);
    peak_ = std::max(peak_, reference_.size());
    check();
  }

  QueuedEvent pop() {
    const QueuedEvent want = *reference_.begin();
    reference_.erase(reference_.begin());
    const QueuedEvent got = queue_.pop();
    EXPECT_EQ(got.time, want.time) << "pop " << pops_;
    EXPECT_EQ(got.seq, want.seq) << "pop " << pops_;
    EXPECT_EQ(got.pid, want.pid) << "pop " << pops_;
    EXPECT_EQ(got.cb, want.cb) << "pop " << pops_;
    ++pops_;
    check();
    return got;
  }

  /// Engine::pop_next under an exploring policy: pop every event tied at
  /// the minimal time, run the `chosen`-th, re-push the others with their
  /// original seqs.
  QueuedEvent choice_point(std::uint64_t chosen) {
    std::vector<QueuedEvent> ties{pop()};
    while (!empty() && queue_.min_time() == ties.front().time) {
      ties.push_back(pop());
    }
    const std::size_t pick = chosen % ties.size();
    for (std::size_t i = 0; i < ties.size(); ++i) {
      if (i != pick) push(ties[i]);
    }
    return ties[pick];
  }

  [[nodiscard]] bool empty() const { return reference_.empty(); }
  [[nodiscard]] std::size_t size() const { return reference_.size(); }
  [[nodiscard]] double min_time() const { return reference_.begin()->time; }

 private:
  void check() const {
    ASSERT_EQ(queue_.size(), reference_.size()) << "after " << pops_ << " pops";
    EXPECT_EQ(queue_.empty(), reference_.empty());
    EXPECT_EQ(queue_.peak_depth(), peak_);
    if (reference_.empty()) {
      EXPECT_EQ(queue_.second_pid_hint(), -1);
      return;
    }
    const QueuedEvent& first = *reference_.begin();
    const QueuedEvent peeked = queue_.peek();
    EXPECT_EQ(peeked.time, first.time) << "after " << pops_ << " pops";
    EXPECT_EQ(peeked.seq, first.seq) << "after " << pops_ << " pops";
    EXPECT_EQ(peeked.pid, first.pid);
    EXPECT_EQ(queue_.min_time(), first.time);
    const auto second = std::next(reference_.begin());
    EXPECT_EQ(queue_.second_pid_hint(),
              second == reference_.end() ? -1 : second->pid)
        << "after " << pops_ << " pops";
  }

  EventQueue queue_;
  std::set<QueuedEvent, OrderedBefore> reference_;
  std::size_t peak_ = 0;
  std::uint64_t pops_ = 0;
};

/// Feed `pushes` in order, interleaved with random pops, then drain.
void check_against_reference(const std::vector<QueuedEvent>& pushes,
                             std::mt19937_64& rng) {
  QueueHarness harness;
  std::size_t fed = 0;
  while (fed < pushes.size() || !harness.empty()) {
    const bool can_push = fed < pushes.size();
    if (can_push && (harness.empty() || (rng() & 1) != 0)) {
      harness.push(pushes[fed++]);
    } else {
      harness.pop();
    }
    if (::testing::Test::HasFailure()) return;
  }
}

/// The ior-* shape: a collective's last arriver wakes k members at one
/// time, and each member, once it runs, pushes its own time plus the
/// phase's shared dt, so the next burst builds while this one drains.
/// Mixed in: posted callbacks, members that block instead, choice points
/// that re-push the losers, and re-pushes of just-popped events with
/// their old seqs while the open run still has later events at that time.
void run_lockstep(std::mt19937_64& rng, int bursts) {
  QueueHarness harness;
  std::uint64_t seq = 0;
  double now = 0.0;
  for (int burst = 0; burst < bursts; ++burst) {
    const int k = 1 + static_cast<int>(rng() % 48);
    const double dt = 1e-4 * static_cast<double>(1 + rng() % 7);
    const double wake = harness.empty() ? now : harness.min_time();
    for (int member = 0; member < k; ++member) {
      harness.push({wake, seq++, member, sim::kNoCallback});
      if (rng() % 16 == 0) {
        harness.push({wake, seq++, sim::kNoProc,
                      static_cast<std::uint32_t>(member)});
      }
    }
    // Drain about one burst's worth, each pop pushing its successor.
    for (int step = 0; step < k && !harness.empty(); ++step) {
      const std::uint64_t op = rng() % 16;
      QueuedEvent ran;
      if (op == 0) {
        ran = harness.choice_point(rng());
      } else if (op == 1 && harness.size() >= 2) {
        // Pop a few, re-push a random subset in seq order: old seqs, often
        // at the open run's time and below its last seq.
        std::vector<QueuedEvent> taken;
        const std::size_t most = std::min<std::size_t>(4, harness.size());
        const std::size_t count = 1 + rng() % most;
        for (std::size_t i = 0; i < count; ++i) taken.push_back(harness.pop());
        ran = taken.front();
        for (std::size_t i = 1; i < taken.size(); ++i) {
          if ((rng() & 1) != 0) harness.push(taken[i]);
        }
      } else {
        ran = harness.pop();
      }
      now = ran.time;
      if (ran.pid >= 0 && rng() % 8 != 0) {
        harness.push({ran.time + dt, seq++, ran.pid, sim::kNoCallback});
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
  while (!harness.empty()) {
    harness.pop();
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(EventQueue, MatchesReferenceOrderAcrossRegimes) {
  std::mt19937_64 rng(20260808);
  std::uint64_t seq = 0;
  std::vector<QueuedEvent> pushes;
  // Dense cluster of near-equal times, including exact duplicates (the
  // choice-point regime where only seq breaks ties).
  for (int i = 0; i < 2000; ++i) {
    const double t = 1e-6 * static_cast<double>(rng() % 64);
    pushes.push_back({t, seq++, static_cast<int>(i), 0});
    if ((rng() & 3) == 0) {
      pushes.push_back({t, seq++, static_cast<int>(i), 0});
    }
  }
  // Mixed mid-range horizon.
  for (int i = 0; i < 2000; ++i) {
    const double t = 1e-3 * std::uniform_real_distribution<>(0.0, 50.0)(rng);
    pushes.push_back({t, seq++, i, 0});
  }
  // Far-future spikes, plus events pushed "behind" them that still pop
  // first.
  for (int i = 0; i < 500; ++i) {
    pushes.push_back({1e6 + static_cast<double>(rng() % 1000), seq++, i, 0});
    pushes.push_back({1e-4 * static_cast<double>(rng() % 100), seq++, i, 0});
  }
  std::shuffle(pushes.begin(), pushes.end(), rng);
  check_against_reference(pushes, rng);
  if (HasFailure()) return;
  // The same multiset in push order: runs of equal times stay open across
  // pops and grow by appending.
  std::sort(pushes.begin(), pushes.end(), OrderedBefore());
  check_against_reference(pushes, rng);
  if (HasFailure()) return;
  // Lockstep bursts with pops between the pushes.
  run_lockstep(rng, 400);
}

TEST(EventQueue, RepushWithOriginalSeqKeepsPlaceInOrder) {
  // The schedule-exploration path pops tied events and re-pushes the losers
  // with their original seq; they must re-emerge exactly where they were.
  EventQueue queue;
  const double t = 0.5;
  for (std::uint64_t s = 0; s < 10; ++s) {
    queue.push({t, s, static_cast<int>(s), 0});
  }
  std::vector<QueuedEvent> ties;
  for (int i = 0; i < 10; ++i) {
    ties.push_back(queue.pop());
  }
  // Re-push all but the chosen one (say we scheduled seq 7 first).
  for (const QueuedEvent& event : ties) {
    if (event.seq != 7) queue.push(event);
  }
  std::uint64_t expect = 0;
  while (!queue.empty()) {
    const QueuedEvent got = queue.pop();
    if (expect == 7) ++expect;  // 7 already ran
    EXPECT_EQ(got.seq, expect);
    ++expect;
  }

  // Re-pushed while the burst is still open: seqs 1 and 2 come back below
  // the open run's last seq (9), then a fresh push at the same time
  // follows. Each must re-emerge in seq order, ahead of the unpopped tail.
  QueueHarness harness;
  for (std::uint64_t s = 0; s < 10; ++s) {
    harness.push({t, s, static_cast<int>(s), sim::kNoCallback});
  }
  std::vector<QueuedEvent> popped;
  for (int i = 0; i < 3; ++i) popped.push_back(harness.pop());
  harness.push(popped[1]);
  harness.push(popped[2]);
  harness.push({t, 10, 10, sim::kNoCallback});
  std::vector<std::uint64_t> order;
  while (!harness.empty()) order.push_back(harness.pop().seq);
  const std::vector<std::uint64_t> want = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(order, want);
}

TEST(EventQueue, FarFuturePostsPopInOrder) {
  // Horizons from a nanosecond to 10^6 seconds, all pending at once: the
  // engine must still run them in time order.
  Engine engine;
  std::vector<int> order;
  engine.post(1e-9, [&order] { order.push_back(-1); });
  for (int i = 0; i < 10; ++i) {
    engine.post(static_cast<double>(i + 1) * 1e5,
                [&order, i] { order.push_back(i); });
  }
  engine.run();
  ASSERT_EQ(order.size(), 11u);
  EXPECT_EQ(order.front(), -1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i) + 1], i);
  }
  EXPECT_EQ(engine.stats().peak_queue_depth, 11u);  // all posted before run()
}

// Golden values captured from the original engine (binary-heap queue,
// ucontext fibers, 256 KiB per-fiber stacks). The same pins guard
// bench/micro_engine; here they run under ctest so a plain test pass
// catches schedule drift without the bench.
TEST(EngineGolden, TileIoBitIdenticalToPrePrEngine) {
  workloads::RunSpec spec;
  spec.impl = workloads::Impl::ParColl;
  spec.parcoll_groups = 4;
  spec.min_group_size = 2;
  spec.byte_true = true;
  workloads::TileIOConfig tile;
  tile.tiles_x = 8;
  tile.tile_w = 16;
  tile.tile_h = 8;
  tile.elem_size = 8;
  const workloads::RunResult got = workloads::run_tileio(tile, 32, spec, true);
  EXPECT_EQ(got.file_digest, 2837233136922917773ull);
  EXPECT_EQ(got.schedule_token, "p");
  EXPECT_EQ(got.elapsed, 0.062553776237471187);
  EXPECT_EQ(got.total_elapsed, 0.063203776237471185);
  EXPECT_EQ(got.bytes, 32768u);
  EXPECT_EQ(got.fs_rpcs, 32u);
  EXPECT_TRUE(got.verified);
}

TEST(EngineGolden, IorBitIdenticalToPrePrEngine) {
  workloads::RunSpec spec;
  spec.impl = workloads::Impl::Ext2ph;
  spec.byte_true = true;
  workloads::IorConfig config;
  config.block_size = 256 << 10;
  config.xfer_size = 64 << 10;
  const workloads::RunResult got = workloads::run_ior(config, 32, spec, true);
  EXPECT_EQ(got.file_digest, 372189963690044911ull);
  EXPECT_EQ(got.schedule_token, "p");
  EXPECT_EQ(got.elapsed, 0.11984201252554912);
  EXPECT_EQ(got.total_elapsed, 0.12049201252554911);
  EXPECT_EQ(got.bytes, 8388608u);
  EXPECT_EQ(got.fs_rpcs, 128u);
  EXPECT_TRUE(got.verified);
}

TEST(StackPool, ChurnOfFiftyThousandFibersReusesStacks) {
  Engine engine;
  const int total = 50000;
  const int width = 32;
  int next = width;
  std::function<void()> body = [&engine, &body, &next, total] {
    engine.sleep(1e-6);
    if (next < total) {
      ++next;
      engine.spawn(body);
    }
  };
  for (int i = 0; i < width; ++i) {
    engine.spawn(body);
  }
  engine.run();
  const sim::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.fibers_spawned, static_cast<std::uint64_t>(total));
  // Steady state serves stacks from the pool: fresh allocations stay near
  // the live width, nowhere near the spawn count.
  EXPECT_LE(stats.stacks_allocated, static_cast<std::uint64_t>(4 * width));
  EXPECT_EQ(stats.stacks_allocated + stats.stacks_reused,
            static_cast<std::uint64_t>(total));
  EXPECT_GE(stats.stacks_reused, static_cast<std::uint64_t>(total - 4 * width));
  EXPECT_LE(stats.peak_live_fibers, static_cast<std::uint64_t>(width) + 1);
}

/// Spawn `width` fibers that each sleep once, run them, and return the
/// engine's stats.
sim::EngineStats run_sleepers(int width) {
  Engine engine;
  for (int i = 0; i < width; ++i) {
    engine.spawn([&engine] { engine.sleep(1e-3); });
  }
  engine.run();
  return engine.stats();
}

TEST(StackPool, SecondEngineOnTheThreadMapsNoNewSlab) {
  const sim::EngineStats first = run_sleepers(300);
  const sim::EngineStats second = run_sleepers(300);
  // The dead engine's slabs serve the next one; the stack counts keep
  // their per-engine meaning.
  EXPECT_EQ(second.stack_slabs_mapped, 0u);
  EXPECT_EQ(second.stacks_allocated, first.stacks_allocated);
  EXPECT_EQ(second.stacks_reused, first.stacks_reused);
  EXPECT_EQ(second.stacks_allocated, 300u);
}

/// Touches `depth` + 1 KiB of stack, one frame per KiB, with bytes that
/// are never the canary's.
int dig(int depth) {
  volatile char frame[1024];
  for (std::size_t i = 0; i < sizeof frame; ++i) {
    frame[i] = static_cast<char>(depth);
  }
  return depth == 0 ? frame[0] : dig(depth - 1) + frame[1];
}

TEST(StackPool, OverflowOnAReusedSlabTripsTheCanary) {
  run_sleepers(1);  // leaves a spare slab behind
  Engine engine;
  constexpr std::size_t kStack = 16 << 10;
  // The first fiber's stack sits below the second's in the slab and is
  // free by the time the second runs about 9 KiB past its own end.
  engine.spawn([] {}, kStack);
  engine.spawn([] { EXPECT_GE(dig(24), 0); }, kStack);
  try {
    engine.run();
    ADD_FAILURE() << "the overflow went unnoticed";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what())
                  .find("Engine: fiber stack overflow detected"),
              std::string::npos)
        << error.what();
  }
  EXPECT_EQ(engine.stats().stack_slabs_mapped, 0u);
}

TEST(WaitQueueDepth, FifoHoldsAcrossRingCompaction) {
  // notify_one compacts its drained prefix once the head passes 64; wake
  // order must stay strictly FIFO through the compaction boundary.
  Engine engine;
  WaitQueue wq;
  std::vector<int> woken;
  const int waiters = 200;
  for (int i = 0; i < waiters; ++i) {
    engine.spawn([&engine, &wq, &woken, i] {
      wq.wait(engine, "fifo-test");
      woken.push_back(i);
    });
  }
  engine.spawn([&engine, &wq, waiters] {
    engine.sleep(1.0);
    // 200 queued waiters: the head crosses the >64 compaction threshold
    // while a long live tail is still parked behind it.
    for (int i = 0; i < waiters; ++i) {
      ASSERT_TRUE(wq.notify_one(engine));
      engine.sleep(1e-6);
    }
    ASSERT_FALSE(wq.notify_one(engine));
  });
  engine.run();
  ASSERT_EQ(woken.size(), static_cast<std::size_t>(waiters));
  for (int i = 0; i < waiters; ++i) {
    EXPECT_EQ(woken[static_cast<std::size_t>(i)], i) << "wake order broke";
  }
  EXPECT_TRUE(wq.empty());
}

TEST(Deadlock, MessageFormatIsStable) {
  // The exact text is load-bearing: operators grep for it, and the replay
  // token inside it feeds parcoll_sim --schedule-replay.
  Engine engine;
  engine.spawn([&engine] { engine.suspend("waiting for data"); });
  engine.spawn([&engine] {
    engine.sleep(2.5);
    engine.suspend("collective");
  });
  try {
    engine.run();
    FAIL() << "expected DeadlockError";
  } catch (const sim::DeadlockError& err) {
    EXPECT_STREQ(err.what(),
                 "simulation deadlock at t=2.5s; schedule=p; blocked "
                 "processes: [pid 0: waiting for data] [pid 1: collective]");
  }
}

TEST(StackKnobs, EngineRejectsBelowFloor) {
  Engine engine;
  EXPECT_THROW(engine.set_default_stack_bytes(Engine::kMinStackBytes - 1),
               std::invalid_argument);
  EXPECT_THROW(engine.spawn([] {}, 1024), std::invalid_argument);
  // At the floor and above: accepted.
  engine.set_default_stack_bytes(Engine::kMinStackBytes);
  engine.spawn([] {}, Engine::kMinStackBytes);
  engine.run();
}

TEST(StackKnobs, RunSpecRejectsBelowFloor) {
  workloads::RunSpec spec;
  spec.impl = workloads::Impl::Ext2ph;
  spec.stack_bytes = Engine::kMinStackBytes / 2;
  workloads::IorConfig config;
  config.block_size = 64 << 10;
  config.xfer_size = 64 << 10;
  EXPECT_THROW(workloads::run_ior(config, 4, spec, true),
               std::invalid_argument);
}

TEST(StackKnobs, ExplicitStackBytesRunsIdentically) {
  workloads::RunSpec spec;
  spec.impl = workloads::Impl::Ext2ph;
  spec.byte_true = true;
  workloads::IorConfig config;
  config.block_size = 256 << 10;
  config.xfer_size = 64 << 10;
  const workloads::RunResult base = workloads::run_ior(config, 8, spec, true);
  spec.stack_bytes = 128 * 1024;
  const workloads::RunResult big = workloads::run_ior(config, 8, spec, true);
  // Stack size is host plumbing; the simulation must not notice.
  EXPECT_EQ(big.file_digest, base.file_digest);
  EXPECT_EQ(big.elapsed, base.elapsed);
  EXPECT_EQ(big.schedule_token, base.schedule_token);
  EXPECT_EQ(big.engine.default_stack_bytes, 128u * 1024u);
}

TEST(EngineTimes, NonFiniteTimesThrowLogicError) {
  // The run queue needs a total order on time: a NaN would land anywhere
  // in it, and an infinity never comes due. Every call that queues an
  // event refuses both up front, as it refuses a time in the past.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Engine engine;
  int ran = 0;
  for (const double bad : {nan, inf, -inf}) {
    EXPECT_THROW(engine.post(bad, [&ran] { ++ran; }), std::logic_error)
        << bad;
  }
  const sim::ProcId sleeper =
      engine.spawn([&engine] { engine.suspend("woken below"); });
  engine.spawn([&engine, sleeper, nan, inf] {
    for (const double bad : {nan, inf, -inf}) {
      EXPECT_THROW(engine.sleep(bad), std::logic_error) << bad;
      EXPECT_THROW(engine.sleep_until(bad), std::logic_error) << bad;
      EXPECT_THROW(engine.wake_at(bad, sleeper), std::logic_error) << bad;
    }
    engine.wake_at(engine.now() + 1.0, sleeper);
  });
  engine.run();
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(engine.now(), 1.0);
  EXPECT_EQ(engine.stats().events_executed, 3u);
}

TEST(SmallCallback, OversizedCaptureTakesHeapPathAndRuns) {
  struct Big {
    char payload[200];
    int* out;
    int value;
  };
  static_assert(sizeof(Big) > sim::SmallCallback::kInlineBytes);
  int result = 0;
  Big big{};
  big.out = &result;
  big.value = 42;
  Engine engine;
  engine.post(1.0, [big] { *big.out = big.value; });
  // And an inline-sized one alongside, same event path.
  int small_result = 0;
  engine.post(2.0, [&small_result] { small_result = 7; });
  engine.run();
  EXPECT_EQ(result, 42);
  EXPECT_EQ(small_result, 7);
  EXPECT_EQ(engine.stats().callback_events, 2u);
}

TEST(SmallVector, SpillsToTheHeapAndMovesWithoutLeaks) {
  // Elements that count themselves, so every construct has its destroy.
  static int live = 0;
  struct Counted {
    int value = 0;
    Counted() { ++live; }
    explicit Counted(int v) : value(v) { ++live; }
    Counted(Counted&& other) noexcept : value(other.value) { ++live; }
    Counted& operator=(Counted&&) noexcept = default;
    ~Counted() { --live; }
  };
  {
    sim::SmallVector<Counted, 4> inline_only;
    for (int i = 0; i < 3; ++i) inline_only.emplace_back(i);
    sim::SmallVector<Counted, 4> spilled;
    for (int i = 0; i < 11; ++i) spilled.emplace_back(i);
    EXPECT_EQ(live, 14);

    sim::SmallVector<Counted, 4> moved_inline(std::move(inline_only));
    sim::SmallVector<Counted, 4> moved_heap(std::move(spilled));
    EXPECT_TRUE(inline_only.empty());
    EXPECT_TRUE(spilled.empty());
    EXPECT_EQ(live, 14);
    ASSERT_EQ(moved_heap.size(), 11u);
    for (int i = 0; i < 11; ++i) EXPECT_EQ(moved_heap[i].value, i);
    EXPECT_EQ(moved_inline.back().value, 2);

    moved_heap = std::move(moved_inline);
    EXPECT_EQ(live, 3);
    moved_heap.resize(6);
    EXPECT_EQ(moved_heap[5].value, 0);
    moved_heap.resize(1);
    EXPECT_EQ(live, 1);
  }
  EXPECT_EQ(live, 0);
}

}  // namespace
}  // namespace parcoll
