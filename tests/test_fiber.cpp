// ucontext fibers: resume/yield mechanics and stack isolation.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "sim/fiber.hpp"

namespace parcoll::sim {
namespace {

TEST(Fiber, RunsToCompletionWithoutYield) {
  int state = 0;
  Fiber fiber([&] { state = 42; });
  EXPECT_FALSE(fiber.finished());
  fiber.resume();
  EXPECT_TRUE(fiber.finished());
  EXPECT_EQ(state, 42);
}

TEST(Fiber, YieldReturnsControlAndResumesWhereItLeftOff) {
  std::vector<int> trace;
  Fiber fiber([&] {
    trace.push_back(1);
    Fiber::current()->yield();
    trace.push_back(3);
    Fiber::current()->yield();
    trace.push_back(5);
  });
  fiber.resume();
  trace.push_back(2);
  fiber.resume();
  trace.push_back(4);
  fiber.resume();
  EXPECT_TRUE(fiber.finished());
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, CurrentIsNullOutsideAndSelfInside) {
  EXPECT_EQ(Fiber::current(), nullptr);
  Fiber* seen = nullptr;
  Fiber fiber([&] { seen = Fiber::current(); });
  fiber.resume();
  EXPECT_EQ(seen, &fiber);
  EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, ResumingFinishedFiberThrows) {
  Fiber fiber([] {});
  fiber.resume();
  EXPECT_THROW(fiber.resume(), std::logic_error);
}

TEST(Fiber, LocalStateSurvivesYields) {
  long result = 0;
  Fiber fiber([&] {
    std::vector<int> locals(100);
    std::iota(locals.begin(), locals.end(), 1);
    Fiber::current()->yield();
    result = std::accumulate(locals.begin(), locals.end(), 0L);
  });
  fiber.resume();
  // Disturb the scheduler stack between resumes.
  std::vector<int> noise(4096, 7);
  fiber.resume();
  EXPECT_EQ(result, 5050);
  EXPECT_GT(noise.size(), 0u);
}

TEST(Fiber, UnwindDestroysTheSuspendedStack) {
  struct Guard {
    int* count;
    ~Guard() { ++*count; }
  };
  int destroyed = 0;
  int caught = 0;
  bool resumed = false;
  Fiber fiber([&] {
    Guard outer{&destroyed};
    try {
      Guard inner{&destroyed};
      Fiber::current()->yield();
      resumed = true;
    } catch (...) {
      // A handler that swallows the unwind and yields again cannot keep
      // the fiber alive: the second yield throws at once.
      ++caught;
      Fiber::current()->yield();
      resumed = true;
    }
  });
  fiber.resume();
  EXPECT_EQ(destroyed, 0);
  fiber.unwind();
  EXPECT_TRUE(fiber.finished());
  EXPECT_FALSE(resumed);
  EXPECT_EQ(caught, 1);
  EXPECT_EQ(destroyed, 2);
  fiber.unwind();  // finished: a no-op
}

TEST(Fiber, ManyFibersInterleave) {
  constexpr int kFibers = 64;
  std::vector<std::unique_ptr<Fiber>> fibers;
  std::vector<int> counters(kFibers, 0);
  for (int i = 0; i < kFibers; ++i) {
    fibers.push_back(std::make_unique<Fiber>([&counters, i] {
      for (int round = 0; round < 3; ++round) {
        ++counters[static_cast<std::size_t>(i)];
        Fiber::current()->yield();
      }
    }));
  }
  for (int round = 0; round < 3; ++round) {
    for (auto& fiber : fibers) {
      fiber->resume();
    }
  }
  for (auto& fiber : fibers) {
    fiber->resume();  // let bodies return
    EXPECT_TRUE(fiber->finished());
  }
  for (int count : counters) {
    EXPECT_EQ(count, 3);
  }
}

}  // namespace
}  // namespace parcoll::sim
