#include <atomic>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "utils/check.h"
#include "utils/flags.h"
#include "utils/rng.h"
#include "utils/stopwatch.h"
#include "utils/thread_pool.h"

namespace imdiff {
namespace {

TEST(CheckTest, PassingConditionIsSilent) {
  IMDIFF_CHECK(1 + 1 == 2) << "never shown";
  IMDIFF_CHECK_EQ(3, 3);
  IMDIFF_CHECK_LT(1, 2);
  SUCCEED();
}

TEST(CheckDeathTest, FailingConditionAborts) {
  EXPECT_DEATH(IMDIFF_CHECK(false) << "boom", "check failed");
  EXPECT_DEATH(IMDIFF_CHECK_EQ(1, 2), "1 +vs +2");
}

TEST(FlagsTest, ParsesWholeNumbersThatFit) {
  EXPECT_EQ(FlagValue<int64_t>("--block", "-12"), -12);
  EXPECT_EQ(FlagValue<int>("--workers", "2147483647"), 2147483647);
  EXPECT_EQ(FlagValue<uint64_t>("--seed", "18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(FlagValue<double>("--flush-ms", "10.000000"), 10.0);
  EXPECT_EQ(FlagValue<double>("--deadline-ms", "1e3"), 1000.0);
}

TEST(FlagsDeathTest, RejectsWhatAtoiWouldCoerceNamingTheFlag) {
  EXPECT_DEATH(FlagValue<int64_t>("--block", "12x"), "--block wants .*'12x'");
  EXPECT_DEATH(FlagValue<int64_t>("--queue", ""), "--queue wants .*''");
  EXPECT_DEATH(FlagValue<int64_t>("--total-samples", "9223372036854775808"),
               "--total-samples wants an integer in");
  EXPECT_DEATH(FlagValue<int>("--workers", "2147483648"), "--workers wants");
  EXPECT_DEATH(FlagValue<uint64_t>("--seed", "-1"), "--seed wants");
  EXPECT_DEATH(FlagValue<double>("--flush-ms", "1e999"),
               "--flush-ms wants a finite number, got '1e999'");
  EXPECT_DEATH(FlagValue<double>("--refresh-psi", "nan"), "--refresh-psi");
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(2);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(0, 3));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_TRUE(seen.count(0));
  EXPECT_TRUE(seen.count(3));
}

TEST(RngTest, BernoulliRespectsP) {
  Rng rng(3);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_GT(hits, 2600);
  EXPECT_LT(hits, 3400);
}

TEST(RngTest, ForkedChildrenDiffer) {
  Rng parent(4);
  Rng c1 = parent.Fork();
  Rng c2 = parent.Fork();
  // Two forks from the same parent are decorrelated.
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += c1.UniformInt(0, 1 << 30) == c2.UniformInt(0, 1 << 30);
  }
  EXPECT_LT(equal, 5);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  ParallelFor(&pool, 100, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForInlineWithoutPool) {
  int sum = 0;
  ParallelFor(nullptr, 10, [&sum](size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

// Regression: a throwing task used to escape WorkerLoop (std::terminate) and
// skip the in-flight bookkeeping, deadlocking Wait(). Now the first exception
// is rethrown from Wait() and the pool stays usable.
TEST(ThreadPoolTest, ThrowingTaskPropagatesFromWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([] { throw std::runtime_error("task boom"); });
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  EXPECT_EQ(counter.load(), 10);
  // The error is cleared; the pool keeps working.
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 11);
}

TEST(ThreadPoolTest, ParallelForRethrowsBodyException) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(ParallelFor(&pool, 100,
                           [&ran](size_t i) {
                             ran.fetch_add(1);
                             if (i == 37) throw std::runtime_error("body boom");
                           }),
               std::runtime_error);
  // The latch counted every task down and the pool stays usable.
  std::atomic<int> after{0};
  ParallelFor(&pool, 10, [&after](size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 10);
}

// Regression: ParallelFor issued from inside a pool task used to deadlock
// (every worker blocked in Wait with nobody left to drain the queue). Nested
// calls now run inline on the issuing worker.
TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(16 * 16);
  ParallelFor(&pool, 16, [&pool, &hits](size_t outer) {
    EXPECT_TRUE(pool.InWorkerThread());
    ParallelFor(&pool, 16, [&hits, outer](size_t inner) {
      hits[outer * 16 + inner].fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Two external threads issuing ParallelFor on one pool concurrently: each
// call waits on its own latch, so neither deadlocks nor returns before its
// own tasks finish (the old global in-flight wait could do both).
TEST(ThreadPoolTest, ConcurrentParallelForFromTwoThreads) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> a(256), b(256);
  std::thread ta([&] {
    for (int round = 0; round < 20; ++round) {
      ParallelFor(&pool, a.size(), [&a](size_t i) { a[i].fetch_add(1); });
    }
  });
  std::thread tb([&] {
    for (int round = 0; round < 20; ++round) {
      ParallelFor(&pool, b.size(), [&b](size_t i) { b[i].fetch_add(1); });
    }
  });
  ta.join();
  tb.join();
  for (const auto& h : a) EXPECT_EQ(h.load(), 20);
  for (const auto& h : b) EXPECT_EQ(h.load(), 20);
}

TEST(ComputePoolTest, SetComputeThreadsRebuildsPool) {
  SetComputeThreads(4);
  EXPECT_EQ(ComputeThreads(), 4u);
  ThreadPool* pool = ComputePool();
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->num_threads(), 4u);
  std::atomic<int> counter{0};
  ParallelFor(pool, 100, [&counter](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 100);
  // 1 = exact serial execution: no pool at all, ParallelFor runs inline.
  SetComputeThreads(1);
  EXPECT_EQ(ComputeThreads(), 1u);
  EXPECT_EQ(ComputePool(), nullptr);
}

// IMDIFF_NUM_THREADS is parsed whole: "4x" is not 4 and "abc" is not the
// hardware count. The threadsafe style re-executes the binary, so the child
// builds its pool from the variable instead of inheriting a forked one.
TEST(ComputePoolDeathTest, MalformedThreadCountAbortsNamingTheVariable) {
  const std::string style = ::testing::GTEST_FLAG(death_test_style);
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (const char* value : {"4x", "abc", "", "0", "-2"}) {
    EXPECT_DEATH(
        {
          setenv("IMDIFF_NUM_THREADS", value, 1);
          SetComputeThreads(0);
        },
        "IMDIFF_NUM_THREADS")
        << "'" << value << "'";
  }
  ::testing::GTEST_FLAG(death_test_style) = style;
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  const double t0 = sw.ElapsedSeconds();
  EXPECT_GE(t0, 0.0);
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  (void)sink;
  EXPECT_GE(sw.ElapsedSeconds(), t0);
  sw.Restart();
  EXPECT_LT(sw.ElapsedSeconds(), 1.0);
}

}  // namespace
}  // namespace imdiff
