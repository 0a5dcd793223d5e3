// Tests for the metrics/tracing observability layer (utils/metrics.h):
// registry identity, lock-free aggregation under ParallelFor, the scoped
// timer macro, the disabled path, and the JSON export.

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "utils/metrics.h"
#include "utils/thread_pool.h"

namespace imdiff {
namespace {

TEST(MetricsTest, CounterIncrementAndReset) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0);
}

TEST(MetricsTest, GaugeKeepsLastValue) {
  Gauge gauge;
  gauge.Set(1.5);
  gauge.Set(-2.25);
  EXPECT_DOUBLE_EQ(gauge.value(), -2.25);
}

TEST(MetricsTest, HistogramStatsAndPercentiles) {
  Histogram hist;
  EXPECT_EQ(hist.count(), 0);
  EXPECT_DOUBLE_EQ(hist.Percentile(0.5), 0.0);
  hist.Record(0.001);
  hist.Record(0.002);
  hist.Record(0.004);
  hist.Record(0.100);
  EXPECT_EQ(hist.count(), 4);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.107);
  EXPECT_DOUBLE_EQ(hist.min(), 0.001);
  EXPECT_DOUBLE_EQ(hist.max(), 0.100);
  EXPECT_DOUBLE_EQ(hist.mean(), 0.107 / 4);
  // Bucket bounds are powers of two of 1µs, so percentiles land on the
  // bound of the observation's bucket (capped at the exact max).
  EXPECT_GE(hist.Percentile(0.5), 0.002);
  EXPECT_LE(hist.Percentile(0.5), 0.004096);
  EXPECT_DOUBLE_EQ(hist.Percentile(1.0), 0.100);
}

// Regression: q=0 used to yield rank 0, so the loop exited on bucket 0 even
// when it was empty and returned min(BucketBound(0), max()) = 1µs instead of
// the observed minimum. Every estimate must also be clamped from below by
// min() so coarse buckets can never undercut the smallest recorded sample.
TEST(MetricsTest, PercentileZeroReturnsObservedMinimum) {
  Histogram hist;
  hist.Record(0.004);  // lands in a bucket whose lower bound is well above 1µs
  EXPECT_DOUBLE_EQ(hist.Percentile(0.0), 0.004);
  EXPECT_DOUBLE_EQ(hist.Percentile(-3.0), 0.004);  // clamped into [0, 1]
  // Never below the observed min, even for mid-range quantiles whose bucket
  // bound sits under it.
  for (double q : {0.0, 0.25, 0.5, 0.9, 1.0}) {
    EXPECT_GE(hist.Percentile(q), 0.004) << "q=" << q;
    EXPECT_LE(hist.Percentile(q), 0.004) << "q=" << q;
  }
  hist.Record(3.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(0.0), 0.004);
  EXPECT_GE(hist.Percentile(0.5), 0.004);
  EXPECT_DOUBLE_EQ(hist.Percentile(1.0), 3.0);
}

TEST(MetricsTest, RegistryReturnsStableHandles) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* a = registry.GetCounter("test.registry.counter");
  Counter* b = registry.GetCounter("test.registry.counter");
  EXPECT_EQ(a, b);
  a->Increment();
  registry.Reset();
  // Reset zeroes values but never invalidates handles.
  EXPECT_EQ(registry.GetCounter("test.registry.counter"), a);
  EXPECT_EQ(a->value(), 0);
}

// The satellite requirement: counter and histogram aggregation must be exact
// when hammered by ParallelFor from 4 threads.
TEST(MetricsTest, AggregationExactUnderParallelFor) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* counter = registry.GetCounter("test.parallel.counter");
  Histogram* hist = registry.GetHistogram("test.parallel.hist_seconds");
  counter->Reset();
  hist->Reset();

  ThreadPool pool(4);
  constexpr size_t kIterations = 10000;
  ParallelFor(&pool, kIterations, [&](size_t i) {
    counter->Increment();
    // 1.0 is exactly representable, so the CAS-summed total is exact
    // regardless of accumulation order; alternate a second bucket value.
    hist->Record(i % 2 == 0 ? 1.0 : 0.5);
  });

  EXPECT_EQ(counter->value(), static_cast<int64_t>(kIterations));
  EXPECT_EQ(hist->count(), static_cast<int64_t>(kIterations));
  EXPECT_DOUBLE_EQ(hist->sum(), 10000 / 2 * 1.0 + 10000 / 2 * 0.5);
  EXPECT_DOUBLE_EQ(hist->min(), 0.5);
  EXPECT_DOUBLE_EQ(hist->max(), 1.0);
}

TEST(MetricsTest, TraceScopeRecordsElapsedTime) {
  Histogram* hist =
      MetricsRegistry::Global().GetHistogram("test.scope_seconds");
  hist->Reset();
  {
    IMDIFF_TRACE_SCOPE("test.scope_seconds");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(hist->count(), 1);
  EXPECT_GE(hist->sum(), 0.001);
}

TEST(MetricsTest, DisabledScopeRecordsNothing) {
  Histogram* hist =
      MetricsRegistry::Global().GetHistogram("test.disabled_seconds");
  hist->Reset();
  SetMetricsEnabled(false);
  {
    IMDIFF_TRACE_SCOPE("test.disabled_seconds");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  SetMetricsEnabled(true);
  EXPECT_EQ(hist->count(), 0);
}

TEST(MetricsTest, JsonExportContainsInstruments) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.json.counter")->Increment(7);
  registry.GetGauge("test.json.gauge")->Set(2.5);
  registry.GetHistogram("test.json.hist_seconds")->Record(0.003);

  const std::string json = MetricsToJson();
  EXPECT_NE(json.find("\"test.json.counter\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.gauge\": 2.5"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.hist_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
  // Structurally a JSON object with balanced braces.
  EXPECT_EQ(json.front(), '{');
  int depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(MetricsTest, JsonEscapesInstrumentNames) {
  MetricsRegistry::Global()
      .GetCounter("test.json.\"quoted\\name\"")
      ->Increment();
  const std::string json = MetricsToJson();
  EXPECT_NE(json.find("test.json.\\\"quoted\\\\name\\\""), std::string::npos);
}

// The thread-pool path itself is instrumented: pool tasks bump
// pool.tasks_executed and record execution latency.
TEST(MetricsTest, PoolTasksAreCounted) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* tasks = registry.GetCounter("pool.tasks_executed");
  Histogram* task_seconds = registry.GetHistogram("pool.task_seconds");
  const int64_t tasks_before = tasks->value();
  const int64_t recorded_before = task_seconds->count();

  ThreadPool pool(2);
  for (int i = 0; i < 8; ++i) {
    pool.Submit([] {});
  }
  pool.Wait();

  EXPECT_EQ(tasks->value(), tasks_before + 8);
  EXPECT_EQ(task_seconds->count(), recorded_before + 8);
}

}  // namespace
}  // namespace imdiff
