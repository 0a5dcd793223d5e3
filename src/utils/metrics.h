// Process-wide observability: named counters, gauges, and latency histograms
// aggregated in a global registry, plus RAII scoped timers for per-phase
// tracing (IMDIFF_TRACE_SCOPE). This is the substrate for the BENCH_*.json
// perf trajectory: every harness binary can dump the registry with
// --metrics-out <path>, and bench_micro has a snapshot mode that exercises
// the instrumented phases end to end.
//
// Design (see DESIGN.md §10):
//  - Instruments are registered by name on first use and live for the
//    process lifetime; handles (raw pointers) stay valid across Reset().
//  - All mutation paths are lock-free (relaxed atomics / CAS loops), so
//    instruments may be hammered from pool workers without serialization.
//  - Collection is globally switchable: SetMetricsEnabled(false) turns
//    IMDIFF_TRACE_SCOPE and the thread-pool instrumentation into a single
//    relaxed atomic load — no clock reads, no recording.
//  - Naming convention: <layer>.<phase>_<unit>, e.g. "train.epoch_seconds",
//    "pool.queue_wait_seconds", "online.block_score_seconds". Dynamic
//    suffixes (detector/dataset names) are allowed on cold paths only.

#ifndef IMDIFF_UTILS_METRICS_H_
#define IMDIFF_UTILS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace imdiff {

// Monotonically increasing event count. All methods are thread-safe.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Last-written value (e.g. the most recent epoch loss). Thread-safe.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  // Atomic increment/decrement (CAS loop), for gauges that track a level
  // maintained by many threads — e.g. the serving layer's queue depth, where
  // concurrent Set(value() + d) calls would lose updates.
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Latency histogram over exponential buckets: bucket b counts observations in
// (bound(b-1), bound(b)] with bound(b) = 1µs · 2^b, covering ~1µs to ~18min;
// out-of-range observations land in the first/last bucket. Also tracks exact
// count/sum/min/max. Recording is a few relaxed atomics and one CAS loop, so
// concurrent recording from pool workers aggregates without locks.
class Histogram {
 public:
  static constexpr int kNumBuckets = 31;

  // Upper bound of bucket `b` in seconds (the last bucket is unbounded).
  static double BucketBound(int b);

  void Record(double seconds);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  // 0 when empty.
  double min() const;
  double max() const;
  double mean() const;
  int64_t bucket_count(int b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  // Upper bucket bound containing the q-quantile observation (q in [0, 1]),
  // clamped into [min(), max()] so estimates never leave the observed range
  // (q=0 returns min()); 0 when empty. Bucket resolution (factor 2) bounds
  // the error.
  double Percentile(double q) const;

  void Reset();

 private:
  std::atomic<int64_t> buckets_[kNumBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // Seeded at ±inf so the CAS-min/max loops need no first-observation
  // special case (a seeded sentinel store could race a concurrent Record
  // and lose its observation); min()/max() report 0 while empty.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

// Name-keyed singleton owning every instrument. Lookup takes a mutex (cold
// path — call sites cache the returned handle; IMDIFF_TRACE_SCOPE does so
// automatically via a function-local static). Handles remain valid for the
// process lifetime; Reset() zeroes values without invalidating them.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  // Zeroes every registered instrument (handles stay valid).
  void Reset();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  friend std::string MetricsToJson();
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// Global collection switch (default: enabled). Disabling reduces
// IMDIFF_TRACE_SCOPE and the pool instrumentation to one relaxed load.
bool MetricsEnabled();
void SetMetricsEnabled(bool enabled);

// Serializes the registry: {"counters": {...}, "gauges": {...},
// "histograms": {name: {count, sum, min, max, mean, p50, p90, p99,
// buckets: [{le, count}, ...]}}}. Buckets with zero count are omitted.
std::string MetricsToJson();

// Writes MetricsToJson() to `path`. Returns false on IO failure.
bool WriteMetricsJson(const std::string& path);

// Checks at startup that `path` will be writable at shutdown: opens it in
// append mode (preserving existing content) and, when the probe itself
// created the file, removes it again. Lets tools with --metrics-out /
// --kernels-out style flags fail fast instead of losing a whole run to a
// bad path.
bool ProbeWritable(const std::string& path);

// Peak resident set size of this process in kilobytes (getrusage ru_maxrss),
// or -1 where the platform does not expose it. Monotone over the process
// lifetime — load tests read it to assert bounded memory, not current usage.
int64_t ProcessPeakRssKb();

// Times a scope and records the elapsed seconds into `histogram` on
// destruction. A null histogram (or metrics disabled at construction)
// records nothing and skips the clock reads.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram)
      : histogram_(MetricsEnabled() ? histogram : nullptr) {
    if (histogram_ != nullptr) start_ = Clock::now();
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    if (histogram_ != nullptr) {
      histogram_->Record(
          std::chrono::duration<double>(Clock::now() - start_).count());
    }
  }

 private:
  using Clock = std::chrono::steady_clock;
  Histogram* histogram_;
  Clock::time_point start_;
};

}  // namespace imdiff

// Times the enclosing scope into the named histogram. The registry lookup
// happens once per call site (function-local static); per-execution cost is
// one relaxed load plus, when enabled, two steady_clock reads and a
// lock-free Record. `name` must be a string literal (one histogram per
// call site).
#define IMDIFF_TRACE_CONCAT_INNER(a, b) a##b
#define IMDIFF_TRACE_CONCAT(a, b) IMDIFF_TRACE_CONCAT_INNER(a, b)
#define IMDIFF_TRACE_SCOPE(name)                                            \
  static ::imdiff::Histogram* const IMDIFF_TRACE_CONCAT(                    \
      imdiff_trace_hist_, __LINE__) =                                       \
      ::imdiff::MetricsRegistry::Global().GetHistogram(name);               \
  ::imdiff::ScopedTimer IMDIFF_TRACE_CONCAT(imdiff_trace_timer_, __LINE__)( \
      IMDIFF_TRACE_CONCAT(imdiff_trace_hist_, __LINE__))

#endif  // IMDIFF_UTILS_METRICS_H_
