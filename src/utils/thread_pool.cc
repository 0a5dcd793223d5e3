#include "utils/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <thread>
#include <utility>

#include "utils/check.h"
#include "utils/fault.h"
#include "utils/flags.h"
#include "utils/metrics.h"

namespace imdiff {
namespace {

// Set inside WorkerLoop; lets ParallelFor detect re-entrant calls from a task
// running on this pool and fall back to inline execution.
thread_local ThreadPool* tls_worker_pool = nullptr;

// Registry handles for the pool instrumentation, resolved once. Tasks are
// chunk-granular (at most 4 × threads per ParallelFor), so the two clock
// reads per task are noise next to the chunk's work.
struct PoolMetrics {
  Counter* tasks_executed;
  Histogram* queue_wait_seconds;
  Histogram* task_seconds;
};

const PoolMetrics& GetPoolMetrics() {
  static const PoolMetrics metrics = [] {
    MetricsRegistry& registry = MetricsRegistry::Global();
    return PoolMetrics{registry.GetCounter("pool.tasks_executed"),
                       registry.GetHistogram("pool.queue_wait_seconds"),
                       registry.GetHistogram("pool.task_seconds")};
  }();
  return metrics;
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 4;
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  Task entry;
  entry.fn = std::move(task);
  entry.timed = MetricsEnabled();
  if (entry.timed) entry.enqueue = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push(std::move(entry));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::Wait() {
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [this] { return in_flight_ == 0; });
    std::swap(error, first_error_);
  }
  if (error) std::rethrow_exception(error);
}

bool ThreadPool::InWorkerThread() const { return tls_worker_pool == this; }

void ThreadPool::WorkerLoop() {
  tls_worker_pool = this;
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    std::chrono::steady_clock::time_point start;
    if (task.timed) {
      start = std::chrono::steady_clock::now();
      GetPoolMetrics().queue_wait_seconds->Record(
          std::chrono::duration<double>(start - task.enqueue).count());
    }
    // Injected scheduling jitter: a fired "pool.slow_task" point stalls this
    // task, modeling a straggler worker (page fault, CPU steal). Purely a
    // latency fault — task results and ordering guarantees are unchanged.
    if (IMDIFF_FAULT("pool.slow_task")) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::exception_ptr error;
    try {
      task.fn();
    } catch (...) {
      error = std::current_exception();
    }
    if (task.timed) {
      GetPoolMetrics().task_seconds->Record(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count());
      GetPoolMetrics().tasks_executed->Increment();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (error && !first_error_) first_error_ = error;
      --in_flight_;
      if (in_flight_ == 0) cv_done_.notify_all();
    }
  }
}

namespace {

// Per-ParallelFor countdown latch. Each call owns one, so concurrent calls on
// the same pool wait only for their own chunks (a global in-flight counter
// would make caller A block on caller B's tasks), and body exceptions are
// routed to the issuing caller rather than to whoever calls Pool::Wait next.
struct LatchState {
  std::mutex mu;
  std::condition_variable cv;
  size_t remaining;
  std::exception_ptr error;

  explicit LatchState(size_t n) : remaining(n) {}

  void Finish(std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(mu);
    if (e && !error) error = e;
    if (--remaining == 0) cv.notify_all();
  }

  void WaitAndRethrow() {
    std::exception_ptr e;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [this] { return remaining == 0; });
      e = error;
    }
    if (e) std::rethrow_exception(e);
  }
};

}  // namespace

void ParallelForRange(ThreadPool* pool, size_t n, size_t grain,
                      const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  if (pool == nullptr || pool->num_threads() <= 1 || n <= grain ||
      pool->InWorkerThread()) {
    body(0, n);
    return;
  }
  // Cap the chunk count at a small multiple of the thread count: enough
  // slack for load balancing without per-index submission overhead.
  const size_t max_chunks = pool->num_threads() * 4;
  const size_t chunk =
      std::max(grain, (n + max_chunks - 1) / max_chunks);
  const size_t num_chunks = (n + chunk - 1) / chunk;
  auto state = std::make_shared<LatchState>(num_chunks);
  for (size_t begin = 0; begin < n; begin += chunk) {
    const size_t end = std::min(n, begin + chunk);
    pool->Submit([state, begin, end, &body] {
      std::exception_ptr error;
      try {
        body(begin, end);
      } catch (...) {
        error = std::current_exception();
      }
      state->Finish(error);
    });
  }
  state->WaitAndRethrow();
}

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& body, size_t grain) {
  ParallelForRange(pool, n, grain, [&body](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) body(i);
  });
}

namespace {

std::mutex compute_pool_mu;
std::unique_ptr<ThreadPool> compute_pool;
bool compute_pool_init = false;

size_t DefaultComputeThreads() {
  if (const char* env = std::getenv("IMDIFF_NUM_THREADS")) {
    const auto v = FlagValue<int64_t>("IMDIFF_NUM_THREADS", env);
    IMDIFF_CHECK_GE(v, 1) << "IMDIFF_NUM_THREADS must be at least 1";
    return static_cast<size_t>(v);
  }
  const size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : hw;
}

// A 1-thread configuration keeps the pool null: ParallelFor(nullptr, ...)
// runs inline, giving exact serial execution with zero idle worker threads.
void RebuildComputePoolLocked(size_t n) {
  compute_pool.reset();
  if (n > 1) compute_pool = std::make_unique<ThreadPool>(n);
  compute_pool_init = true;
}

}  // namespace

ThreadPool* ComputePool() {
  std::lock_guard<std::mutex> lock(compute_pool_mu);
  if (!compute_pool_init) RebuildComputePoolLocked(DefaultComputeThreads());
  return compute_pool.get();
}

size_t ComputeThreads() {
  std::lock_guard<std::mutex> lock(compute_pool_mu);
  if (!compute_pool_init) RebuildComputePoolLocked(DefaultComputeThreads());
  return compute_pool ? compute_pool->num_threads() : 1;
}

void SetComputeThreads(size_t n) {
  std::lock_guard<std::mutex> lock(compute_pool_mu);
  RebuildComputePoolLocked(n == 0 ? DefaultComputeThreads() : n);
}

}  // namespace imdiff
