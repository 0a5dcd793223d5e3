#include "utils/thread_pool.h"

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

// Registry handles for the pool instrumentation, resolved once. Every task is
// a window chunk or a whole seed run, so the two clock reads per task are
// noise next to its work.
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
  Enqueue(std::move(entry));
}

void ThreadPool::Enqueue(Task entry) {
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
    // The task is recorded before `done` can release a ParallelFor caller, so
    // a metrics read taken after ParallelFor returns sees every task.
    if (task.done) {
      task.done(error);
      error = nullptr;
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
// the same pool wait only for their own tasks (a global in-flight counter
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

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& body) {
  if (pool == nullptr || n <= 1 || pool->InWorkerThread()) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  auto state = std::make_shared<LatchState>(n);
  for (size_t i = 0; i < n; ++i) {
    ThreadPool::Task task;
    task.fn = [i, &body] { body(i); };
    task.done = [state](std::exception_ptr e) { state->Finish(e); };
    pool->Enqueue(std::move(task));
  }
  state->WaitAndRethrow();
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
