// Fixed-size thread pool with a ParallelFor helper and a process-wide compute
// pool.
//
// The compute pool (ComputePool()) parallelizes coarse, independent work and
// nothing else: the window chunks of seeded scoring
// (ImDiffusionDetector::ScoreChunks), the reverse-diffusion chunks of
// ImDiffusionDetector::Run, and the independent (detector, seed) runs in
// EvaluateManySeeds. The graph executor and the src/tensor kernels are plain
// serial loops, so training runs on its calling thread. Each parallel unit
// writes a disjoint output slice and owns its randomness, so results are
// bitwise identical for every thread count (see DESIGN.md "Threading model").
//
// Exception safety: a task that throws does not terminate the process or leak
// pool bookkeeping; the first exception is captured and rethrown from Wait()
// (for Submit()-ed tasks) or from ParallelFor (for loop bodies). A ParallelFor
// issued from inside a worker thread of the same pool runs inline, so nested
// parallel sections cannot deadlock.

#ifndef IMDIFF_UTILS_THREAD_POOL_H_
#define IMDIFF_UTILS_THREAD_POOL_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace imdiff {

class ThreadPool {
 public:
  // Creates `num_threads` workers; 0 means hardware_concurrency().
  explicit ThreadPool(size_t num_threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  // Enqueues a task for asynchronous execution. If the task throws, the first
  // exception is captured and rethrown from the next Wait().
  void Submit(std::function<void()> task);

  // Blocks until every submitted task has completed, then rethrows the first
  // exception captured from a task (if any) and clears it.
  void Wait();

  // True when called from one of this pool's worker threads. Used by
  // ParallelFor to run nested parallel sections inline instead of
  // deadlocking on a pool whose workers are all blocked in a wait.
  bool InWorkerThread() const;

  size_t num_threads() const { return workers_.size(); }

 private:
  friend void ParallelFor(ThreadPool* pool, size_t n,
                          const std::function<void(size_t)>& body);

  // One queued unit of work. `enqueue` stamps Submit() time when metrics
  // collection is enabled (see utils/metrics.h) so queue wait and task
  // execution latency aggregate into the pool.* instruments. `done`, when
  // set, receives the exception `fn` threw (or null) after the task is
  // recorded, instead of the pool's Wait(); ParallelFor counts down its latch
  // there.
  struct Task {
    std::function<void()> fn;
    std::function<void(std::exception_ptr)> done;
    std::chrono::steady_clock::time_point enqueue{};
    bool timed = false;
  };

  void Enqueue(Task entry);
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<Task> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_done_;
  size_t in_flight_ = 0;
  std::exception_ptr first_error_;
  bool stop_ = false;
};

// Runs body(i) for i in [0, n) across the pool as one task per index,
// blocking until all complete; each index should carry a window chunk's or a
// seed run's worth of work. Runs inline (and in index order) when the pool is
// null, n == 1, or the caller is itself a pool worker. Each call waits on its
// own countdown latch, so concurrent and nested ParallelFor calls on one pool
// neither deadlock nor over-wait. The first exception thrown by `body` is
// rethrown to the caller.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& body);

// Process-wide compute pool shared by detector scoring and the evaluation
// harness. Thread count comes from IMDIFF_NUM_THREADS (default:
// hardware_concurrency); a value that is not a whole positive integer aborts
// naming the variable. Returns nullptr when the count is 1 — the exact
// serial configuration — so every ParallelFor runs inline.
ThreadPool* ComputePool();

// The compute pool's thread count (1 when the pool is serial/disabled).
size_t ComputeThreads();

// Rebuilds the compute pool with `n` threads (0 = hardware_concurrency,
// 1 = serial). Not thread-safe against concurrent compute-pool users; call
// from a single thread at startup, between runs, or in tests.
void SetComputeThreads(size_t n);

}  // namespace imdiff

#endif  // IMDIFF_UTILS_THREAD_POOL_H_
