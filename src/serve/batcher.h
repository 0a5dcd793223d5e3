// Cross-session micro-batching of reverse-diffusion scoring.
//
// Blocks that become ready within a flush window are scored together: the
// cache-missed windows of every pending block — across tenants — are
// concatenated and pushed through ONE ImDiffusionDetector::ScoreWindowBatch
// call, then split back and reduced per block. Because window scores are
// pure functions of (content, seed, model), the batch composition is
// unobservable in the output: per-session score streams are bitwise
// identical to serial per-session scoring. The win is throughput — shared
// chunks amortize per-step model-forward overhead across tenants, and cached
// overlap windows skip recomputation entirely.

#ifndef IMDIFF_SERVE_BATCHER_H_
#define IMDIFF_SERVE_BATCHER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/detector.h"
#include "serve/session_manager.h"

namespace imdiff {
namespace serve {

// Scores one ready block fresh (no cache, no cross-block batching): the
// serial baseline the served path must match bitwise. Pure function of its
// arguments, including `degrade_level` (truncated reverse chain; see
// ImDiffusionDetector::ChainStartForDegradeLevel).
DetectionResult ScoreBlock(const ImDiffusionDetector& detector,
                           uint64_t session_seed,
                           const OnlineDetector::ReadyBlock& ready,
                           int degrade_level = 0);

// Scores a batch of ready blocks in one pass. The cache-missed windows of
// all requests are concatenated into a single ScoreWindowBatch call against
// each request's captured model (requests are grouped by (model version,
// degrade level), so a hot swap mid-batch still scores every block against
// the version it captured, and degraded blocks never share a chain with
// full-quality ones); misses are filled into
// request->scores in place and each block is reduced to a DetectionResult.
// results[i] corresponds to (*requests)[i].
std::vector<DetectionResult> ScoreBlocks(std::vector<BlockRequest>* requests);

// Background flusher that accumulates BlockRequests and scores them with
// ScoreBlocks when either `max_batch_windows` windows are pending or the
// oldest request has waited `flush_window_seconds`. After scoring, each
// request is written back through SessionManager::CompleteBlock (cache fill
// + in-flight release) and handed to the completion callback.
class MicroBatcher {
 public:
  struct Options {
    // Flush when this many windows (cache misses only) are pending.
    int64_t max_batch_windows = 64;
    // ... or when the oldest pending block has waited this long.
    double flush_window_seconds = 0.01;
  };
  using Callback =
      std::function<void(const BlockRequest&, const DetectionResult&)>;

  // `sessions` must outlive the batcher. The callback runs on the flusher
  // thread (or the caller of Flush) with no batcher/session locks held.
  MicroBatcher(SessionManager* sessions, const Options& options,
               Callback on_scored);
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  void Submit(BlockRequest request);

  // Synchronously scores everything pending (including blocks the flusher
  // thread is working on: returns only once the batcher is idle).
  void Flush();

  // Drains pending work, then stops the flusher thread. Idempotent; called
  // by the destructor.
  void Shutdown();

  // Blocks queued plus blocks inside in-flight scoring batches that have not
  // been completed yet — the honest backpressure/drain signal. (An in-flight
  // batch used to count as one block regardless of size, so drain progress
  // and load reporting undercounted by up to the batch size under load.)
  int64_t pending_blocks() const;

 private:
  void FlusherLoop();
  // Takes the current pending batch (caller must hold mu_), scores it with
  // the lock released, completes and calls back.
  void ScoreBatchLocked(std::unique_lock<std::mutex>& lock);

  SessionManager* const sessions_;
  const Options options_;
  const Callback on_scored_;

  mutable std::mutex mu_;
  std::condition_variable cv_;        // wakes the flusher
  std::condition_variable cv_idle_;   // wakes Flush/Shutdown waiters
  std::vector<BlockRequest> pending_;
  int64_t pending_windows_ = 0;  // cache misses in pending_
  std::chrono::steady_clock::time_point oldest_{};
  int scoring_ = 0;  // batches being scored right now
  // Blocks inside in-flight batches, not yet completed. Atomic so each
  // block's completion can decrement it without re-taking mu_ mid-batch.
  std::atomic<int64_t> inflight_blocks_{0};
  bool stop_ = false;
  std::thread flusher_;
};

}  // namespace serve
}  // namespace imdiff

#endif  // IMDIFF_SERVE_BATCHER_H_
