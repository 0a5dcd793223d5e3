// Request front-end of the serving layer: bounded per-worker queues with
// backpressure, worker threads that drive SessionManager and the
// micro-batcher, and alert delivery.
//
// Tenants are sharded onto workers by a stable hash of the tenant name, so
// each tenant's samples are processed FIFO by exactly one worker — the
// ordering guarantee OnlineDetector's rolling buffer needs — while different
// tenants proceed in parallel. A full shard queue rejects the sample
// (Submit returns false, serve.requests_dropped counts it) instead of
// blocking the producer: load-shedding at ingest is the backpressure policy
// (DESIGN.md §11).

#ifndef IMDIFF_SERVE_SERVER_H_
#define IMDIFF_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/batcher.h"
#include "serve/refresh.h"
#include "serve/session_manager.h"

namespace imdiff {

// The scoring precision a ScoredBlock carries. Every block scores at fp32;
// the field survives only because perfbench/perfbench.cc reads it, and a
// change to the benchmark removes both the enum and the field.
enum class Precision : uint8_t { kF32 };

class Counter;     // utils/metrics.h
class Histogram;   // utils/metrics.h
class FaultPoint;  // utils/fault.h

namespace serve {

class StreamServer {
 public:
  struct Options {
    // Worker threads (= queue shards). Tenant order is preserved per shard.
    int num_workers = 2;
    // Per-shard queue capacity; a full queue rejects new samples.
    int64_t queue_capacity = 1024;
    // Per-block latency budget for the degradation ladder (DESIGN.md §13):
    // when queue wait plus the predicted batched-scoring time (p90 of
    // serve.batch_score_seconds) exceeds this, the block is scored with a
    // truncated reverse chain (level 1, then level 2) instead of being shed.
    // <= 0 disables the policy (always full quality); shedding at ingest
    // (full shard queue) remains the last resort either way.
    double deadline_seconds = 0.0;
    // >= 0 pins every block to that degradation level, bypassing both the
    // deadline policy and the chaos override. Replay/verification knob: two
    // runs that differ only in build or host can be compared bitwise at a
    // fixed level without coupling the level choice to wall-clock cost
    // estimates.
    int force_degrade_level = -1;
    SessionManager::Options session;
    MicroBatcher::Options batch;
    // Continuous model refresh (DESIGN.md §18): background retraining on the
    // sessions' recent-sample window, shadow dual-scoring, drift-gated
    // auto-promotion. Inert unless refresh.enabled; requires
    // session.refresh_recent > 0 to have samples to fit on.
    RefreshOptions refresh;
  };

  // A scored block for one tenant.
  struct ScoredBlock {
    std::string tenant;
    int64_t block_index = 0;
    OnlineDetector::Alert alert;
    // Degradation level the block was scored at (0 = full reverse chain).
    int degrade_level = 0;
    // Always kF32 (see Precision above).
    Precision precision = Precision::kF32;
    // Ready-to-alert latency (batcher queueing + batched scoring) — the same
    // quantity serve.alert_latency_seconds records, surfaced per block so a
    // load generator can aggregate latency per tenant.
    double latency_seconds = 0.0;
    // Shadow dual-score result (continuous refresh, DESIGN.md §18): scored
    // against the staged candidate, delivered for observability only.
    // Consumers must not treat it as an alert; it is excluded from the
    // alert-latency metric.
    bool shadow = false;
  };
  // Runs on a batcher/worker thread; must be thread-safe and non-blocking
  // (it sits on the scoring path).
  using AlertCallback = std::function<void(const ScoredBlock&)>;

  StreamServer(std::shared_ptr<const ModelEntry> model, const Options& options,
               AlertCallback on_alert);
  ~StreamServer();

  StreamServer(const StreamServer&) = delete;
  StreamServer& operator=(const StreamServer&) = delete;

  // Enqueues one raw sample for `tenant`. Returns false (and counts
  // serve.requests_dropped) when the tenant's shard queue is full.
  bool Submit(const std::string& tenant, std::vector<float> sample);

  // Missing-aware variant: `observed` flags one entry per feature (empty =
  // fully observed) and rides to SessionManager::Append, which routes it
  // into the session's carry-forward fill (core/online_detector.h). The
  // value of a feature flagged missing is never read.
  bool Submit(const std::string& tenant, std::vector<float> sample,
              std::vector<uint8_t> observed);

  // Blocks until every enqueued sample has been processed and every ready
  // block has been scored and delivered. Callers must not Submit
  // concurrently with Drain.
  void Drain();

  // Drains, then stops workers and the batcher. Idempotent.
  void Shutdown();

  // Hot swap (registry publish): forwards to SessionManager::SwapModel and
  // resets the p90 cost estimate the degradation ladder reads
  // (serve.batch_score_seconds). Without the reset the histogram carries the
  // old model's timings across the publish, so a swap to a heavier model
  // under-degrades (and a fallback to a lighter one over-degrades) until the
  // window refills; an empty histogram instead takes the "no history yet"
  // optimistic branch and re-seeds from the new model's first batches.
  void SwapModel(std::shared_ptr<const ModelEntry> model);

  // The deadline ladder's rule (DESIGN.md §13): the degradation level of a
  // block with `remaining_seconds` of budget left after queueing, when a
  // batched scoring pass is predicted to take `predicted_seconds`. Level 0
  // when the prediction fits, 1 when it overshoots the budget by at most
  // 3x, else 2; a budget already gone (<= 0) always scores at level 2.
  static int DeadlineLevel(double remaining_seconds, double predicted_seconds);

  SessionManager& sessions() { return sessions_; }
  MicroBatcher& batcher() { return batcher_; }
  // Null unless Options::refresh.enabled.
  RefreshTrainer* refresh() { return refresh_.get(); }
  int64_t accepted() const { return accepted_.load(std::memory_order_relaxed); }
  int64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  struct Request {
    std::string tenant;
    std::vector<float> sample;
    std::vector<uint8_t> observed;  // empty = fully observed
    std::chrono::steady_clock::time_point enqueue{};
  };
  struct Shard {
    std::mutex mu;
    std::condition_variable cv;
    std::condition_variable cv_idle;
    std::deque<Request> queue;
    bool busy = false;  // worker is processing a popped request
    bool stop = false;
    std::thread worker;
  };

  void WorkerLoop(Shard* shard);
  size_t ShardOf(const std::string& tenant) const;
  // Ladder decision for one ready block: its degradation level. Wall-clock
  // based when the deadline policy is on; when the "serve.deadline" fault
  // point is armed, the level instead derives deterministically from the
  // fault seed and the block's (session seed, block index) — chaos runs
  // need reproducible degradation placement. Runs inside
  // SessionManager::Append, before the block's cache lookup.
  int ChooseRung(double queue_wait_seconds, const BlockRequest& block) const;

  const Options options_;
  // Registry handles resolved once at construction (registry lookups take a
  // lock; the worker loop is the ingest hot path).
  Histogram* batch_score_ = nullptr;      // serve.batch_score_seconds
  Counter* degraded_blocks_ = nullptr;    // serve.degraded_blocks
  FaultPoint* deadline_fault_ = nullptr;  // "serve.deadline" injection point
  Counter* shadow_blocks_ = nullptr;      // serve.shadow_blocks
  SessionManager sessions_;
  MicroBatcher batcher_;
  // Declared after sessions_/batcher_ so it is destroyed first: the trainer
  // thread reads the session manager. Created in the constructor body, after
  // the batcher exists and before workers start.
  std::unique_ptr<RefreshTrainer> refresh_;
  AlertCallback on_alert_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<int64_t> accepted_{0};
  std::atomic<int64_t> dropped_{0};
  bool shutdown_ = false;
};

}  // namespace serve
}  // namespace imdiff

#endif  // IMDIFF_SERVE_SERVER_H_
