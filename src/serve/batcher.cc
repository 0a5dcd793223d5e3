#include "serve/batcher.h"

#include <chrono>
#include <map>
#include <utility>

#include "utils/check.h"
#include "utils/fault.h"
#include "utils/metrics.h"

namespace imdiff {
namespace serve {

DetectionResult ScoreBlock(const ImDiffusionDetector& detector,
                           uint64_t session_seed,
                           const OnlineDetector::ReadyBlock& ready,
                           int degrade_level) {
  const BlockPlan plan = PlanBlock(detector, session_seed, ready);
  return detector.ReduceWindowScores(
      detector.ScoreWindowBatch(plan.windows.windows, plan.seeds,
                                degrade_level),
      plan.windows.starts, plan.windows.length);
}

std::vector<DetectionResult> ScoreBlocks(std::vector<BlockRequest>* requests) {
  IMDIFF_CHECK(requests != nullptr);
  std::vector<DetectionResult> results(requests->size());
  if (requests->empty()) return results;
  IMDIFF_TRACE_SCOPE("serve.batch_score_seconds");

  // Group by (captured model version, degrade level): a hot swap between
  // Submit and flush must not retarget an in-flight block, and one batched
  // reverse chain runs at one truncation depth.
  std::map<std::pair<const ModelEntry*, int>, std::vector<size_t>> groups;
  for (size_t r = 0; r < requests->size(); ++r) {
    IMDIFF_CHECK((*requests)[r].model != nullptr);
    groups[{(*requests)[r].model.get(), (*requests)[r].degrade_level}]
        .push_back(r);
  }

  MetricsRegistry& registry = MetricsRegistry::Global();
  for (const auto& [key, members] : groups) {
    const auto [entry, degrade_level] = key;
    const ImDiffusionDetector& detector = *entry->detector;
    const int64_t k = detector.config().model.num_features;
    const int64_t window = detector.config().model.window;
    const int64_t per_window = k * window;

    // Gather every cache-missed window across the group's blocks.
    std::vector<std::pair<size_t, size_t>> origin;  // (request, window index)
    std::vector<uint64_t> seeds;
    for (size_t r : members) {
      const BlockRequest& request = (*requests)[r];
      for (size_t i = 0; i < request.hit.size(); ++i) {
        if (request.hit[i]) continue;
        origin.emplace_back(r, i);
        seeds.push_back(request.plan.seeds[i]);
      }
    }

    if (!origin.empty()) {
      // One batched reverse-diffusion pass for the whole group.
      Tensor batch({static_cast<int64_t>(origin.size()), k, window});
      float* dst = batch.mutable_data();
      for (size_t m = 0; m < origin.size(); ++m) {
        const BlockRequest& request = (*requests)[origin[m].first];
        std::copy_n(request.plan.windows.windows.data() +
                        static_cast<int64_t>(origin[m].second) * per_window,
                    per_window, dst + static_cast<int64_t>(m) * per_window);
      }
      std::vector<ImDiffusionDetector::WindowScore> fresh =
          detector.ScoreWindowBatch(batch, seeds, degrade_level);
      for (size_t m = 0; m < origin.size(); ++m) {
        (*requests)[origin[m].first].scores[origin[m].second] =
            std::move(fresh[m]);
      }
    }

    for (size_t r : members) {
      const BlockRequest& request = (*requests)[r];
      results[r] = detector.ReduceWindowScores(request.scores,
                                               request.plan.windows.starts,
                                               request.plan.windows.length);
    }

    registry.GetCounter("serve.batches")->Increment();
    registry.GetCounter("serve.batched_blocks")
        ->Increment(static_cast<int64_t>(members.size()));
    registry.GetCounter("serve.batched_windows")
        ->Increment(static_cast<int64_t>(origin.size()));
  }
  return results;
}

MicroBatcher::MicroBatcher(SessionManager* sessions, const Options& options,
                           Callback on_scored)
    : sessions_(sessions), options_(options), on_scored_(std::move(on_scored)) {
  IMDIFF_CHECK(sessions_ != nullptr);
  IMDIFF_CHECK_GT(options_.max_batch_windows, 0);
  flusher_ = std::thread(&MicroBatcher::FlusherLoop, this);
}

MicroBatcher::~MicroBatcher() { Shutdown(); }

void MicroBatcher::Submit(BlockRequest request) {
  int64_t misses = 0;
  for (uint8_t h : request.hit) misses += h ? 0 : 1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    IMDIFF_CHECK(!stop_) << "Submit after Shutdown";
    if (pending_.empty()) oldest_ = request.ready_time;
    pending_windows_ += misses;
    pending_.push_back(std::move(request));
  }
  cv_.notify_all();
  // Injected flush-timer misbehavior (batcher.flush_timeout): force an
  // immediate flush on the submitting thread, as if the window expired right
  // now. Bitwise-neutral for scores (batch composition is unobservable in
  // the output); checked here rather than in the flusher loop so that with a
  // single ingest worker the forced batch boundaries — and hence downstream
  // per-point fault call counts — are reproducible across chaos runs.
  if (IMDIFF_FAULT("batcher.flush_timeout")) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!pending_.empty()) {
      MetricsRegistry::Global().GetCounter("serve.flush_timeouts")->Increment();
      ScoreBatchLocked(lock);
    }
  }
}

void MicroBatcher::ScoreBatchLocked(std::unique_lock<std::mutex>& lock) {
  std::vector<BlockRequest> batch = std::move(pending_);
  pending_.clear();
  pending_windows_ = 0;
  ++scoring_;
  inflight_blocks_.fetch_add(static_cast<int64_t>(batch.size()),
                             std::memory_order_relaxed);
  lock.unlock();

  std::vector<DetectionResult> results = ScoreBlocks(&batch);
  for (size_t i = 0; i < batch.size(); ++i) {
    sessions_->CompleteBlock(batch[i]);
    if (on_scored_) on_scored_(batch[i], results[i]);
    inflight_blocks_.fetch_sub(1, std::memory_order_relaxed);
  }

  lock.lock();
  --scoring_;
  cv_idle_.notify_all();
}

void MicroBatcher::FlusherLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (pending_.empty()) {
      if (stop_) return;
      cv_.wait(lock);
      continue;
    }
    const auto deadline =
        oldest_ + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(options_.flush_window_seconds));
    if (stop_ || pending_windows_ >= options_.max_batch_windows ||
        std::chrono::steady_clock::now() >= deadline) {
      ScoreBatchLocked(lock);
      continue;
    }
    cv_.wait_until(lock, deadline);
  }
}

void MicroBatcher::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!pending_.empty() || scoring_ > 0) {
    if (!pending_.empty()) {
      ScoreBatchLocked(lock);
    } else {
      cv_idle_.wait(lock);
    }
  }
}

void MicroBatcher::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
}

int64_t MicroBatcher::pending_blocks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(pending_.size()) +
         inflight_blocks_.load(std::memory_order_relaxed);
}

}  // namespace serve
}  // namespace imdiff
