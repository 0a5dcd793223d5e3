#include "serve/server.h"

#include <utility>

#include "utils/check.h"
#include "utils/fault.h"
#include "utils/metrics.h"
#include "utils/rng.h"

namespace imdiff {
namespace serve {

StreamServer::StreamServer(std::shared_ptr<const ModelEntry> model,
                           const Options& options, AlertCallback on_alert)
    : options_(options),
      batch_score_(MetricsRegistry::Global().GetHistogram(
          "serve.batch_score_seconds")),
      degraded_blocks_(
          MetricsRegistry::Global().GetCounter("serve.degraded_blocks")),
      deadline_fault_(FaultRegistry::Global().GetPoint("serve.deadline")),
      sessions_(std::move(model), options.session),
      batcher_(&sessions_, options.batch,
               [this](const BlockRequest& request,
                      const DetectionResult& result) {
                 ScoredBlock scored;
                 scored.tenant = request.tenant;
                 scored.block_index = request.block_index;
                 scored.degrade_level = request.degrade_level;
                 scored.shadow = request.shadow;
                 scored.alert = OnlineDetector::MakeAlert(request.ready, result);
                 // Ready-to-alert latency: queueing at the batcher plus the
                 // batched scoring pass — the end-to-end cost the serving
                 // layer adds on top of raw inference.
                 scored.latency_seconds =
                     std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - request.ready_time)
                         .count();
                 // Shadow blocks are observability traffic, not alerts: they
                 // must not skew the alert-latency distribution.
                 if (!scored.shadow) {
                   MetricsRegistry::Global()
                       .GetHistogram("serve.alert_latency_seconds")
                       ->Record(scored.latency_seconds);
                 }
                 if (refresh_) refresh_->OnScored(request, scored.alert);
                 if (on_alert_) on_alert_(scored);
               }),
      on_alert_(std::move(on_alert)) {
  IMDIFF_CHECK_GT(options_.num_workers, 0);
  IMDIFF_CHECK_GT(options_.queue_capacity, 0);
  shadow_blocks_ = MetricsRegistry::Global().GetCounter("serve.shadow_blocks");
  if (options_.refresh.enabled) {
    IMDIFF_CHECK_GT(options_.session.refresh_recent, 0)
        << "refresh enabled with no recent-sample capture";
    refresh_ = std::make_unique<RefreshTrainer>(this, options_.refresh);
  }
  shards_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  for (auto& shard : shards_) {
    shard->worker = std::thread(&StreamServer::WorkerLoop, this, shard.get());
  }
}

StreamServer::~StreamServer() { Shutdown(); }

size_t StreamServer::ShardOf(const std::string& tenant) const {
  // Stable tenant → worker assignment keeps each tenant's samples FIFO.
  return static_cast<size_t>(HashBytes(tenant.data(), tenant.size()) %
                             static_cast<uint64_t>(shards_.size()));
}

bool StreamServer::Submit(const std::string& tenant,
                          std::vector<float> sample) {
  return Submit(tenant, std::move(sample), {});
}

bool StreamServer::Submit(const std::string& tenant, std::vector<float> sample,
                          std::vector<uint8_t> observed) {
  Shard& shard = *shards_[ShardOf(tenant)];
  MetricsRegistry& registry = MetricsRegistry::Global();
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    IMDIFF_CHECK(!shard.stop) << "Submit after Shutdown";
    if (static_cast<int64_t>(shard.queue.size()) >= options_.queue_capacity) {
      // Backpressure: shed load at ingest rather than blocking producers or
      // growing the queue without bound.
      dropped_.fetch_add(1, std::memory_order_relaxed);
      registry.GetCounter("serve.requests_dropped")->Increment();
      return false;
    }
    Request request;
    request.tenant = tenant;
    request.sample = std::move(sample);
    request.observed = std::move(observed);
    request.enqueue = std::chrono::steady_clock::now();
    shard.queue.push_back(std::move(request));
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  registry.GetCounter("serve.requests_accepted")->Increment();
  registry.GetGauge("serve.queue_depth")->Add(1.0);
  shard.cv.notify_one();
  return true;
}

void StreamServer::WorkerLoop(Shard* shard) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Gauge* const queue_depth = registry.GetGauge("serve.queue_depth");
  Histogram* const queue_wait =
      registry.GetHistogram("serve.queue_wait_seconds");
  while (true) {
    Request request;
    {
      std::unique_lock<std::mutex> lock(shard->mu);
      shard->cv.wait(lock,
                     [shard] { return shard->stop || !shard->queue.empty(); });
      if (shard->queue.empty()) return;  // stop && drained
      request = std::move(shard->queue.front());
      shard->queue.pop_front();
      shard->busy = true;
    }
    queue_depth->Add(-1.0);
    const double wait_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      request.enqueue)
            .count();
    queue_wait->Record(wait_seconds);

    BlockRequest block;
    if (sessions_.Append(request.tenant, request.sample, request.observed,
                         &block, [&](const BlockRequest& ready) {
                           return ChooseRung(wait_seconds, ready);
                         })) {
      if (block.degrade_level > 0) degraded_blocks_->Increment();
      // Continuous refresh (DESIGN.md §18): while a shadow is staged, a
      // seeded fraction of full-quality blocks is dual-scored against it.
      // Degraded rungs are never selected — their live scores would not be
      // comparable to the shadow's full-quality ones.
      std::shared_ptr<const ModelEntry> shadow;
      if (refresh_ && block.degrade_level == 0 &&
          refresh_->BeginShadowScore(block.session_seed, block.block_index,
                                     &shadow)) {
        BlockRequest dual;
        sessions_.DuplicateForShadow(block, std::move(shadow), &dual);
        shadow_blocks_->Increment();
        batcher_.Submit(std::move(block));
        batcher_.Submit(std::move(dual));
      } else {
        batcher_.Submit(std::move(block));
      }
    }
    // Cadence hook: counts the processed sample and, on a tick, runs the fit
    // synchronously with this worker blocked on the trainer thread — the
    // loop's decisions stay a pure function of the stream position.
    if (refresh_) refresh_->OnSample();

    {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->busy = false;
    }
    shard->cv_idle.notify_all();
  }
}

int StreamServer::ChooseRung(double queue_wait_seconds,
                             const BlockRequest& block) const {
  if (options_.force_degrade_level >= 0) return options_.force_degrade_level;
  // Chaos override: an armed "serve.deadline" point decides from (fault
  // seed, session seed, block index) alone — no wall clock — so two runs of
  // the same stream degrade exactly the same blocks.
  if (FaultRegistry::Global().armed() && deadline_fault_->armed()) {
    const uint64_t key = MixSeed(block.session_seed,
                                 static_cast<uint64_t>(block.block_index));
    return deadline_fault_->FireKeyed(key) ? 2 : 0;
  }
  if (options_.deadline_seconds <= 0.0) return 0;
  // Predict the batched scoring cost from observed history; with no history
  // yet, optimistically assume it fits.
  const double predicted =
      batch_score_->count() > 0 ? batch_score_->Percentile(0.9) : 0.0;
  return DeadlineLevel(options_.deadline_seconds - queue_wait_seconds,
                       predicted);
}

int StreamServer::DeadlineLevel(double remaining_seconds,
                                double predicted_seconds) {
  // Budget already gone: score the cheapest rung rather than shed — a
  // degraded score still beats a missing one for anomaly detection.
  if (remaining_seconds <= 0.0) return 2;
  if (predicted_seconds <= remaining_seconds) return 0;
  return predicted_seconds / remaining_seconds <= 3.0 ? 1 : 2;
}

void StreamServer::SwapModel(std::shared_ptr<const ModelEntry> model) {
  sessions_.SwapModel(std::move(model));
  // The degradation ladder's cost predictor (p90 of this histogram) is only
  // meaningful for the model that produced the samples; start fresh.
  batch_score_->Reset();
}

void StreamServer::Drain() {
  for (auto& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->mu);
    shard->cv_idle.wait(
        lock, [&shard] { return shard->queue.empty() && !shard->busy; });
  }
  batcher_.Flush();
  // Flush completes every block the workers handed over, and the workers
  // were idle before it started.
  IMDIFF_CHECK_EQ(sessions_.pending_blocks(), 0);
}

void StreamServer::Shutdown() {
  if (shutdown_) return;
  shutdown_ = true;
  Drain();
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->stop = true;
    }
    shard->cv.notify_all();
    if (shard->worker.joinable()) shard->worker.join();
  }
  batcher_.Shutdown();
  // Workers and batcher are joined: no further fit can be requested.
  if (refresh_) refresh_->Shutdown();
}

}  // namespace serve
}  // namespace imdiff
