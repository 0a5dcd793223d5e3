// Serving-layer tests (src/serve): seeded-scoring batch invariance, the
// cross-session micro-batcher, session eviction/rehydration, the model
// registry (hot swap + crash-safe warm load), ingest backpressure, and the
// multi-producer concurrency test that the TSan CI job runs.

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/online_detector.h"
#include "data/benchmarks.h"
#include "nn/serialize.h"
#include "serve/batcher.h"
#include "serve/model_registry.h"
#include "serve/replay.h"
#include "utils/fault.h"
#include "utils/metrics.h"
#include "utils/rng.h"

namespace imdiff {
namespace {

using serve::BlockRequest;
using serve::ModelEntry;
using serve::ModelRegistry;
using serve::SessionManager;
using serve::StreamServer;
using serve::TenantStream;

// Tiny configuration (see imdiffusion_test.cc) with stochastic sampling ON:
// the seeded path's per-window noise streams are exactly what makes batch
// composition unobservable, so the serving tests must exercise them.
ImDiffusionConfig ServeTinyConfig(uint64_t seed) {
  ImDiffusionConfig config;
  config.model.window = 40;
  config.model.hidden = 16;
  config.model.num_blocks = 1;
  config.model.num_heads = 2;
  config.model.ff_dim = 32;
  config.model.step_embed_dim = 16;
  config.model.side_dim = 8;
  config.schedule.num_steps = 6;
  config.schedule.beta_end = 0.7f;
  config.num_masked_windows = 2;
  config.epochs = 4;
  config.batch_size = 4;
  config.train_stride = 10;
  config.vote_last_steps = 4;
  config.vote_stride = 1;
  config.stochastic_sampling = true;
  config.seed = seed;
  return config;
}

// One shared fitted model for the whole suite: fitting dominates test time
// and every serving test only needs *a* fitted model, not a fresh one.
std::shared_ptr<const ModelEntry> SharedModel() {
  static const std::shared_ptr<const ModelEntry> entry = [] {
    const MtsDataset history = MakeMicroserviceLatencyDataset(
        /*seed=*/3, /*num_services=*/3, /*train_length=*/240,
        /*test_length=*/1);
    auto e = std::make_shared<ModelEntry>();
    e->name = "latency";
    e->version = 1;
    e->stats = FitMinMax(history.train);
    auto detector = std::make_shared<ImDiffusionDetector>(ServeTinyConfig(11));
    detector->Fit(ApplyMinMax(history.train, e->stats));
    e->detector = std::move(detector);
    return e;
  }();
  return entry;
}

TenantStream MakeStream(const std::string& tenant, uint64_t seed,
                        int64_t length) {
  TenantStream stream;
  stream.tenant = tenant;
  stream.samples = MakeMicroserviceLatencyDataset(seed, /*num_services=*/3,
                                                  /*train_length=*/1,
                                                  /*test_length=*/length)
                       .test;
  return stream;
}

int64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->value();
}

// Near-instant backoff for retry tests: same schedule shape, no real sleeps.
BackoffPolicy FastBackoff() {
  BackoffPolicy policy;
  policy.base_seconds = 1e-4;
  return policy;
}

// Replays `streams` through a StreamServer built from `options` and expects
// every tenant's assembled score stream to be bitwise identical to the
// serial single-session replay.
void ExpectServedMatchesSerial(const std::vector<TenantStream>& streams,
                               const StreamServer::Options& options) {
  std::shared_ptr<const ModelEntry> model = SharedModel();
  const serve::ReplayStats served =
      serve::ReplayThroughServer(model, streams, options);
  for (const TenantStream& stream : streams) {
    const std::vector<float> serial = serve::ReplaySerial(
        *model, options.session.online, options.session.seed_base, stream);
    EXPECT_EQ(serial, served.scores.at(stream.tenant)) << stream.tenant;
  }
}

TEST(ServeSeedTest, TenantSeedsAreStableAndDistinct) {
  const uint64_t a = serve::TenantSeed(7, "tenant-a");
  EXPECT_EQ(a, serve::TenantSeed(7, "tenant-a"));
  EXPECT_NE(a, serve::TenantSeed(7, "tenant-b"));
  EXPECT_NE(a, serve::TenantSeed(8, "tenant-a"));
  EXPECT_NE(serve::WindowSeed(a, 0), serve::WindowSeed(a, 40));
}

// The load-bearing property of the whole subsystem: a window's score only
// depends on (content, seed, model), not on which other windows share the
// ScoreWindowBatch call or in what order.
TEST(ServeBatchTest, WindowScoreIsBatchCompositionInvariant) {
  std::shared_ptr<const ModelEntry> model = SharedModel();
  const ImDiffusionDetector& detector = *model->detector;
  const TenantStream stream = MakeStream("mix", 21, 140);
  const Tensor series = ApplyMinMax(stream.samples, model->stats);
  const ImDiffusionDetector::WindowPlan plan = detector.PlanWindows(series);
  const int64_t n = plan.windows.dim(0);
  const int64_t k = plan.windows.dim(1);
  const int64_t w = plan.windows.dim(2);
  ASSERT_GE(n, 3);
  std::vector<uint64_t> seeds;
  for (int64_t i = 0; i < n; ++i) seeds.push_back(MixSeed(123, i));

  const std::vector<ImDiffusionDetector::WindowScore> together =
      detector.ScoreWindowBatch(plan.windows, seeds);

  // Each window scored alone matches its in-batch score bitwise.
  for (int64_t i = 0; i < n; ++i) {
    Tensor one({1, k, w});
    std::copy_n(plan.windows.data() + i * k * w, k * w, one.mutable_data());
    const std::vector<ImDiffusionDetector::WindowScore> alone =
        detector.ScoreWindowBatch(one, {seeds[i]});
    ASSERT_EQ(alone.size(), 1u);
    EXPECT_EQ(alone[0].step_errors, together[i].step_errors) << "window " << i;
  }

  // Reversing the batch order permutes the results, nothing else.
  Tensor reversed({n, k, w});
  std::vector<uint64_t> reversed_seeds(seeds.rbegin(), seeds.rend());
  for (int64_t i = 0; i < n; ++i) {
    std::copy_n(plan.windows.data() + (n - 1 - i) * k * w, k * w,
                reversed.mutable_data() + i * k * w);
  }
  const std::vector<ImDiffusionDetector::WindowScore> backwards =
      detector.ScoreWindowBatch(reversed, reversed_seeds);
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(backwards[n - 1 - i].step_errors, together[i].step_errors);
  }
}

// ScoreBlocks (one concatenated ScoreWindowBatch across tenants) must equal
// per-block ScoreBlock for every request in the batch.
TEST(ServeBatchTest, ScoreBlocksMatchesSerialScoreBlock) {
  std::shared_ptr<const ModelEntry> model = SharedModel();
  SessionManager::Options options;
  options.online.block = 50;
  options.online.context = 50;
  options.seed_base = 7;
  SessionManager sessions(model, options);

  const std::vector<TenantStream> streams = {MakeStream("alpha", 31, 100),
                                             MakeStream("beta", 32, 100),
                                             MakeStream("gamma", 33, 100)};
  std::vector<BlockRequest> requests;
  const int64_t k = streams.front().samples.dim(1);
  std::vector<float> sample(static_cast<size_t>(k));
  for (int64_t l = 0; l < 100; ++l) {
    for (const TenantStream& stream : streams) {
      std::copy_n(stream.samples.data() + l * k, k, sample.begin());
      BlockRequest request;
      if (sessions.Append(stream.tenant, sample, &request)) {
        requests.push_back(std::move(request));
      }
    }
  }
  ASSERT_EQ(requests.size(), 6u);  // 2 blocks per tenant
  EXPECT_EQ(sessions.pending_blocks(), 6);

  std::vector<DetectionResult> serial;
  for (const BlockRequest& request : requests) {
    serial.push_back(serve::ScoreBlock(*model->detector, request.session_seed,
                                       request.ready));
  }
  const std::vector<DetectionResult> batched = serve::ScoreBlocks(&requests);
  ASSERT_EQ(batched.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].scores, batched[i].scores) << "request " << i;
    EXPECT_EQ(serial[i].labels, batched[i].labels) << "request " << i;
  }
  for (const BlockRequest& request : requests) {
    sessions.CompleteBlock(request);
  }
  EXPECT_EQ(sessions.pending_blocks(), 0);
}

// Window-score reuse across overlapping blocks (block and context multiples
// of the model window, so consecutive blocks share window start positions)
// must be bitwise invisible.
TEST(ServeSessionTest, CacheReuseIsBitwise) {
  StreamServer::Options options;
  options.session.online.block = 40;   // == model window
  options.session.online.context = 80; // two windows of history
  options.session.seed_base = 5;
  options.batch.flush_window_seconds = 0.002;
  const int64_t hits_before = CounterValue("serve.cache_hits");
  ExpectServedMatchesSerial({MakeStream("cache-a", 41, 200),
                             MakeStream("cache-b", 42, 200),
                             MakeStream("cache-c", 43, 200),
                             MakeStream("cache-d", 44, 200)},
                            options);
  EXPECT_GT(CounterValue("serve.cache_hits"), hits_before);
}

// LRU eviction + rehydration under a resident cap far below the tenant
// count: evicted sessions must continue bitwise identically.
TEST(ServeSessionTest, EvictionRehydratesBitwise) {
  StreamServer::Options options;
  options.session.online.block = 50;
  options.session.online.context = 50;
  options.session.max_resident = 2;
  options.session.seed_base = 9;
  options.batch.flush_window_seconds = 0.002;
  const int64_t evicted_before = CounterValue("serve.sessions_evicted");
  const int64_t rehydrated_before = CounterValue("serve.sessions_rehydrated");
  ExpectServedMatchesSerial({MakeStream("evict-a", 51, 150),
                             MakeStream("evict-b", 52, 150),
                             MakeStream("evict-c", 53, 150),
                             MakeStream("evict-d", 54, 150)},
                            options);
  EXPECT_GT(CounterValue("serve.sessions_evicted"), evicted_before);
  EXPECT_GT(CounterValue("serve.sessions_rehydrated"), rehydrated_before);
}

TEST(ServeRegistryTest, PublishAcquireAndHotSwap) {
  std::shared_ptr<const ModelEntry> model = SharedModel();
  ModelRegistry registry;
  EXPECT_EQ(registry.Acquire("latency"), nullptr);
  EXPECT_EQ(registry.latest_version("latency"), 0);

  EXPECT_EQ(registry.Publish("latency", model->detector, model->stats), 1);
  std::shared_ptr<const ModelEntry> v1 = registry.Acquire("latency");
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->version, 1);

  // Hot swap: a new version replaces the registry pointer; the entry already
  // acquired stays valid and keeps its version.
  EXPECT_EQ(registry.Publish("latency", model->detector, model->stats), 2);
  EXPECT_EQ(registry.latest_version("latency"), 2);
  EXPECT_EQ(registry.Acquire("latency")->version, 2);
  EXPECT_EQ(v1->version, 1);
  EXPECT_TRUE(v1->detector->fitted());
}

// Regression: the degradation ladder's p90 cost estimate
// (serve.batch_score_seconds) must be re-seeded on model hot-swap. Before
// StreamServer::SwapModel reset it, the histogram carried the old model's
// timings across a registry publish, so a swap kept degrading (or kept
// full-quality) based on stale history until the window refilled.
TEST(ServeRegistryTest, SwapModelResetsDegradeCostEstimate) {
  std::shared_ptr<const ModelEntry> model = SharedModel();
  Histogram* batch_score =
      MetricsRegistry::Global().GetHistogram("serve.batch_score_seconds");
  batch_score->Reset();
  // Stale history from a (pretend) heavier model: p90 of 10s against a 5s
  // deadline predicts an overshoot, so every ready block degrades to level 1.
  batch_score->Record(10.0);
  batch_score->Record(10.0);

  StreamServer::Options options;
  options.num_workers = 1;
  options.deadline_seconds = 5.0;
  options.session.online.block = 50;
  options.session.online.context = 50;
  options.session.seed_base = 17;
  options.batch.flush_window_seconds = 0.002;

  std::mutex mu;
  std::vector<int> levels;
  StreamServer server(model, options,
                      [&](const StreamServer::ScoredBlock& scored) {
                        std::lock_guard<std::mutex> lock(mu);
                        levels.push_back(scored.degrade_level);
                      });
  const TenantStream stream = MakeStream("swap", 151, 100);
  const int64_t k = stream.samples.dim(1);
  std::vector<float> sample(static_cast<size_t>(k));
  auto feed = [&](int64_t begin, int64_t end) {
    for (int64_t l = begin; l < end; ++l) {
      std::copy_n(stream.samples.data() + l * k, k, sample.begin());
      while (!server.Submit("swap", sample)) std::this_thread::yield();
    }
    server.Drain();
  };

  feed(0, 50);  // first block: stale estimate says the deadline is blown
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(levels.size(), 1u);
    EXPECT_EQ(levels[0], 1);
  }

  // Hot swap. The estimate resets with it, so the next block takes the
  // "no history yet" optimistic branch and scores at full quality; the real
  // (millisecond-scale) timings recorded since re-seed the predictor.
  server.SwapModel(model);
  EXPECT_EQ(batch_score->count(), 0);
  feed(50, 100);
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(levels.size(), 2u);
    EXPECT_EQ(levels[1], 0);
  }
  server.Shutdown();
  batch_score->Reset();
}

// force_degrade_level pins every block regardless of the deadline policy's
// cost estimate — the knob backend-comparison replays rely on to decouple
// level choice from wall-clock speed.
TEST(ServeRegistryTest, ForcedDegradeLevelOverridesDeadlinePolicy) {
  std::shared_ptr<const ModelEntry> model = SharedModel();
  Histogram* batch_score =
      MetricsRegistry::Global().GetHistogram("serve.batch_score_seconds");
  batch_score->Reset();
  // Stale estimate that would otherwise force level 1 (as in the test above).
  batch_score->Record(10.0);

  StreamServer::Options options;
  options.num_workers = 1;
  options.deadline_seconds = 5.0;
  options.force_degrade_level = 2;
  options.session.online.block = 50;
  options.session.online.context = 50;
  options.session.seed_base = 17;
  options.batch.flush_window_seconds = 0.002;

  std::mutex mu;
  std::vector<int> levels;
  StreamServer server(model, options,
                      [&](const StreamServer::ScoredBlock& scored) {
                        std::lock_guard<std::mutex> lock(mu);
                        levels.push_back(scored.degrade_level);
                      });
  const TenantStream stream = MakeStream("forced", 153, 100);
  const int64_t k = stream.samples.dim(1);
  std::vector<float> sample(static_cast<size_t>(k));
  for (int64_t l = 0; l < 100; ++l) {
    std::copy_n(stream.samples.data() + l * k, k, sample.begin());
    while (!server.Submit("forced", sample)) std::this_thread::yield();
  }
  server.Drain();
  server.Shutdown();
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(levels.size(), 2u);
    EXPECT_EQ(levels[0], 2);
    EXPECT_EQ(levels[1], 2);
  }
  batch_score->Reset();
}

TEST(ServeRegistryTest, WarmLoadsCheckpointAndRejectsMissingFile) {
  std::shared_ptr<const ModelEntry> model = SharedModel();
  const std::string path = ::testing::TempDir() + "serve_registry_ckpt.bin";
  model->detector->SaveModel(path);

  const ImDiffusionConfig config = ServeTinyConfig(11);
  ModelRegistry registry;
  EXPECT_EQ(registry.PublishFromFile("warm", config, path,
                                     /*num_features=*/3, model->stats),
            1);
  std::shared_ptr<const ModelEntry> warm = registry.Acquire("warm");
  ASSERT_NE(warm, nullptr);
  ASSERT_TRUE(warm->detector->fitted());

  // The warm-loaded detector is the same model: identical seeded scores.
  const TenantStream stream = MakeStream("warm", 61, 120);
  const Tensor series = ApplyMinMax(stream.samples, model->stats);
  EXPECT_EQ(model->detector->RunSeeded(series, 99).scores,
            warm->detector->RunSeeded(series, 99).scores);

  // A missing file exhausts every retry; with a previous version published
  // the registry keeps serving it and reports that version.
  const int64_t fallbacks_before = CounterValue("registry.load_fallbacks");
  EXPECT_EQ(registry.PublishFromFile("warm", config, path + ".missing",
                                     /*num_features=*/3, model->stats,
                                     FastBackoff()),
            1);
  EXPECT_EQ(registry.latest_version("warm"), 1);
  EXPECT_EQ(CounterValue("registry.load_fallbacks") - fallbacks_before, 1);
  // With nothing to fall back to the publish fails outright.
  EXPECT_EQ(registry.PublishFromFile("fresh", config, path + ".missing",
                                     /*num_features=*/3, model->stats,
                                     FastBackoff()),
            -1);
  EXPECT_EQ(registry.latest_version("fresh"), 0);
}

// Injected load faults: a transient fault is retried away; a persistent one
// exhausts the budget and falls back to the previously published version.
TEST(ServeRegistryTest, LoadFaultRetriesThenFallsBackToPrevious) {
  std::shared_ptr<const ModelEntry> model = SharedModel();
  const std::string path = ::testing::TempDir() + "serve_retry_ckpt.bin";
  model->detector->SaveModel(path);
  const ImDiffusionConfig config = ServeTinyConfig(11);
  ModelRegistry registry;

  {
    // First attempt fails, retry loads: the publish succeeds at version 1.
    FaultScope faults("registry.load_io:#1", 3);
    const int64_t retries_before = CounterValue("registry.load_retries");
    EXPECT_EQ(registry.PublishFromFile("fb", config, path,
                                       /*num_features=*/3, model->stats,
                                       FastBackoff()),
              1);
    EXPECT_EQ(CounterValue("registry.load_retries") - retries_before, 1);
  }
  {
    // Every attempt fails: the previous version keeps serving.
    FaultScope faults("registry.load_io:1", 3);
    const int64_t retries_before = CounterValue("registry.load_retries");
    const int64_t fallbacks_before = CounterValue("registry.load_fallbacks");
    const BackoffPolicy backoff = FastBackoff();
    EXPECT_EQ(registry.PublishFromFile("fb", config, path,
                                       /*num_features=*/3, model->stats,
                                       backoff),
              1);
    EXPECT_EQ(registry.latest_version("fb"), 1);  // nothing new published
    EXPECT_EQ(CounterValue("registry.load_retries") - retries_before,
              backoff.max_attempts - 1);
    EXPECT_EQ(CounterValue("registry.load_fallbacks") - fallbacks_before, 1);
  }
  // Faults cleared: the same call now loads and publishes version 2.
  EXPECT_EQ(registry.PublishFromFile("fb", config, path,
                                     /*num_features=*/3, model->stats),
            2);
}

// A crash injected mid-save must leave the previously committed checkpoint
// intact and loadable (tmp + rename in nn/serialize).
TEST(ServeCheckpointTest, CrashMidSaveKeepsOldCheckpoint) {
  std::shared_ptr<const ModelEntry> model = SharedModel();
  const std::string path = ::testing::TempDir() + "serve_crash_ckpt.bin";
  model->detector->SaveModel(path);

  // A differently-seeded fit whose save "crashes" after one tensor.
  const MtsDataset history = MakeMicroserviceLatencyDataset(
      /*seed=*/3, /*num_services=*/3, /*train_length=*/240, /*test_length=*/1);
  ImDiffusionConfig other_config = ServeTinyConfig(77);
  other_config.epochs = 1;
  ImDiffusionDetector other(other_config);
  other.Fit(ApplyMinMax(history.train, model->stats));
  {
    FaultScope faults("serialize.save_io:#1", 3);
    EXPECT_THROW(other.SaveModel(path), std::runtime_error);
  }

  // The old checkpoint survives byte-for-byte usable: it loads and scores
  // exactly like the original model.
  ImDiffusionDetector restored(ServeTinyConfig(11));
  ASSERT_TRUE(restored.LoadModel(path, /*num_features=*/3));
  const TenantStream stream = MakeStream("crash", 71, 120);
  const Tensor series = ApplyMinMax(stream.samples, model->stats);
  EXPECT_EQ(model->detector->RunSeeded(series, 5).scores,
            restored.RunSeeded(series, 5).scores);
}

// SaveModelWithRetry turns the same injected mid-stream crash into a
// successful save on the second attempt, and the checkpoint round-trips.
TEST(ServeCheckpointTest, SaveRetriesAfterInjectedMidStreamCrash) {
  std::shared_ptr<const ModelEntry> model = SharedModel();
  const std::string path = ::testing::TempDir() + "serve_save_retry_ckpt.bin";
  const int64_t retries_before = CounterValue("registry.save_retries");
  {
    FaultScope faults("serialize.save_io:#1", 3);
    EXPECT_TRUE(serve::SaveModelWithRetry(*model->detector, path,
                                          FastBackoff()));
  }
  EXPECT_EQ(CounterValue("registry.save_retries") - retries_before, 1);
  ImDiffusionDetector restored(ServeTinyConfig(11));
  ASSERT_TRUE(restored.LoadModel(path, /*num_features=*/3));
  const TenantStream stream = MakeStream("save-retry", 72, 120);
  const Tensor series = ApplyMinMax(stream.samples, model->stats);
  EXPECT_EQ(model->detector->RunSeeded(series, 6).scores,
            restored.RunSeeded(series, 6).scores);
}

// Persistent save faults exhaust the retry budget and report failure without
// corrupting the previously committed checkpoint.
TEST(ServeCheckpointTest, SaveFailureAfterRetriesKeepsOldCheckpoint) {
  std::shared_ptr<const ModelEntry> model = SharedModel();
  const std::string path = ::testing::TempDir() + "serve_save_fail_ckpt.bin";
  model->detector->SaveModel(path);
  const int64_t failures_before = CounterValue("registry.save_failures");
  {
    FaultScope faults("registry.save_io:1", 3);
    EXPECT_FALSE(serve::SaveModelWithRetry(*model->detector, path,
                                           FastBackoff()));
  }
  EXPECT_EQ(CounterValue("registry.save_failures") - failures_before, 1);
  ImDiffusionDetector restored(ServeTinyConfig(11));
  ASSERT_TRUE(restored.LoadModel(path, /*num_features=*/3));
}

// Evict/rehydrate primitive: an exported mid-stream state imported into a
// fresh wrapper continues bitwise identically.
TEST(ServeStateTest, ExportImportContinuesBitwise) {
  std::shared_ptr<const ModelEntry> model = SharedModel();
  OnlineDetector::Options options;
  options.block = 50;
  options.context = 50;
  const TenantStream stream = MakeStream("state", 81, 150);
  const int64_t k = stream.samples.dim(1);
  std::vector<float> sample(static_cast<size_t>(k));

  // Reference: one uninterrupted pass, recording every ready block.
  OnlineDetector reference(nullptr, options);
  reference.SetNormalization(model->stats);
  std::vector<OnlineDetector::ReadyBlock> expected;
  for (int64_t l = 0; l < 150; ++l) {
    std::copy_n(stream.samples.data() + l * k, k, sample.begin());
    OnlineDetector::ReadyBlock ready;
    if (reference.AppendBuffered(sample, &ready)) {
      expected.push_back(std::move(ready));
    }
  }
  ASSERT_EQ(expected.size(), 3u);

  // Interrupted pass: export mid-block, import into a fresh wrapper (no
  // SetNormalization — the state carries it), continue.
  OnlineDetector first(nullptr, options);
  first.SetNormalization(model->stats);
  for (int64_t l = 0; l < 70; ++l) {
    std::copy_n(stream.samples.data() + l * k, k, sample.begin());
    OnlineDetector::ReadyBlock ready;
    first.AppendBuffered(sample, &ready);
  }
  const OnlineDetector::State state = first.ExportState();

  OnlineDetector resumed(nullptr, options);
  resumed.ImportState(state);
  EXPECT_EQ(resumed.total_samples(), 70);
  std::vector<OnlineDetector::ReadyBlock> continued;
  for (int64_t l = 70; l < 150; ++l) {
    std::copy_n(stream.samples.data() + l * k, k, sample.begin());
    OnlineDetector::ReadyBlock ready;
    if (resumed.AppendBuffered(sample, &ready)) {
      continued.push_back(std::move(ready));
    }
  }
  ASSERT_EQ(continued.size(), 2u);
  for (size_t b = 0; b < continued.size(); ++b) {
    const OnlineDetector::ReadyBlock& want = expected[b + 1];
    const OnlineDetector::ReadyBlock& got = continued[b];
    EXPECT_EQ(got.total_at_ready, want.total_at_ready);
    ASSERT_EQ(got.series.dim(0), want.series.dim(0));
    EXPECT_TRUE(std::equal(got.series.data(),
                           got.series.data() + got.series.numel(),
                           want.series.data()));
  }
}

TEST(ServeStateTest, ResetKeepsNormalization) {
  std::shared_ptr<const ModelEntry> model = SharedModel();
  OnlineDetector::Options options;
  options.block = 50;
  options.context = 50;
  const TenantStream stream = MakeStream("reset", 82, 50);
  const int64_t k = stream.samples.dim(1);
  std::vector<float> sample(static_cast<size_t>(k));

  OnlineDetector online(nullptr, options);
  online.SetNormalization(model->stats);
  auto push_all = [&](std::vector<OnlineDetector::ReadyBlock>* out) {
    for (int64_t l = 0; l < 50; ++l) {
      std::copy_n(stream.samples.data() + l * k, k, sample.begin());
      OnlineDetector::ReadyBlock ready;
      if (online.AppendBuffered(sample, &ready)) out->push_back(std::move(ready));
    }
  };
  std::vector<OnlineDetector::ReadyBlock> before;
  push_all(&before);
  ASSERT_EQ(before.size(), 1u);

  online.Reset();
  EXPECT_EQ(online.total_samples(), 0);
  // Normalization survives Reset: the re-streamed block is bitwise the same.
  std::vector<OnlineDetector::ReadyBlock> after;
  push_all(&after);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].total_at_ready, before[0].total_at_ready);
  EXPECT_TRUE(std::equal(after[0].series.data(),
                         after[0].series.data() + after[0].series.numel(),
                         before[0].series.data()));
}

// Backpressure: a full shard queue rejects the sample instead of blocking
// the producer, and the rejection is counted.
TEST(ServeServerTest, BackpressureRejectsWhenQueueFull) {
  StreamServer::Options options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  options.session.online.block = 100000;  // buffer only, no scoring
  const int64_t dropped_before = CounterValue("serve.requests_dropped");
  StreamServer server(SharedModel(), options, [](const StreamServer::ScoredBlock&) {});
  const std::vector<float> sample = {0.1f, 0.2f, 0.3f};
  int64_t accepted = 0;
  int64_t rejected = 0;
  // Tight burst against a capacity-1 queue: the producer outruns the single
  // worker, so some submissions must shed.
  for (int i = 0; i < 2000; ++i) {
    if (server.Submit("burst", sample)) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(server.accepted(), accepted);
  EXPECT_EQ(server.dropped(), rejected);
  EXPECT_EQ(CounterValue("serve.requests_dropped") - dropped_before, rejected);
  server.Drain();
  server.Shutdown();
}

// Satellite concurrency test (runs under TSan in CI, see the ServeConcurrency
// regex in .github/workflows/ci.yml): several producer threads drive disjoint
// tenants plus tenants shared across producers, with the micro-batcher
// flushing concurrently and the resident cap forcing eviction churn. Every
// per-session score stream must still be bitwise identical to the serial
// single-threaded replay.
TEST(ServeConcurrencyTest, ConcurrentProducersMatchSerialReplay) {
  constexpr int kProducers = 4;
  constexpr int64_t kLength = 150;
  std::shared_ptr<const ModelEntry> model = SharedModel();

  std::vector<TenantStream> streams;
  for (int p = 0; p < kProducers; ++p) {
    streams.push_back(MakeStream("own-" + std::to_string(p),
                                 100 + static_cast<uint64_t>(p), kLength));
  }
  streams.push_back(MakeStream("shared-x", 110, kLength));
  streams.push_back(MakeStream("shared-y", 111, kLength));

  StreamServer::Options options;
  options.num_workers = 2;
  options.queue_capacity = 64;
  options.session.online.block = 50;
  options.session.online.context = 50;
  options.session.max_resident = 4;  // below the tenant count: eviction churn
  options.session.seed_base = 13;
  options.batch.flush_window_seconds = 0.002;

  std::mutex score_mu;
  std::map<std::string, std::vector<float>> served;
  for (const TenantStream& stream : streams) {
    served[stream.tenant] = std::vector<float>(static_cast<size_t>(kLength), 0.0f);
  }
  StreamServer server(model, options,
                      [&](const StreamServer::ScoredBlock& scored) {
                        std::lock_guard<std::mutex> lock(score_mu);
                        std::vector<float>& out = served.at(scored.tenant);
                        for (size_t i = 0; i < scored.alert.scores.size(); ++i) {
                          const int64_t pos =
                              scored.alert.start + static_cast<int64_t>(i);
                          if (pos < kLength) {
                            out[static_cast<size_t>(pos)] =
                                scored.alert.scores[i];
                          }
                        }
                      });

  const int64_t k = streams.front().samples.dim(1);
  auto submit = [&](const TenantStream& stream, int64_t l) {
    std::vector<float> sample(static_cast<size_t>(k));
    std::copy_n(stream.samples.data() + l * k, k, sample.begin());
    while (!server.Submit(stream.tenant, sample)) std::this_thread::yield();
  };

  // Shared tenants: any producer may submit the next sample, but the
  // (cursor, submit) pair happens under the tenant's mutex so the per-tenant
  // arrival order — the one ordering the session layer requires — holds.
  struct SharedFeed {
    const TenantStream* stream;
    std::mutex mu;
    int64_t next = 0;
  };
  SharedFeed shared[2];
  shared[0].stream = &streams[kProducers];
  shared[1].stream = &streams[kProducers + 1];

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int64_t l = 0; l < kLength; ++l) {
        submit(streams[static_cast<size_t>(p)], l);
        for (SharedFeed& feed : shared) {
          std::lock_guard<std::mutex> lock(feed.mu);
          if (feed.next < kLength) {
            submit(*feed.stream, feed.next);
            ++feed.next;
          }
        }
      }
      // Finish whatever the shared feeds still owe.
      for (SharedFeed& feed : shared) {
        std::lock_guard<std::mutex> lock(feed.mu);
        while (feed.next < kLength) {
          submit(*feed.stream, feed.next);
          ++feed.next;
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  server.Drain();
  server.Shutdown();

  for (const TenantStream& stream : streams) {
    const std::vector<float> serial = serve::ReplaySerial(
        *model, options.session.online, options.session.seed_base, stream);
    EXPECT_EQ(serial, served.at(stream.tenant)) << stream.tenant;
  }
}

// Regression (stash leak): every distinct tenant used to leave a stash
// behind forever — at Zipf-scale tenant churn the stash was the serving
// layer's only unbounded state. The cap drops the least recently evicted
// stash and counts the drop; a dropped tenant restarts fresh.
TEST(ServeSessionTest, StashCapDropsLeastRecentlyEvicted) {
  SessionManager::Options options;
  options.online.block = 100000;  // buffer only: sessions stay idle/evictable
  options.max_resident = 2;
  options.max_stashed = 3;
  options.seed_base = 77;
  SessionManager sessions(SharedModel(), options);

  const std::vector<float> sample = {0.1f, 0.2f, 0.3f};
  const int64_t drops_before = CounterValue("serve.stash_evictions");
  BlockRequest request;
  for (int t = 0; t < 10; ++t) {
    sessions.Append("stash-" + std::to_string(t), sample, &request);
    EXPECT_LE(sessions.resident_sessions(), 2);
    EXPECT_LE(sessions.stashed_sessions(), 3);
  }
  // 10 tenants through a 2-resident cap: 8 evictions into a 3-stash cap
  // leaves 5 drops, oldest-evicted first.
  EXPECT_EQ(sessions.resident_sessions(), 2);
  EXPECT_EQ(sessions.stashed_sessions(), 3);
  EXPECT_EQ(CounterValue("serve.stash_evictions") - drops_before, 5);
  const double stash_gauge =
      MetricsRegistry::Global().GetGauge("serve.stash_size")->value();
  EXPECT_EQ(stash_gauge, 3.0);

  // A dropped tenant is not wedged: its next sample starts a fresh session.
  const int64_t created_before = CounterValue("serve.sessions_created");
  sessions.Append("stash-0", sample, &request);
  EXPECT_EQ(CounterValue("serve.sessions_created") - created_before, 1);
}

// Regression: pending_blocks() used to count a whole in-flight batch as one
// block, so drain progress and load reporting undercounted by up to the
// batch size. With the first completion callback gated, the count must equal
// the real number of uncompleted blocks.
TEST(ServeBatcherTest, PendingBlocksCountsEveryInFlightBlock) {
  std::shared_ptr<const ModelEntry> model = SharedModel();
  SessionManager::Options session_options;
  session_options.online.block = 50;
  session_options.online.context = 50;
  session_options.seed_base = 83;
  SessionManager sessions(model, session_options);

  std::mutex mu;
  std::condition_variable cv;
  bool in_callback = false;
  bool release = false;
  int completed = 0;
  serve::MicroBatcher::Options batch_options;
  batch_options.max_batch_windows = 1 << 30;  // flusher never fires on size
  batch_options.flush_window_seconds = 3600.0;  // ... or on time
  serve::MicroBatcher batcher(
      &sessions, batch_options,
      [&](const BlockRequest&, const DetectionResult&) {
        std::unique_lock<std::mutex> lock(mu);
        ++completed;
        if (completed == 1) {
          in_callback = true;
          cv.notify_all();
          cv.wait(lock, [&] { return release; });
        }
      });

  // Three tenants, one ready block each, all submitted before any flush.
  const std::vector<TenantStream> streams = {MakeStream("pb-a", 171, 50),
                                             MakeStream("pb-b", 172, 50),
                                             MakeStream("pb-c", 173, 50)};
  const int64_t k = streams.front().samples.dim(1);
  std::vector<float> sample(static_cast<size_t>(k));
  for (const TenantStream& stream : streams) {
    for (int64_t l = 0; l < 50; ++l) {
      std::copy_n(stream.samples.data() + l * k, k, sample.begin());
      BlockRequest request;
      if (sessions.Append(stream.tenant, sample, &request)) {
        batcher.Submit(std::move(request));
      }
    }
  }
  EXPECT_EQ(batcher.pending_blocks(), 3);

  std::thread flusher([&] { batcher.Flush(); });
  {
    // The first block's callback is parked mid-delivery: its alert is not
    // out yet, and blocks 2 and 3 have not even been scored. All three are
    // still pending work. The old implementation collapsed the whole
    // scoring batch to 1 here.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return in_callback; });
  }
  EXPECT_EQ(batcher.pending_blocks(), 3);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  flusher.join();
  EXPECT_EQ(batcher.pending_blocks(), 0);
  EXPECT_EQ(completed, 3);
  batcher.Shutdown();
}

// Property test for the window-score cache prune bound: replaying the same
// overlapping blocks with pruning on and off must hit the cache identically
// (every pruned entry was unreachable), while the pruned cache stays at the
// reachable-window bound. The seed bound total - (context + block) kept a
// dead block-span per session — the size assertion fails against it.
TEST(ServeSessionTest, CachePruneKeepsEveryReachableEntry) {
  std::shared_ptr<const ModelEntry> model = SharedModel();
  const TenantStream stream = MakeStream("prune", 181, 400);
  const int64_t k = stream.samples.dim(1);

  SessionManager::Options base;
  base.online.block = 40;   // == model window: consecutive blocks overlap
  base.online.context = 80;
  base.seed_base = 19;

  // With block == context == multiples of the window (40), a completed block
  // at stream position `total` leaves reachable keys {total-80, total-40}.
  const int64_t max_reachable = base.online.context / 40;

  auto run = [&](bool prune, std::vector<int64_t>* hits_per_block,
                 std::vector<float>* all_scores, int64_t* max_cached) {
    SessionManager::Options options = base;
    options.prune_window_cache = prune;
    SessionManager sessions(model, options);
    std::vector<float> sample(static_cast<size_t>(k));
    *max_cached = 0;
    for (int64_t l = 0; l < 400; ++l) {
      std::copy_n(stream.samples.data() + l * k, k, sample.begin());
      BlockRequest request;
      if (!sessions.Append("prune", sample, &request)) continue;
      int64_t hits = 0;
      for (uint8_t h : request.hit) hits += h;
      hits_per_block->push_back(hits);
      std::vector<BlockRequest> batch;
      batch.push_back(std::move(request));
      const std::vector<DetectionResult> results = serve::ScoreBlocks(&batch);
      for (float s : results[0].scores) all_scores->push_back(s);
      sessions.CompleteBlock(batch[0]);
      *max_cached = std::max(*max_cached, sessions.cached_window_scores());
    }
  };

  std::vector<int64_t> pruned_hits, unbounded_hits;
  std::vector<float> pruned_scores, unbounded_scores;
  int64_t pruned_max = 0, unbounded_max = 0;
  run(true, &pruned_hits, &pruned_scores, &pruned_max);
  run(false, &unbounded_hits, &unbounded_scores, &unbounded_max);

  ASSERT_GT(pruned_hits.size(), 3u);
  EXPECT_EQ(pruned_hits, unbounded_hits);      // no reachable entry was pruned
  EXPECT_EQ(pruned_scores, unbounded_scores);  // and scores are bitwise equal
  int64_t total_hits = 0;
  for (int64_t h : pruned_hits) total_hits += h;
  EXPECT_GT(total_hits, 0);  // overlap actually exercised the cache
  EXPECT_LE(pruned_max, max_reachable);  // fails at the old off-by-block bound
  EXPECT_GT(unbounded_max, max_reachable);  // unbounded cache really grows
}

// Pin: a session evicted under model A and rehydrated after a hot swap to
// model B keeps A's normalization statistics. The rehydrated stream must
// continue bitwise as if never evicted — re-normalizing mid-stream with B's
// stats would silently shift every subsequent window.
TEST(ServeSessionTest, RehydrateAfterHotSwapKeepsOldNormalization) {
  std::shared_ptr<const ModelEntry> model_a = SharedModel();
  // Same detector, different training-history statistics: the swapped-in
  // model normalizes identical raw samples differently.
  auto model_b = std::make_shared<ModelEntry>(*model_a);
  model_b->version = 2;
  for (float& m : model_b->stats.max) m *= 2.0f;

  const TenantStream stream = MakeStream("swap-rehy", 191, 100);
  const int64_t k = stream.samples.dim(1);
  std::vector<float> sample(static_cast<size_t>(k));

  SessionManager::Options options;
  options.online.block = 50;
  options.online.context = 50;
  options.max_resident = 1;
  options.seed_base = 37;
  SessionManager sessions(model_a, options);

  auto feed = [&](const std::string& tenant, int64_t begin, int64_t end,
                  OnlineDetector::ReadyBlock* out) {
    for (int64_t l = begin; l < end; ++l) {
      std::copy_n(stream.samples.data() + l * k, k, sample.begin());
      BlockRequest request;
      if (sessions.Append(tenant, sample, &request)) {
        *out = std::move(request.ready);
        sessions.CompleteBlock(request);
      }
    }
  };

  OnlineDetector::ReadyBlock unused;
  feed("victim", 0, 30, &unused);      // mid-block, idle: evictable
  feed("intruder", 0, 1, &unused);     // max_resident=1: evicts "victim"
  EXPECT_EQ(sessions.stashed_sessions(), 1);
  sessions.SwapModel(model_b);
  OnlineDetector::ReadyBlock rehydrated;
  feed("victim", 30, 60, &rehydrated);  // rehydrates under model B
  ASSERT_GT(rehydrated.series.numel(), 0);

  // Reference: the same stream through A's normalization, never evicted.
  OnlineDetector reference(nullptr, options.online);
  reference.SetNormalization(model_a->stats);
  OnlineDetector::ReadyBlock expected;
  for (int64_t l = 0; l < 60; ++l) {
    std::copy_n(stream.samples.data() + l * k, k, sample.begin());
    OnlineDetector::ReadyBlock ready;
    if (reference.AppendBuffered(sample, &ready)) expected = std::move(ready);
  }
  ASSERT_EQ(rehydrated.series.numel(), expected.series.numel());
  EXPECT_TRUE(std::equal(rehydrated.series.data(),
                         rehydrated.series.data() + rehydrated.series.numel(),
                         expected.series.data()));

  // Sanity that the pin means something: B's stats normalize differently.
  OnlineDetector other(nullptr, options.online);
  other.SetNormalization(model_b->stats);
  OnlineDetector::ReadyBlock with_b;
  for (int64_t l = 0; l < 60; ++l) {
    std::copy_n(stream.samples.data() + l * k, k, sample.begin());
    OnlineDetector::ReadyBlock ready;
    if (other.AppendBuffered(sample, &ready)) with_b = std::move(ready);
  }
  EXPECT_FALSE(std::equal(rehydrated.series.data(),
                          rehydrated.series.data() + rehydrated.series.numel(),
                          with_b.series.data()));
}

// The Zipf load generator end to end (small scale): the run completes, the
// schedule touches many tenants, churn shows up in the stats, and two
// same-seed runs produce bitwise-identical score streams.
TEST(ServeLoadTest, ZipfLoadIsDeterministicWithChurn) {
  std::shared_ptr<const ModelEntry> model = SharedModel();
  serve::LoadConfig load;
  load.num_tenants = 60;
  load.total_samples = 6000;
  load.seed = 5;
  load.zipf_exponent = 1.1;
  load.drain_every = 512;
  load.stream.missing_rate = 0.05;
  load.stream.gap_rate = 0.002;
  load.stream.drift_rate = 0.001f;
  load.stream.shift_rate = 0.002;
  load.collect_scores = true;

  StreamServer::Options options;
  options.num_workers = 1;  // determinism: single ingest order
  options.session.online.block = 40;
  options.session.online.context = 80;
  options.session.max_resident = 8;
  options.session.max_stashed = 16;
  options.session.seed_base = 5;
  options.batch.max_batch_windows = 1 << 30;  // flush only at drain points
  options.batch.flush_window_seconds = 3600.0;

  const serve::LoadStats first = serve::ReplayLoad(model, load, options);
  EXPECT_GT(first.tenants, 10);
  EXPECT_GT(first.alerts, 0);
  EXPECT_GT(first.missing_filled, 0);
  EXPECT_GT(first.sessions_evicted, 0);
  EXPECT_GT(first.stash_evictions, 0);
  EXPECT_GT(first.cache_hits + first.cache_misses, 0);
  EXPECT_GT(first.tenant_p99.max, 0.0);

  const serve::LoadStats second = serve::ReplayLoad(model, load, options);
  EXPECT_EQ(first.scores, second.scores);
  EXPECT_EQ(first.alerts, second.alerts);
  EXPECT_EQ(first.cache_hits, second.cache_hits);
  EXPECT_EQ(first.sessions_evicted, second.sessions_evicted);
  EXPECT_EQ(first.stash_evictions, second.stash_evictions);
}

// The degradation ladder's core contract: a degraded score is a pure
// function of (content, seed, degrade level) — deterministic across calls —
// and each ladder rung actually changes the chain (distinct outputs).
TEST(ServeDegradeTest, DegradedScoresAreDeterministicPerLevel) {
  std::shared_ptr<const ModelEntry> model = SharedModel();
  const ImDiffusionDetector& detector = *model->detector;
  // Ladder rungs are strictly shorter chains (tiny config: 6 steps, vote 4).
  EXPECT_GT(detector.ChainStartForDegradeLevel(0),
            detector.ChainStartForDegradeLevel(1));
  EXPECT_GT(detector.ChainStartForDegradeLevel(1),
            detector.ChainStartForDegradeLevel(2));
  EXPECT_EQ(detector.ChainStartForDegradeLevel(2),
            detector.ChainStartForDegradeLevel(7));  // ladder bottoms out

  const TenantStream stream = MakeStream("degrade", 91, 140);
  const Tensor series = ApplyMinMax(stream.samples, model->stats);
  const ImDiffusionDetector::WindowPlan plan = detector.PlanWindows(series);
  std::vector<uint64_t> seeds;
  for (int64_t i = 0; i < plan.windows.dim(0); ++i) {
    seeds.push_back(MixSeed(55, static_cast<uint64_t>(i)));
  }

  auto score = [&](int level) {
    return detector.ScoreWindowBatch(plan.windows, seeds, level);
  };
  for (int level : {0, 1, 2}) {
    const auto a = score(level);
    const auto b = score(level);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].step_errors, b[i].step_errors)
          << "level " << level << " window " << i;
    }
  }
  // Distinct rungs score distinct chains (stochastic sampling draws differ).
  EXPECT_NE(score(0)[0].step_errors, score(1)[0].step_errors);
  EXPECT_NE(score(1)[0].step_errors, score(2)[0].step_errors);

  // End-to-end RunSeeded carries the level with the same determinism.
  EXPECT_EQ(detector.RunSeeded(series, 9, /*degrade_level=*/1).scores,
            detector.RunSeeded(series, 9, /*degrade_level=*/1).scores);
  EXPECT_NE(detector.RunSeeded(series, 9, /*degrade_level=*/1).scores,
            detector.RunSeeded(series, 9).scores);
}

// Served deadline degradation under the keyed chaos trigger: every block
// degrades (probability 1), the result is tagged, bitwise-reproducible
// across runs, and equal to a serial replay pinned at the same ladder rung.
TEST(ServeDegradeTest, DeadlineDegradationIsDeterministicAndTagged) {
  std::shared_ptr<const ModelEntry> model = SharedModel();
  FaultScope faults("serve.deadline:1", 99);
  StreamServer::Options options;
  options.num_workers = 1;
  options.session.online.block = 50;
  options.session.online.context = 50;
  options.session.seed_base = 23;
  options.batch.flush_window_seconds = 0.002;
  const std::vector<TenantStream> streams = {MakeStream("ddl-a", 121, 150),
                                             MakeStream("ddl-b", 122, 150)};

  const int64_t degraded_before = CounterValue("serve.degraded_blocks");
  const serve::ReplayStats first =
      serve::ReplayThroughServer(model, streams, options);
  const int64_t degraded_first =
      CounterValue("serve.degraded_blocks") - degraded_before;
  EXPECT_EQ(degraded_first, first.alerts);  // every block degraded
  EXPECT_EQ(first.degraded_alerts, first.alerts);

  const serve::ReplayStats second =
      serve::ReplayThroughServer(model, streams, options);
  EXPECT_EQ(first.scores, second.scores);  // bitwise-reproducible chaos
  EXPECT_EQ(CounterValue("serve.degraded_blocks") - degraded_before,
            2 * degraded_first);

  // The ladder bottom (level 2) scored serially is the exact reference.
  for (const TenantStream& stream : streams) {
    EXPECT_EQ(serve::ReplaySerial(*model, options.session.online,
                                  options.session.seed_base, stream,
                                  /*degrade_level=*/2),
              first.scores.at(stream.tenant))
        << stream.tenant;
  }
}

// force_degrade_level pins every block to a truncated chain: blocks are
// tagged end-to-end, the run is bitwise reproducible, it matches a serial
// replay pinned at the same level — and degraded scores never enter the
// window-score cache (cached entries are reused as full-quality scores).
TEST(ServeDegradeTest, ForcedLevelPinsTagsAndSkipsCache) {
  std::shared_ptr<const ModelEntry> model = SharedModel();
  StreamServer::Options options;
  options.num_workers = 1;
  options.session.online.block = 50;
  options.session.online.context = 50;
  options.session.seed_base = 37;
  options.batch.flush_window_seconds = 0.002;
  // Two tenants with identical content: at full quality the second tenant's
  // windows hit the shared window-score cache.
  const std::vector<TenantStream> streams = {MakeStream("pin-a", 161, 200),
                                             MakeStream("pin-b", 161, 200)};
  const int64_t hits_before = CounterValue("serve.cache_hits");
  const serve::ReplayStats full_run =
      serve::ReplayThroughServer(model, streams, options);
  EXPECT_GT(CounterValue("serve.cache_hits"), hits_before);
  EXPECT_EQ(full_run.degraded_alerts, 0);

  options.force_degrade_level = 1;
  const int64_t hits_full = CounterValue("serve.cache_hits");
  const int64_t degraded_before = CounterValue("serve.degraded_blocks");
  const serve::ReplayStats first =
      serve::ReplayThroughServer(model, streams, options);
  // Identical windows recur, but nothing was cached and nothing hit.
  EXPECT_EQ(CounterValue("serve.cache_hits"), hits_full);
  EXPECT_EQ(first.degraded_alerts, first.alerts);
  EXPECT_EQ(CounterValue("serve.degraded_blocks") - degraded_before,
            first.alerts);
  // Pinned level, seeded noise: a second run reproduces every bit, and the
  // serial replay pinned at level 1 is the exact reference.
  const serve::ReplayStats second =
      serve::ReplayThroughServer(model, streams, options);
  EXPECT_EQ(first.scores, second.scores);
  for (const TenantStream& stream : streams) {
    EXPECT_EQ(serve::ReplaySerial(*model, options.session.online,
                                  options.session.seed_base, stream,
                                  /*degrade_level=*/1),
              first.scores.at(stream.tenant))
        << stream.tenant;
  }
  EXPECT_NE(first.scores.at("pin-a"), full_run.scores.at("pin-a"));
}

// The keyed "serve.deadline" chaos point at probability 0.5 degrades a
// subset of blocks chosen from (fault seed, session seed, block index)
// alone, so two identical runs degrade exactly the same blocks and score
// them identically.
TEST(ServeDegradeTest, DeadlineChaosDegradesSameBlocksAcrossRuns) {
  std::shared_ptr<const ModelEntry> model = SharedModel();
  FaultScope faults("serve.deadline:0.5", 77);
  StreamServer::Options options;
  options.num_workers = 1;
  options.session.online.block = 50;
  options.session.online.context = 50;
  options.session.seed_base = 41;
  options.batch.flush_window_seconds = 0.002;
  const std::vector<TenantStream> streams = {MakeStream("chaos-a", 171, 400),
                                             MakeStream("chaos-b", 172, 400)};

  // (tenant, block index) -> degradation level, over one run.
  auto run = [&] {
    std::map<std::pair<std::string, int64_t>, int> levels;
    std::mutex mu;
    StreamServer server(model, options,
                        [&](const StreamServer::ScoredBlock& scored) {
                          std::lock_guard<std::mutex> lock(mu);
                          levels[{scored.tenant, scored.block_index}] =
                              scored.degrade_level;
                        });
    const int64_t k = streams.front().samples.dim(1);
    std::vector<float> sample(static_cast<size_t>(k));
    for (int64_t l = 0; l < 400; ++l) {
      for (const TenantStream& stream : streams) {
        std::copy_n(stream.samples.data() + l * k, k, sample.begin());
        while (!server.Submit(stream.tenant, sample)) {
          std::this_thread::yield();
        }
      }
    }
    server.Drain();
    server.Shutdown();
    return levels;
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
  int64_t degraded = 0;
  for (const auto& [block, level] : first) {
    EXPECT_TRUE(level == 0 || level == 2) << block.first << " " << block.second;
    degraded += level == 2 ? 1 : 0;
  }
  // Every block was delivered, and the point split them.
  EXPECT_EQ(first.size(), 2u * (400 / 50));
  EXPECT_GT(degraded, 0);
  EXPECT_LT(degraded, static_cast<int64_t>(first.size()));

  // The scores follow the same placement: reproducible bit for bit.
  EXPECT_EQ(serve::ReplayThroughServer(model, streams, options).scores,
            serve::ReplayThroughServer(model, streams, options).scores);
}

// A block's rung is chosen before its cache lookup, and only a level-0 block
// takes cached (level-0) scores. The paced replay lands every write-back
// before the next overlapping block is planned, so a block the keyed
// serve.deadline point degrades finds its predecessor's windows cached; it
// must still score all of them at its own level. Every position then equals
// the serial replay at the level its block recorded.
TEST(ServeDegradeTest, DegradedBlocksScoreEveryWindowAtTheirLevel) {
  std::shared_ptr<const ModelEntry> model = SharedModel();
  FaultScope faults("serve.deadline:0.5", 77);
  StreamServer::Options options;
  options.num_workers = 1;
  options.session.online.block = 40;    // == model window
  options.session.online.context = 80;  // two cacheable windows per block
  options.session.seed_base = 47;
  options.batch.flush_window_seconds = 0.002;
  const std::vector<TenantStream> streams = {MakeStream("rung-a", 191, 400),
                                             MakeStream("rung-b", 192, 400)};
  const int64_t hits_before = CounterValue("serve.cache_hits");
  const serve::ReplayStats served =
      serve::ReplayThroughServer(model, streams, options);
  EXPECT_GT(CounterValue("serve.cache_hits"), hits_before);
  EXPECT_GT(served.degraded_alerts, 0);
  EXPECT_LT(served.degraded_alerts, served.alerts);

  for (const TenantStream& stream : streams) {
    std::map<int, std::vector<float>> serial;
    for (const int level : {0, 2}) {
      serial[level] =
          serve::ReplaySerial(*model, options.session.online,
                              options.session.seed_base, stream, level);
    }
    const std::vector<float>& scores = served.scores.at(stream.tenant);
    const std::vector<int>& levels = served.levels.at(stream.tenant);
    int64_t mismatched = 0;
    for (size_t p = 0; p < scores.size(); ++p) {
      ASSERT_EQ(serial.count(levels[p]), 1u) << "level " << levels[p];
      if (scores[p] != serial[levels[p]][p]) ++mismatched;
    }
    EXPECT_EQ(mismatched, 0) << stream.tenant;
  }
}

// The deadline ladder's rule, one axis: level 0 within budget, level 1 for
// an overshoot of at most 3x, level 2 beyond that or with the budget gone.
TEST(ServeDegradeTest, DeadlineLevelFollowsOvershoot) {
  EXPECT_EQ(StreamServer::DeadlineLevel(5.0, 0.0), 0);  // no history yet
  EXPECT_EQ(StreamServer::DeadlineLevel(5.0, 4.0), 0);
  EXPECT_EQ(StreamServer::DeadlineLevel(5.0, 5.0), 0);
  EXPECT_EQ(StreamServer::DeadlineLevel(5.0, 5.5), 1);
  EXPECT_EQ(StreamServer::DeadlineLevel(5.0, 15.0), 1);  // over = 3.0
  EXPECT_EQ(StreamServer::DeadlineLevel(5.0, 15.5), 2);
  EXPECT_EQ(StreamServer::DeadlineLevel(5.0, 100.0), 2);
  EXPECT_EQ(StreamServer::DeadlineLevel(0.0, 0.0), 2);  // budget gone
  EXPECT_EQ(StreamServer::DeadlineLevel(-1.0, 0.0), 2);
}

// The served ladder applies that rule to the p90 of
// serve.batch_score_seconds: a mild overshoot truncates to level 1, a large
// one to level 2.
TEST(ServeDegradeTest, DeadlinePressureTruncatesByOvershoot) {
  std::shared_ptr<const ModelEntry> model = SharedModel();
  Histogram* batch_score =
      MetricsRegistry::Global().GetHistogram("serve.batch_score_seconds");
  // p90 against a 5s deadline: 6s is over = 1.2, 20s is over = 4.
  for (const auto& [p90, level] : {std::pair<double, int>{6.0, 1},
                                   std::pair<double, int>{20.0, 2}}) {
    batch_score->Reset();
    batch_score->Record(p90);

    StreamServer::Options options;
    options.num_workers = 1;
    options.deadline_seconds = 5.0;
    options.session.online.block = 50;
    options.session.online.context = 50;
    options.session.seed_base = 43;
    options.batch.flush_window_seconds = 0.002;

    std::mutex mu;
    std::vector<int> levels;
    StreamServer server(model, options,
                        [&](const StreamServer::ScoredBlock& scored) {
                          std::lock_guard<std::mutex> lock(mu);
                          levels.push_back(scored.degrade_level);
                        });
    const TenantStream stream = MakeStream("pressure", 181, 50);
    const int64_t k = stream.samples.dim(1);
    std::vector<float> sample(static_cast<size_t>(k));
    for (int64_t l = 0; l < 50; ++l) {
      std::copy_n(stream.samples.data() + l * k, k, sample.begin());
      while (!server.Submit("pressure", sample)) std::this_thread::yield();
    }
    server.Drain();
    server.Shutdown();
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(levels.size(), 1u) << "p90 " << p90;
    EXPECT_EQ(levels[0], level) << "p90 " << p90;
  }
  batch_score->Reset();
}

// A failed session rehydrate (corrupt/lost stash) rebuilds the session from
// the live stream: the replay completes, later blocks still score, and the
// failure is counted — no crash, no wedged tenant.
TEST(ServeFaultTest, RehydrateFailureRebuildsSessionFromStream) {
  std::shared_ptr<const ModelEntry> model = SharedModel();
  FaultScope faults("session.rehydrate:#1", 7);
  StreamServer::Options options;
  options.num_workers = 1;
  options.session.online.block = 50;
  options.session.online.context = 50;
  options.session.max_resident = 1;  // every tenant switch evicts
  options.session.seed_base = 29;
  options.batch.flush_window_seconds = 0.002;
  const int64_t failures_before = CounterValue("serve.rehydrate_failures");
  const serve::ReplayStats served = serve::ReplayThroughServer(
      model, {MakeStream("rehy-a", 131, 150), MakeStream("rehy-b", 132, 150)},
      options);
  EXPECT_EQ(CounterValue("serve.rehydrate_failures") - failures_before, 1);
  EXPECT_GT(served.alerts, 0);  // the rebuilt session kept emitting blocks
}

// Bitwise-neutral faults (arena fallback, forced flushes, slow pool tasks)
// perturb timing and batch composition but must not perturb a single score:
// the served streams still match the fault-free serial replay exactly.
TEST(ServeFaultTest, BitwiseNeutralFaultsKeepServedMatchingSerial) {
  FaultScope faults(
      "arena.alloc:0.05,batcher.flush_timeout:0.5,pool.slow_task:0.01", 5);
  StreamServer::Options options;
  options.session.online.block = 50;
  options.session.online.context = 50;
  options.session.seed_base = 31;
  options.batch.flush_window_seconds = 0.002;
  const int64_t fallbacks_before = CounterValue("arena.fallback");
  const int64_t flushes_before = CounterValue("serve.flush_timeouts");
  ExpectServedMatchesSerial({MakeStream("neutral-a", 141, 150),
                             MakeStream("neutral-b", 142, 150)},
                            options);
  // The faults actually exercised their degradation paths.
  EXPECT_GT(CounterValue("arena.fallback"), fallbacks_before);
  EXPECT_GT(CounterValue("serve.flush_timeouts"), flushes_before);
}

}  // namespace
}  // namespace imdiff
