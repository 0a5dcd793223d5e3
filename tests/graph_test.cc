// Tests for the inference graph executor (src/graph): the captured /
// lowered / arena-planned denoiser must be bitwise identical to the legacy
// autograd layer stack for every (batch shape, degrade level, kernel mode)
// combination — the DESIGN.md §12 determinism contract — and captures must
// be invalidated (and retraced) when the detector's model is hot-swapped.

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/imdiffusion.h"
#include "data/benchmarks.h"
#include "graph/graph.h"
#include "tensor/simd.h"
#include "utils/metrics.h"
#include "utils/rng.h"
#include "utils/thread_pool.h"

namespace imdiff {
namespace {

// Tiny configuration (see serve_test.cc) with stochastic sampling ON so the
// executor's per-window forked noise streams are exercised. hidden = 16 is a
// multiple of every lane width; 20 and 24 (the Fast config's value) leave a
// remainder under AVX-512, so row kernels over D elements hit their tails.
ImDiffusionConfig GraphTinyConfig(uint64_t seed, int64_t hidden = 16) {
  ImDiffusionConfig config;
  config.model.window = 40;
  config.model.hidden = hidden;
  config.model.num_blocks = 1;
  config.model.num_heads = 2;
  config.model.ff_dim = 2 * hidden;
  config.model.step_embed_dim = 16;
  config.model.side_dim = 8;
  config.schedule.num_steps = 6;
  config.schedule.beta_end = 0.7f;
  config.num_masked_windows = 2;
  config.epochs = 2;
  config.batch_size = 4;
  config.train_stride = 10;
  config.infer_batch = 4;
  config.vote_last_steps = 4;
  config.vote_stride = 1;
  config.stochastic_sampling = true;
  config.seed = seed;
  return config;
}

MtsDataset GraphDataset() {
  return MakeMicroserviceLatencyDataset(/*seed=*/5, /*num_services=*/3,
                                        /*train_length=*/200,
                                        /*test_length=*/280);
}

std::vector<uint64_t> SeedsFor(int64_t n) {
  std::vector<uint64_t> seeds(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    seeds[static_cast<size_t>(i)] = MixSeed(1234, static_cast<uint64_t>(i));
  }
  return seeds;
}

// One shared fitted detector per hidden size: fitting dominates test time and
// every test in this file needs *a* frozen model, not a fresh one.
const ImDiffusionDetector& SharedDetector(int64_t hidden = 16) {
  static auto* detectors =
      new std::map<int64_t, std::unique_ptr<ImDiffusionDetector>>();
  auto& detector = (*detectors)[hidden];
  if (detector == nullptr) {
    detector = std::make_unique<ImDiffusionDetector>(
        GraphTinyConfig(17, hidden));
    detector->Fit(GraphDataset().train);
  }
  return *detector;
}

void ExpectScoresBitwiseEqual(
    const std::vector<ImDiffusionDetector::WindowScore>& a,
    const std::vector<ImDiffusionDetector::WindowScore>& b,
    const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t w = 0; w < a.size(); ++w) {
    ASSERT_EQ(a[w].step_errors.size(), b[w].step_errors.size()) << what;
    for (size_t s = 0; s < a[w].step_errors.size(); ++s) {
      const std::vector<float>& ra = a[w].step_errors[s];
      const std::vector<float>& rb = b[w].step_errors[s];
      ASSERT_EQ(ra.size(), rb.size()) << what;
      EXPECT_EQ(0, std::memcmp(ra.data(), rb.data(),
                               ra.size() * sizeof(float)))
          << what << " window " << w << " vote step " << s;
    }
  }
}

int64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->value();
}

// Property: every (batch shape x degrade level x forced-scalar on/off)
// combination scores bitwise identically through the captured graph and the
// legacy layer stack.
void ExpectGraphMatchesStackEverywhere(int64_t hidden) {
  const ImDiffusionDetector& detector = SharedDetector(hidden);
  const MtsDataset data = GraphDataset();
  const ImDiffusionDetector::WindowPlan plan =
      detector.PlanWindows(data.test);
  const int64_t total = plan.windows.dim(0);
  ASSERT_GE(total, 5);
  const int64_t k = plan.windows.dim(1);
  const int64_t window = plan.windows.dim(2);

  const int64_t failures_before = CounterValue("graph.validation_failures");
  const int64_t executions_before = CounterValue("graph.executions");

  // 1 window (sub-chunk), 5 (partial tail chunk), and the full plan
  // (multiple chunks, tail partial).
  const std::vector<int64_t> shapes = {1, 5, total};
  for (const bool force_scalar : {false, true}) {
    simd::SetForceScalar(force_scalar);
    for (int level = 0; level <= 2; ++level) {
      for (const int64_t n : shapes) {
        Tensor subset = Tensor::Uninitialized({n, k, window});
        std::copy_n(plan.windows.data(), n * k * window,
                    subset.mutable_data());
        const std::vector<uint64_t> seeds = SeedsFor(n);
        graph::SetGraphEnabled(true);
        const auto graph_scores =
            detector.ScoreWindowBatch(subset, seeds, level);
        graph::SetGraphEnabled(false);
        const auto stack_scores =
            detector.ScoreWindowBatch(subset, seeds, level);
        ExpectScoresBitwiseEqual(
            graph_scores, stack_scores,
            "hidden=" + std::to_string(hidden) +
                " scalar=" + std::to_string(force_scalar) +
                " level=" + std::to_string(level) + " n=" + std::to_string(n));
      }
    }
  }
  simd::SetForceScalar(false);
  graph::SetGraphEnabled(true);

  // The graph path actually ran, and no capture failed its first-execution
  // validation against the legacy stack.
  EXPECT_GT(CounterValue("graph.executions"), executions_before);
  EXPECT_EQ(CounterValue("graph.validation_failures"), failures_before);
}

TEST(GraphExecutorTest, BitwiseMatchesLegacyStackEverywhere) {
  ExpectGraphMatchesStackEverywhere(16);
}

TEST(GraphExecutorTest, BitwiseMatchesLegacyStackWithLaneTails) {
  for (const int64_t hidden : {20, 24}) ExpectGraphMatchesStackEverywhere(hidden);
}

// Property: the compute-thread count never changes a score. With infer_batch
// 32 every batch below is one chunk, so the pool's threads split the kernels
// themselves, and every split (row ranges in the graph, flat element ranges
// in the stack) lands at a different point per thread count. Hidden 20 leaves
// lane tails in every row kernel and in the FFN's GELU.
TEST(GraphExecutorTest, ScoresBitwiseIdenticalAcrossThreadCounts) {
  static const ImDiffusionDetector* detector_ptr = [] {
    ImDiffusionConfig config = GraphTinyConfig(17, 20);
    config.infer_batch = 32;
    auto* d = new ImDiffusionDetector(config);
    d->Fit(GraphDataset().train);
    return d;
  }();
  const ImDiffusionDetector& detector = *detector_ptr;
  const MtsDataset data = GraphDataset();
  const ImDiffusionDetector::WindowPlan plan = detector.PlanWindows(data.test);
  const int64_t total = plan.windows.dim(0);
  const int64_t k = plan.windows.dim(1);
  const int64_t window = plan.windows.dim(2);
  const size_t threads_before = ComputeThreads();
  const bool graph_before = graph::GraphEnabled();
  const int64_t failures_before = CounterValue("graph.validation_failures");
  for (const int64_t n : {int64_t{1}, int64_t{3}, total}) {
    Tensor subset = Tensor::Uninitialized({n, k, window});
    std::copy_n(plan.windows.data(), n * k * window, subset.mutable_data());
    const std::vector<uint64_t> seeds = SeedsFor(n);
    for (const bool use_graph : {true, false}) {
      graph::SetGraphEnabled(use_graph);
      SetComputeThreads(1);
      const auto serial = detector.ScoreWindowBatch(subset, seeds, 0);
      for (const size_t threads : {2, 3, 4, 8}) {
        SetComputeThreads(threads);
        ExpectScoresBitwiseEqual(
            detector.ScoreWindowBatch(subset, seeds, 0), serial,
            "n=" + std::to_string(n) + " graph=" + std::to_string(use_graph) +
                " threads=" + std::to_string(threads));
      }
    }
  }
  SetComputeThreads(threads_before);
  graph::SetGraphEnabled(graph_before);
  EXPECT_EQ(CounterValue("graph.validation_failures"), failures_before);
}

// The precision axis obeys the same contract as every other knob: for each
// (precision x degrade level x forced-scalar) combination the captured graph
// and the legacy stack score bitwise identically, repeats at one precision
// are bitwise stable, and reduced precisions genuinely change the bits.
TEST(GraphExecutorTest, ReducedPrecisionMatchesLegacyStackPerLevel) {
  // This test requests specific precisions per call; an IMDIFF_PRECISION
  // override (the forced-precision CI legs) would collapse the fp32
  // baseline onto the forced rung and break the EXPECT_NE below.
  ScopedPrecisionOverrideClear no_override;
  const ImDiffusionDetector& detector = SharedDetector();
  const MtsDataset data = GraphDataset();
  const ImDiffusionDetector::WindowPlan plan = detector.PlanWindows(data.test);
  const int64_t n = std::min<int64_t>(5, plan.windows.dim(0));
  Tensor subset = Tensor::Uninitialized({n, plan.windows.dim(1),
                                         plan.windows.dim(2)});
  std::copy_n(plan.windows.data(),
              n * plan.windows.dim(1) * plan.windows.dim(2),
              subset.mutable_data());
  const std::vector<uint64_t> seeds = SeedsFor(n);

  const int64_t failures_before = CounterValue("graph.validation_failures");
  auto score = [&](bool use_graph, int level, Precision p) {
    graph::SetGraphEnabled(use_graph);
    return detector.ScoreWindowBatch(subset, seeds, level, p);
  };
  for (const bool force_scalar : {false, true}) {
    simd::SetForceScalar(force_scalar);
    for (const Precision p : {Precision::kBf16, Precision::kInt8}) {
      for (int level = 0; level <= 2; ++level) {
        const auto graph_scores = score(true, level, p);
        const auto stack_scores = score(false, level, p);
        const std::string what = std::string(PrecisionName(p)) +
                                 " scalar=" + std::to_string(force_scalar) +
                                 " level=" + std::to_string(level);
        ExpectScoresBitwiseEqual(graph_scores, stack_scores, what);
        // Same precision scores the same bits on a repeat...
        ExpectScoresBitwiseEqual(graph_scores, score(true, level, p),
                                 what + " repeat");
        // ...and different bits than the fp32 rung.
        EXPECT_NE(graph_scores[0].step_errors,
                  score(true, level, Precision::kF32)[0].step_errors)
            << what;
      }
    }
  }
  simd::SetForceScalar(false);
  graph::SetGraphEnabled(true);
  EXPECT_EQ(CounterValue("graph.validation_failures"), failures_before);
}

// Full seeded pass (windowing + scoring + reduction) agrees end to end.
TEST(GraphExecutorTest, RunSeededMatchesLegacyStack) {
  const ImDiffusionDetector& detector = SharedDetector();
  const MtsDataset data = GraphDataset();
  for (int level = 0; level <= 2; ++level) {
    graph::SetGraphEnabled(true);
    const DetectionResult with_graph = detector.RunSeeded(data.test, 7, level);
    graph::SetGraphEnabled(false);
    const DetectionResult with_stack = detector.RunSeeded(data.test, 7, level);
    graph::SetGraphEnabled(true);
    ASSERT_EQ(with_graph.scores.size(), with_stack.scores.size());
    EXPECT_EQ(0, std::memcmp(with_graph.scores.data(),
                             with_stack.scores.data(),
                             with_graph.scores.size() * sizeof(float)))
        << "level " << level;
    EXPECT_EQ(with_graph.labels, with_stack.labels);
  }
}

// Hot-swapping the model must drop stale captures (which hold raw pointers
// into the old weights) and retrace: scoring after LoadModel captures fresh
// graphs and still matches the legacy stack bitwise.
TEST(GraphExecutorTest, ModelHotSwapInvalidatesAndRetraces) {
  const MtsDataset data = GraphDataset();
  ImDiffusionDetector detector(GraphTinyConfig(23));
  detector.Fit(data.train);

  const ImDiffusionDetector::WindowPlan plan = detector.PlanWindows(data.test);
  const std::vector<uint64_t> seeds = SeedsFor(plan.windows.dim(0));

  graph::SetGraphEnabled(true);
  const int64_t captures0 = CounterValue("graph.captures");
  const auto before = detector.ScoreWindowBatch(plan.windows, seeds, 0);
  const int64_t captures1 = CounterValue("graph.captures");
  EXPECT_GT(captures1, captures0) << "first scoring pass must capture";

  // Warm repeat on the same model: pooled contexts are reused, no recapture.
  const auto warm = detector.ScoreWindowBatch(plan.windows, seeds, 0);
  ExpectScoresBitwiseEqual(before, warm, "warm repeat");
  EXPECT_EQ(CounterValue("graph.captures"), captures1);

  // Swap the model in place. Same weights round-trip through the checkpoint,
  // so scores must stay bitwise identical — but via *new* captures.
  const std::string path = ::testing::TempDir() + "graph_swap_ckpt.bin";
  detector.SaveModel(path);
  ASSERT_TRUE(detector.LoadModel(path, data.train.dim(1)));
  const auto after = detector.ScoreWindowBatch(plan.windows, seeds, 0);
  EXPECT_GT(CounterValue("graph.captures"), captures1)
      << "hot swap must invalidate captured graphs and retrace";
  ExpectScoresBitwiseEqual(before, after, "post-swap");

  graph::SetGraphEnabled(false);
  const auto stack = detector.ScoreWindowBatch(plan.windows, seeds, 0);
  graph::SetGraphEnabled(true);
  ExpectScoresBitwiseEqual(after, stack, "post-swap vs stack");
}

// The IMDIFF_GRAPH=0 escape hatch (and its runtime override) routes scoring
// through the legacy stack: no executions, no captures.
TEST(GraphExecutorTest, DisabledExecutorNeverRuns) {
  const ImDiffusionDetector& detector = SharedDetector();
  const MtsDataset data = GraphDataset();
  const ImDiffusionDetector::WindowPlan plan = detector.PlanWindows(data.test);
  const std::vector<uint64_t> seeds = SeedsFor(plan.windows.dim(0));

  graph::SetGraphEnabled(false);
  const int64_t executions = CounterValue("graph.executions");
  const int64_t captures = CounterValue("graph.captures");
  (void)detector.ScoreWindowBatch(plan.windows, seeds, 0);
  EXPECT_EQ(CounterValue("graph.executions"), executions);
  EXPECT_EQ(CounterValue("graph.captures"), captures);
  graph::SetGraphEnabled(true);
}

}  // namespace
}  // namespace imdiff
