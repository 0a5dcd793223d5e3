// Tests for the inference graph executor (src/graph), the only inference
// path of ScoreWindowBatch: the captured / lowered / arena-planned denoiser
// must be bitwise identical to the autograd layer stack
// (ScoreWindowBatchOnStack) for every model variant, batch shape, degrade
// level and kernel mode — the DESIGN.md §12 determinism contract —
// and captures must be invalidated (and retraced) when the detector's model
// is hot-swapped.

#include <cstring>
#include <map>
#include <ostream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/imdiffusion.h"
#include "data/benchmarks.h"
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

// n windows of a [N, K, W] batch: the first n, cycling through the batch
// again when n > N.
Tensor TakeWindows(const Tensor& windows, int64_t n) {
  const int64_t per_window = windows.dim(1) * windows.dim(2);
  Tensor subset =
      Tensor::Uninitialized({n, windows.dim(1), windows.dim(2)});
  for (int64_t i = 0; i < n; ++i) {
    std::copy_n(windows.data() + (i % windows.dim(0)) * per_window,
                per_window, subset.mutable_data() + i * per_window);
  }
  return subset;
}

// Property: every (batch shape x degrade level x forced-scalar on/off)
// combination scores bitwise identically through the captured graph and the
// layer stack.
void ExpectGraphMatchesStackEverywhere(int64_t hidden) {
  const ImDiffusionDetector& detector = SharedDetector(hidden);
  const MtsDataset data = GraphDataset();
  const ImDiffusionDetector::WindowPlan plan =
      detector.PlanWindows(data.test);
  const int64_t total = plan.windows.dim(0);
  ASSERT_GE(total, 5);

  const int64_t executions_before = CounterValue("graph.executions");
  const bool scalar_before = simd::ForceScalar();
  // 1 window (sub-chunk), 5 (partial tail chunk), and the full plan
  // (multiple chunks, tail partial).
  const std::vector<int64_t> shapes = {1, 5, total};
  for (const bool force_scalar : {false, true}) {
    simd::SetForceScalar(force_scalar);
    for (int level = 0; level <= 2; ++level) {
      for (const int64_t n : shapes) {
        const Tensor subset = TakeWindows(plan.windows, n);
        const std::vector<uint64_t> seeds = SeedsFor(n);
        ExpectScoresBitwiseEqual(
            detector.ScoreWindowBatch(subset, seeds, level),
            detector.ScoreWindowBatchOnStack(subset, seeds, level),
            "hidden=" + std::to_string(hidden) +
                " scalar=" + std::to_string(force_scalar) +
                " level=" + std::to_string(level) + " n=" + std::to_string(n));
      }
    }
  }
  simd::SetForceScalar(scalar_before);
  EXPECT_GT(CounterValue("graph.executions"), executions_before);
}

TEST(GraphExecutorTest, BitwiseMatchesLegacyStackEverywhere) {
  ExpectGraphMatchesStackEverywhere(16);
}

TEST(GraphExecutorTest, BitwiseMatchesLegacyStackWithLaneTails) {
  for (const int64_t hidden : {20, 24}) ExpectGraphMatchesStackEverywhere(hidden);
}

// Every model variant the executor lowers differently: the conditional
// model, each attention ablation, scoring on x_t instead of x0, posterior-
// mean sampling, and the shape of FastImDiffusionConfig (hidden 24, two
// blocks, one head).
struct GraphVariant {
  const char* name;
  void (*apply)(ImDiffusionConfig* config);
};

const GraphVariant kGraphVariants[] = {
    {"Conditional", [](ImDiffusionConfig* c) { c->conditional = true; }},
    {"NoTemporal", [](ImDiffusionConfig* c) { c->model.use_temporal = false; }},
    {"NoSpatial", [](ImDiffusionConfig* c) { c->model.use_spatial = false; }},
    {"ScoreOnXt", [](ImDiffusionConfig* c) { c->score_on_x0 = false; }},
    {"Deterministic",
     [](ImDiffusionConfig* c) { c->stochastic_sampling = false; }},
    {"FastShape",
     [](ImDiffusionConfig* c) {
       const ImDiffusionConfig fast = FastImDiffusionConfig();
       c->model.hidden = fast.model.hidden;
       c->model.num_blocks = fast.model.num_blocks;
       c->model.num_heads = fast.model.num_heads;
       c->model.ff_dim = fast.model.ff_dim;
       c->model.step_embed_dim = fast.model.step_embed_dim;
       c->model.side_dim = fast.model.side_dim;
       c->stochastic_sampling = fast.stochastic_sampling;
     }},
};

// Prints the name, so the test's listed name is the same in every build
// (the default prints the struct's bytes, pointers included).
void PrintTo(const GraphVariant& variant, std::ostream* os) {
  *os << variant.name;
}

class GraphVariantTest : public ::testing::TestWithParam<GraphVariant> {};

// Property: each variant scores bitwise identically through the graph and
// the stack at every degrade level in both kernel modes.
TEST_P(GraphVariantTest, BitwiseMatchesLegacyStackAtEveryRung) {
  ImDiffusionConfig config = GraphTinyConfig(17);
  GetParam().apply(&config);
  ImDiffusionDetector detector(config);
  detector.Fit(GraphDataset().train);
  const ImDiffusionDetector::WindowPlan plan =
      detector.PlanWindows(GraphDataset().test);
  // Five windows: one full chunk of infer_batch 4 plus a partial tail.
  const int64_t n = 5;
  ASSERT_GE(plan.windows.dim(0), n);
  const Tensor subset = TakeWindows(plan.windows, n);
  const std::vector<uint64_t> seeds = SeedsFor(n);
  const bool scalar_before = simd::ForceScalar();
  for (const bool force_scalar : {false, true}) {
    simd::SetForceScalar(force_scalar);
    for (int level = 0; level <= 2; ++level) {
      ExpectScoresBitwiseEqual(
          detector.ScoreWindowBatch(subset, seeds, level),
          detector.ScoreWindowBatchOnStack(subset, seeds, level),
          std::string(GetParam().name) +
              " scalar=" + std::to_string(force_scalar) +
              " level=" + std::to_string(level));
    }
  }
  simd::SetForceScalar(scalar_before);
}

INSTANTIATE_TEST_SUITE_P(
    GraphVariants, GraphVariantTest, ::testing::ValuesIn(kGraphVariants),
    [](const ::testing::TestParamInfo<GraphVariant>& info) {
      return std::string(info.param.name);
    });

// Property: the compute-thread count never changes a score. The pool splits
// a batch into one chunk per thread of at most infer_batch (4) windows, and
// each chunk runs serially, so the thread count moves only the chunk
// boundaries, which a window's score must not see. n = 5 and 7 split into
// uneven chunks at 2, 3 and 4 threads; n = 13 has more windows than
// infer_batch x threads at 2 and 3 threads, so there the infer_batch cap sets
// the chunk size. Hidden 20 leaves lane tails in every row kernel and in the
// FFN's GELU.
TEST(GraphExecutorTest, ScoresBitwiseIdenticalAcrossThreadCounts) {
  const ImDiffusionDetector& detector = SharedDetector(20);
  const MtsDataset data = GraphDataset();
  const ImDiffusionDetector::WindowPlan plan = detector.PlanWindows(data.test);
  ASSERT_EQ(detector.config().infer_batch, 4);
  const size_t threads_before = ComputeThreads();
  for (const int64_t n : {1, 3, 5, 7, 13}) {
    const Tensor subset = TakeWindows(plan.windows, n);
    const std::vector<uint64_t> seeds = SeedsFor(n);
    for (const bool use_graph : {true, false}) {
      auto score = [&] {
        return use_graph ? detector.ScoreWindowBatch(subset, seeds, 0)
                         : detector.ScoreWindowBatchOnStack(subset, seeds, 0);
      };
      SetComputeThreads(1);
      const auto serial = score();
      for (const size_t threads : {2, 3, 4, 8}) {
        SetComputeThreads(threads);
        ExpectScoresBitwiseEqual(
            score(), serial,
            "n=" + std::to_string(n) + " graph=" + std::to_string(use_graph) +
                " threads=" + std::to_string(threads));
      }
    }
  }
  SetComputeThreads(threads_before);
}

// Property: ScoreChunks is the only parallel level of seeded scoring. Each
// chunk is one pool task and the graph executor submits none of its own, so
// a warm 1-window batch (one chunk, run inline by the caller) executes no
// pool task and a batch of at most infer_batch x threads windows executes
// one task per chunk, never more than the thread count.
TEST(GraphExecutorTest, PoolRunsOneTaskPerChunk) {
  const ImDiffusionDetector& detector = SharedDetector();
  const MtsDataset data = GraphDataset();
  const ImDiffusionDetector::WindowPlan plan = detector.PlanWindows(data.test);
  ASSERT_EQ(detector.config().infer_batch, 4);
  ASSERT_TRUE(MetricsEnabled());
  const size_t threads_before = ComputeThreads();
  SetComputeThreads(4);
  Counter* const tasks =
      MetricsRegistry::Global().GetCounter("pool.tasks_executed");
  // (windows, chunks): 3 -> 1+1+1, 5 -> 2+2+1, 16 -> 4+4+4+4.
  for (const auto& [n, chunks] :
       {std::pair<int64_t, int64_t>{1, 1}, {3, 3}, {5, 3}, {16, 4}}) {
    const Tensor subset = TakeWindows(plan.windows, n);
    const std::vector<uint64_t> seeds = SeedsFor(n);
    detector.ScoreWindowBatch(subset, seeds, 0);  // captures every chunk size
    const int64_t before = tasks->value();
    detector.ScoreWindowBatch(subset, seeds, 0);
    EXPECT_EQ(tasks->value() - before, chunks == 1 ? 0 : chunks) << "n=" << n;
  }
  SetComputeThreads(threads_before);
}

// Full seeded pass (windowing + scoring + reduction) agrees end to end with
// the same pass scored on the layer stack.
TEST(GraphExecutorTest, RunSeededMatchesLegacyStack) {
  const ImDiffusionDetector& detector = SharedDetector();
  const MtsDataset data = GraphDataset();
  const ImDiffusionDetector::WindowPlan plan = detector.PlanWindows(data.test);
  std::vector<uint64_t> seeds(static_cast<size_t>(plan.windows.dim(0)));
  for (size_t i = 0; i < seeds.size(); ++i) seeds[i] = MixSeed(7, i);
  for (int level = 0; level <= 2; ++level) {
    const DetectionResult with_graph = detector.RunSeeded(data.test, 7, level);
    const DetectionResult with_stack = detector.ReduceWindowScores(
        detector.ScoreWindowBatchOnStack(plan.windows, seeds, level),
        plan.starts, plan.length);
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
// graphs and still matches the layer stack bitwise.
TEST(GraphExecutorTest, ModelHotSwapInvalidatesAndRetraces) {
  const MtsDataset data = GraphDataset();
  ImDiffusionDetector detector(GraphTinyConfig(23));
  detector.Fit(data.train);

  const ImDiffusionDetector::WindowPlan plan = detector.PlanWindows(data.test);
  const std::vector<uint64_t> seeds = SeedsFor(plan.windows.dim(0));

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
  ExpectScoresBitwiseEqual(
      after, detector.ScoreWindowBatchOnStack(plan.windows, seeds, 0),
      "post-swap vs stack");
}

// The contexts a batch leaves in the cache do not depend on how its chunks
// overlapped. A first pass issued from a pool worker runs its 4 chunks one
// after another (a nested ParallelFor runs inline), yet it captures every
// context the concurrent repeat needs, so the repeat captures nothing.
TEST(GraphExecutorTest, CapturesDoNotDependOnChunkOverlap) {
  const MtsDataset data = GraphDataset();
  ImDiffusionDetector detector(GraphTinyConfig(29));
  detector.Fit(data.train);
  const size_t threads_before = ComputeThreads();
  SetComputeThreads(4);
  const ImDiffusionDetector::WindowPlan plan = detector.PlanWindows(data.test);
  const Tensor subset = TakeWindows(plan.windows, 16);
  const std::vector<uint64_t> seeds = SeedsFor(16);
  ComputePool()->Submit([&] { detector.ScoreWindowBatch(subset, seeds, 0); });
  ComputePool()->Wait();
  const int64_t captures = CounterValue("graph.captures");
  detector.ScoreWindowBatch(subset, seeds, 0);
  EXPECT_EQ(CounterValue("graph.captures"), captures);
  SetComputeThreads(threads_before);
}

// graph.op_seconds.<op> must account for the chunk: every op kind of the
// program (attention split into its QKV, core and output phases) plus the
// chain glue records one observation per scored chunk, and over three warm
// scoring passes the rows sum to within 5% of detector.window_score_seconds,
// the independent timer around the same chunks. With metrics off the rows
// record nothing.
TEST(GraphExecutorTest, OpSecondsSumToChunkTime) {
  const ImDiffusionDetector& detector = SharedDetector();
  const MtsDataset data = GraphDataset();
  const ImDiffusionDetector::WindowPlan plan = detector.PlanWindows(data.test);
  const std::vector<uint64_t> seeds = SeedsFor(plan.windows.dim(0));
  detector.ScoreWindowBatch(plan.windows, seeds, 0);  // capture outside

  MetricsRegistry& registry = MetricsRegistry::Global();
  const std::vector<std::string> rows = {
      "stacked",       "linear",         "add_row_bcast", "add_side",
      "attention_qkv", "attention_core", "attention_out", "ffn",
      "gate",          "res_skip",       "scale",         "glue"};
  ASSERT_TRUE(MetricsEnabled());
  registry.Reset();
  for (int pass = 0; pass < 3; ++pass) {
    detector.ScoreWindowBatch(plan.windows, seeds, 0);
  }
  const int64_t chunks = CounterValue("graph.executions");
  ASSERT_GT(chunks, 0);
  double op_sum = 0.0;
  for (const std::string& row : rows) {
    const Histogram* h = registry.GetHistogram("graph.op_seconds." + row);
    EXPECT_EQ(h->count(), chunks) << row;
    EXPECT_GT(h->sum(), 0.0) << row;
    op_sum += h->sum();
  }
  // The spatial permutes run only when the model has spatial layers.
  for (const char* row : {"permute_to_spatial", "permute_from_spatial"}) {
    op_sum += registry.GetHistogram(std::string("graph.op_seconds.") + row)
                  ->sum();
  }
  const Histogram* chunk = registry.GetHistogram("detector.window_score_seconds");
  ASSERT_EQ(chunk->count(), chunks);
  EXPECT_NEAR(op_sum, chunk->sum(), 0.05 * chunk->sum())
      << "op rows " << op_sum << " s vs chunks " << chunk->sum() << " s";

  registry.Reset();
  SetMetricsEnabled(false);
  detector.ScoreWindowBatch(plan.windows, seeds, 0);
  SetMetricsEnabled(true);
  for (const std::string& row : rows) {
    EXPECT_EQ(registry.GetHistogram("graph.op_seconds." + row)->count(), 0)
        << row;
  }
}

}  // namespace
}  // namespace imdiff
