#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/im_transformer.h"
#include "core/imdiffusion.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "metrics/classification.h"
#include "utils/metrics.h"
#include "utils/thread_pool.h"

namespace imdiff {
namespace {

// Tiny configuration so the full train+infer cycle stays fast in unit tests.
ImDiffusionConfig TinyConfig(uint64_t seed) {
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
  config.stochastic_sampling = false;
  config.seed = seed;
  return config;
}

// A small easy dataset: smooth sine mixture with one obvious level shift.
MtsDataset EasyDataset(uint64_t seed) {
  SyntheticConfig signal;
  signal.length = 480;
  signal.dims = 3;
  signal.num_factors = 2;
  signal.noise_sigma = 0.02f;
  signal.burst_rate = 0.0;
  signal.bump_rate = 0.0;
  signal.ar_sigma = 0.01f;
  Rng rng(seed);
  Tensor full = GenerateCleanSeries(signal, rng);
  MtsDataset ds;
  ds.name = "easy";
  Tensor train({240, 3});
  Tensor test({240, 3});
  std::copy_n(full.data(), 240 * 3, train.mutable_data());
  std::copy_n(full.data() + 240 * 3, 240 * 3, test.mutable_data());
  ds.train = std::move(train);
  ds.test = std::move(test);
  // One strong level shift on all channels at [100, 140).
  for (int64_t t = 100; t < 140; ++t) {
    for (int64_t k = 0; k < 3; ++k) {
      ds.test.mutable_data()[t * 3 + k] += 3.0f;
    }
  }
  ds.test_labels.assign(240, 0);
  for (int64_t t = 100; t < 140; ++t) ds.test_labels[t] = 1;
  return ds;
}

TEST(ImTransformerTest, ForwardShape) {
  ImTransformerConfig config;
  config.num_features = 3;
  config.window = 20;
  config.hidden = 8;
  config.num_blocks = 1;
  config.num_heads = 2;
  config.ff_dim = 16;
  config.step_embed_dim = 8;
  config.side_dim = 4;
  config.num_diffusion_steps = 5;
  Rng rng(1);
  ImTransformer model(config, rng);
  Tensor x = Tensor::Randn({2, 3, 20}, rng);
  Tensor ref = Tensor::Randn({2, 3, 20}, rng);
  Tensor mask = Tensor::Full({2, 3, 20}, 1.0f);
  nn::Var out = model.Forward(x, ref, mask, 2, {0, 1});
  EXPECT_EQ(out.shape(), (Shape{2, 3, 20}));
  EXPECT_GT(nn::ParameterCount(model), 0);
}

TEST(ImTransformerTest, AblationsDropParameters) {
  ImTransformerConfig config;
  config.num_features = 3;
  config.window = 20;
  config.hidden = 8;
  config.num_blocks = 1;
  config.num_heads = 2;
  config.ff_dim = 16;
  config.step_embed_dim = 8;
  config.side_dim = 4;
  Rng rng(2);
  ImTransformer full(config, rng);
  config.use_spatial = false;
  Rng rng2(2);
  ImTransformer no_spatial(config, rng2);
  EXPECT_LT(nn::ParameterCount(no_spatial), nn::ParameterCount(full));
  // Forward still works without the spatial transformer.
  Tensor x = Tensor::Randn({1, 3, 20}, rng);
  nn::Var out = no_spatial.Forward(x, Tensor::Zeros({1, 3, 20}),
                                   Tensor::Full({1, 3, 20}, 1.0f), 1, {0});
  EXPECT_EQ(out.shape(), (Shape{1, 3, 20}));
}

TEST(ImTransformerTest, GradientsReachAllParameters) {
  ImTransformerConfig config;
  config.num_features = 2;
  config.window = 16;
  config.hidden = 8;
  config.num_blocks = 2;
  config.num_heads = 2;
  config.ff_dim = 16;
  config.step_embed_dim = 8;
  config.side_dim = 4;
  Rng rng(3);
  ImTransformer model(config, rng);
  Tensor x = Tensor::Randn({2, 2, 16}, rng);
  Tensor ref = Tensor::Randn({2, 2, 16}, rng);
  Tensor mask({2, 2, 16});
  for (int64_t i = 0; i < mask.numel(); ++i) {
    mask.mutable_data()[i] = i % 2 == 0 ? 1.0f : 0.0f;
  }
  nn::Var out = model.Forward(x, ref, mask, 1, {0, 1});
  nn::Backward(nn::SumV(out));
  for (const nn::Var& p : model.Parameters()) {
    EXPECT_TRUE(p.has_grad());
  }
}

TEST(ImDiffusionTest, EndToEndDetectsObviousShift) {
  MtsDataset ds = NormalizeDataset(EasyDataset(5));
  ImDiffusionDetector detector(TinyConfig(7));
  detector.Fit(ds.train);
  DetectionResult result = detector.Run(ds.test);
  ASSERT_EQ(result.scores.size(), 240u);
  ASSERT_EQ(result.labels.size(), 240u);
  BinaryMetrics best;
  BestF1Threshold(result.scores, ds.test_labels, 32, &best);
  // The shift is 3x the signal scale: even a tiny model must find it.
  EXPECT_GT(best.f1, 0.8);
  // Scores must be finite everywhere.
  for (float s : result.scores) EXPECT_TRUE(std::isfinite(s));
}

TEST(ImDiffusionTest, TrainingLossDecreases) {
  MtsDataset ds = NormalizeDataset(EasyDataset(6));
  ImDiffusionConfig config = TinyConfig(8);
  config.epochs = 8;
  ImDiffusionDetector detector(config);
  detector.Fit(ds.train);
  const auto& history = detector.train_loss_history();
  ASSERT_EQ(history.size(), 8u);
  // Mean of the last three epochs below the first epoch (noisy per-epoch
  // losses because t is resampled, so compare aggregates).
  const float head = history[0];
  const float tail =
      (history[5] + history[6] + history[7]) / 3.0f;
  EXPECT_LT(tail, head * 1.2f);
}

TEST(ImDiffusionTest, TraceShapesConsistent) {
  MtsDataset ds = NormalizeDataset(EasyDataset(9));
  ImDiffusionDetector detector(TinyConfig(10));
  detector.Fit(ds.train);
  ImDiffusionDetector::StepTrace trace;
  DetectionResult result = detector.RunWithTrace(ds.test, &trace);
  ASSERT_EQ(trace.steps.size(), trace.step_errors.size());
  ASSERT_EQ(trace.steps.size(), trace.step_labels.size());
  ASSERT_EQ(trace.steps.size(), trace.step_imputed.size());
  EXPECT_EQ(trace.votes.size(), result.scores.size());
  for (const auto& errs : trace.step_errors) {
    EXPECT_EQ(errs.size(), result.scores.size());
  }
  // Vote counts bounded by the number of vote steps.
  for (int v : trace.votes) {
    EXPECT_GE(v, 0);
    EXPECT_LE(v, static_cast<int>(trace.steps.size()));
  }
  // Reverse-step indices are increasing and end at T.
  for (size_t i = 1; i < trace.steps.size(); ++i) {
    EXPECT_GT(trace.steps[i], trace.steps[i - 1]);
  }
  EXPECT_EQ(trace.steps.back(), detector.config().schedule.num_steps);
}

TEST(ImDiffusionTest, DeterministicGivenSeed) {
  MtsDataset ds = NormalizeDataset(EasyDataset(11));
  ImDiffusionDetector a(TinyConfig(12));
  ImDiffusionDetector b(TinyConfig(12));
  a.Fit(ds.train);
  b.Fit(ds.train);
  DetectionResult ra = a.Run(ds.test);
  DetectionResult rb = b.Run(ds.test);
  for (size_t i = 0; i < ra.scores.size(); ++i) {
    EXPECT_EQ(ra.scores[i], rb.scores[i]);
  }
}

// Every ablation variant must run end-to-end and produce finite scores.
class ImDiffusionVariantTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ImDiffusionVariantTest, RunsEndToEnd) {
  ImDiffusionConfig config = TinyConfig(13);
  const std::string variant = GetParam();
  if (variant == "forecasting") {
    config.mask_strategy = MaskStrategy::kForecasting;
  } else if (variant == "reconstruction") {
    config.mask_strategy = MaskStrategy::kReconstruction;
  } else if (variant == "random_mask") {
    config.mask_strategy = MaskStrategy::kRandom;
  } else if (variant == "conditional") {
    config.conditional = true;
  } else if (variant == "non_ensemble") {
    config.ensemble = false;
  } else if (variant == "no_spatial") {
    config.model.use_spatial = false;
  } else if (variant == "no_temporal") {
    config.model.use_temporal = false;
  } else if (variant == "stochastic") {
    config.stochastic_sampling = true;
  }
  MtsDataset ds = NormalizeDataset(EasyDataset(14));
  ImDiffusionDetector detector(config);
  detector.Fit(ds.train);
  DetectionResult result = detector.Run(ds.test);
  EXPECT_EQ(result.scores.size(), 240u);
  for (float s : result.scores) EXPECT_TRUE(std::isfinite(s));
}

INSTANTIATE_TEST_SUITE_P(
    Variants, ImDiffusionVariantTest,
    ::testing::Values("grating", "forecasting", "reconstruction",
                      "random_mask", "conditional", "non_ensemble",
                      "no_spatial", "no_temporal", "stochastic"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

TEST(ImDiffusionTest, VariantNamesDistinguishConfig) {
  ImDiffusionConfig config = TinyConfig(1);
  EXPECT_EQ(ImDiffusionDetector(config).name(), "ImDiffusion");
  config.conditional = true;
  EXPECT_EQ(ImDiffusionDetector(config).name(), "ImDiffusion-Conditional");
  config.conditional = false;
  config.mask_strategy = MaskStrategy::kForecasting;
  EXPECT_EQ(ImDiffusionDetector(config).name(), "ImDiffusion-Forecasting");
}

// Threading determinism contract (DESIGN.md): every parallel unit writes a
// disjoint output slice and randomness is drawn serially, so the number of
// compute threads (IMDIFF_NUM_THREADS in production, SetComputeThreads here)
// must not change a single bit of the detection scores.
TEST(ImDiffusionTest, ScoresBitwiseIdenticalAcrossThreadCounts) {
  MtsDataset ds = NormalizeDataset(EasyDataset(31));

  SetComputeThreads(1);
  ImDiffusionDetector serial(TinyConfig(32));
  serial.Fit(ds.train);
  const DetectionResult serial_result = serial.Run(ds.test);

  SetComputeThreads(4);
  ImDiffusionDetector parallel(TinyConfig(32));
  parallel.Fit(ds.train);
  const DetectionResult parallel_result = parallel.Run(ds.test);
  SetComputeThreads(1);

  ASSERT_EQ(serial_result.scores.size(), parallel_result.scores.size());
  for (size_t i = 0; i < serial_result.scores.size(); ++i) {
    ASSERT_EQ(serial_result.scores[i], parallel_result.scores[i])
        << "score diverged at position " << i;
  }
  EXPECT_EQ(serial_result.labels, parallel_result.labels);
}

// Training is serial on its calling thread: the tensor kernels are plain
// loops, so Fit at 4 compute threads submits no pool task and its loss history
// is bitwise the 1-thread history.
TEST(ImDiffusionTest, FitRunsNoPoolTaskAndIsBitwiseIdenticalAcrossThreadCounts) {
  ASSERT_TRUE(MetricsEnabled());
  MtsDataset ds = NormalizeDataset(EasyDataset(35));
  Counter* const tasks =
      MetricsRegistry::Global().GetCounter("pool.tasks_executed");

  SetComputeThreads(1);
  ImDiffusionDetector serial(TinyConfig(36));
  serial.Fit(ds.train);

  SetComputeThreads(4);
  ImDiffusionDetector parallel(TinyConfig(36));
  const int64_t before = tasks->value();
  parallel.Fit(ds.train);
  const int64_t fit_tasks = tasks->value() - before;
  SetComputeThreads(1);

  EXPECT_EQ(fit_tasks, 0);
  const std::vector<float>& serial_loss = serial.train_loss_history();
  const std::vector<float>& parallel_loss = parallel.train_loss_history();
  ASSERT_EQ(serial_loss.size(), parallel_loss.size());
  for (size_t i = 0; i < serial_loss.size(); ++i) {
    ASSERT_EQ(serial_loss[i], parallel_loss[i]) << "epoch " << i;
  }
}

// Same contract for the stochastic (ancestral DDPM) sampler: the per-chain
// sampling noise comes from serially forked generators, not the thread
// schedule.
TEST(ImDiffusionTest, StochasticScoresBitwiseIdenticalAcrossThreadCounts) {
  MtsDataset ds = NormalizeDataset(EasyDataset(33));
  ImDiffusionConfig config = TinyConfig(34);
  config.stochastic_sampling = true;
  config.infer_batch = 2;  // several chunks so the parallel loop is exercised

  SetComputeThreads(1);
  ImDiffusionDetector serial(config);
  serial.Fit(ds.train);
  const DetectionResult serial_result = serial.Run(ds.test);

  SetComputeThreads(4);
  ImDiffusionDetector parallel(config);
  parallel.Fit(ds.train);
  const DetectionResult parallel_result = parallel.Run(ds.test);
  SetComputeThreads(1);

  ASSERT_EQ(serial_result.scores.size(), parallel_result.scores.size());
  for (size_t i = 0; i < serial_result.scores.size(); ++i) {
    ASSERT_EQ(serial_result.scores[i], parallel_result.scores[i])
        << "score diverged at position " << i;
  }
}

TEST(ImDiffusionTest, PaperConfigMatchesTable1) {
  ImDiffusionConfig config = PaperImDiffusionConfig();
  EXPECT_EQ(config.model.window, 100);
  EXPECT_EQ(config.model.num_blocks, 4);
  EXPECT_EQ(config.model.hidden, 128);
  EXPECT_EQ(config.schedule.num_steps, 50);
  EXPECT_EQ(config.num_masked_windows, 5);
  EXPECT_EQ(config.vote_last_steps, 30);
  EXPECT_EQ(config.vote_stride, 3);
}

}  // namespace
}  // namespace imdiff
