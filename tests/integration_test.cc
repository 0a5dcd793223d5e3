// Cross-module integration tests: the full evaluation pipeline
// (simulate -> normalize -> fit -> score -> metrics) on micro-sized
// workloads, plus failure-injection checks on the harness contracts.

#include <cmath>

#include <gtest/gtest.h>

#include "core/imdiffusion.h"
#include "eval/runner.h"
#include "metrics/add.h"
#include "metrics/classification.h"
#include "metrics/pot.h"
#include "metrics/range_auc.h"

namespace imdiff {
namespace {

TEST(IntegrationTest, FullPipelineOnMicroBenchmark) {
  MtsDataset dataset = MakeBenchmarkDataset(BenchmarkId::kGcp, 17, 0.15f);
  // Detector with a micro config to keep the test fast.
  ImDiffusionConfig config = FastImDiffusionConfig();
  config.epochs = 4;
  config.schedule.num_steps = 8;
  config.vote_last_steps = 6;
  config.seed = 3;
  ImDiffusionDetector detector(config);
  RunMetrics metrics = EvaluateDetector(detector, dataset);
  EXPECT_GE(metrics.f1, 0.0);
  EXPECT_LE(metrics.f1, 1.0);
  EXPECT_GE(metrics.r_auc_pr, 0.0);
  EXPECT_GT(metrics.fit_seconds, 0.0);
  EXPECT_GT(metrics.points_per_second, 0.0);
}

TEST(IntegrationTest, PotThresholdUsableOnDetectorScores) {
  // OmniAnomaly-style usage: POT threshold from the score distribution.
  MtsDataset dataset = MakeBenchmarkDataset(BenchmarkId::kSmd, 19, 0.15f);
  MtsDataset norm = NormalizeDataset(dataset);
  auto detector = MakeDetector("OmniAnomaly", 5, SpeedProfile::kFast);
  detector->Fit(norm.train);
  DetectionResult result = detector->Run(norm.test);
  PotConfig pot;
  pot.initial_quantile = 0.95;
  const float threshold = PotThreshold(result.scores, pot);
  EXPECT_TRUE(std::isfinite(threshold));
  auto preds = ThresholdScores(result.scores, threshold);
  // POT targets a small exceedance probability: few positives.
  int64_t positives = 0;
  for (uint8_t p : preds) positives += p;
  EXPECT_LT(positives, static_cast<int64_t>(preds.size()) / 4);
}

TEST(IntegrationTest, MetricsConsistentAcrossProtocol) {
  // On scores that perfectly separate, every metric saturates together.
  std::vector<uint8_t> labels(400, 0);
  std::vector<float> scores(400, 0.1f);
  for (int64_t t = 200; t < 230; ++t) {
    labels[static_cast<size_t>(t)] = 1;
    scores[static_cast<size_t>(t)] = 9.0f;
  }
  BinaryMetrics best;
  const float threshold = BestF1Threshold(scores, labels, 64, &best);
  EXPECT_NEAR(best.f1, 1.0, 1e-9);
  EXPECT_EQ(AverageDetectionDelay(labels, ThresholdScores(scores, threshold)),
            0.0);
  EXPECT_GT(RangeAucRoc(scores, labels, 0), 0.99);
}

TEST(IntegrationTest, DetectorsRejectRunBeforeFit) {
  auto detector = MakeDetector("TranAD", 1, SpeedProfile::kFast);
  EXPECT_DEATH(detector->Run(Tensor::Zeros({50, 3})),
               "Fit must be called before Run");
}

TEST(IntegrationTest, ImDiffusionRejectsFeatureMismatch) {
  ImDiffusionConfig config = FastImDiffusionConfig();
  config.epochs = 1;
  config.schedule.num_steps = 4;
  ImDiffusionDetector detector(config);
  Rng rng(1);
  detector.Fit(Tensor::Randn({220, 3}, rng));
  // Test series with a different K must abort loudly, not corrupt memory.
  EXPECT_DEATH(detector.Run(Tensor::Randn({220, 5}, rng)), "check failed");
}

TEST(IntegrationTest, NormalizationUsesTrainStatisticsOnly) {
  MtsDataset dataset;
  // Assigning the bare literal trips a GCC 12 -Wrestrict false positive.
  dataset.name = std::string("t");
  dataset.train = Tensor({4, 1}, {0, 1, 2, 4});
  dataset.test = Tensor({2, 1}, {8, -4});
  dataset.test_labels = {0, 0};
  MtsDataset norm = NormalizeDataset(dataset);
  // Test values outside the train range clamp to [-1, 2].
  EXPECT_EQ(norm.test.flat(0), 2.0f);
  EXPECT_EQ(norm.test.flat(1), -1.0f);
}

TEST(IntegrationTest, SeedsProduceIndependentRunsButStableAggregates) {
  MtsDataset dataset = MakeBenchmarkDataset(BenchmarkId::kGcp, 23, 0.15f);
  AggregateMetrics agg =
      EvaluateManySeeds("IForest", dataset, 3, SpeedProfile::kFast);
  EXPECT_EQ(agg.num_runs, 3);
  // IForest is nearly deterministic given data; F1 std should be small.
  EXPECT_LT(agg.f1_std, 0.3);
}

}  // namespace
}  // namespace imdiff
