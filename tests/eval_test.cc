#include <gtest/gtest.h>

#include "eval/runner.h"
#include "eval/tables.h"
#include "utils/thread_pool.h"

namespace imdiff {
namespace {

TEST(RunnerTest, DetectorNameLists) {
  const auto table2 = Table2DetectorNames();
  EXPECT_EQ(table2.size(), 11u);
  EXPECT_EQ(table2.front(), "IForest");
  EXPECT_EQ(table2.back(), "ImDiffusion");
  const auto ablation = AblationDetectorNames();
  EXPECT_EQ(ablation.size(), 8u);
  EXPECT_EQ(ablation.front(), "ImDiffusion");
}

TEST(RunnerTest, MakeDetectorCoversAllNames) {
  for (const std::string& name : Table2DetectorNames()) {
    EXPECT_NE(MakeDetector(name, 1, SpeedProfile::kFast), nullptr) << name;
  }
  for (const std::string& name : AblationDetectorNames()) {
    EXPECT_NE(MakeDetector(name, 1, SpeedProfile::kFast), nullptr) << name;
  }
}

TEST(RunnerTest, EvaluateDetectorProducesAllMetrics) {
  MtsDataset ds = MakeBenchmarkDataset(BenchmarkId::kGcp, 3, 0.2f);
  auto detector = MakeDetector("IForest", 5, SpeedProfile::kFast);
  RunMetrics metrics = EvaluateDetector(*detector, ds);
  EXPECT_GE(metrics.f1, 0.0);
  EXPECT_LE(metrics.f1, 1.0);
  EXPECT_GE(metrics.precision, 0.0);
  EXPECT_GE(metrics.recall, 0.0);
  EXPECT_GE(metrics.r_auc_pr, 0.0);
  EXPECT_LE(metrics.r_auc_pr, 1.0);
  EXPECT_GE(metrics.add, 0.0);
  EXPECT_GT(metrics.points_per_second, 0.0);
}

TEST(RunnerTest, EvaluateManySeedsAggregates) {
  MtsDataset ds = MakeBenchmarkDataset(BenchmarkId::kGcp, 3, 0.2f);
  AggregateMetrics agg =
      EvaluateManySeeds("IForest", ds, 2, SpeedProfile::kFast);
  EXPECT_EQ(agg.num_runs, 2);
  EXPECT_GE(agg.f1_std, 0.0);
  EXPECT_GE(agg.f1, 0.0);
}

TEST(RunnerTest, AverageAggregates) {
  AggregateMetrics a;
  a.f1 = 0.8;
  a.add = 100;
  AggregateMetrics b;
  b.f1 = 0.6;
  b.add = 200;
  AggregateMetrics avg = AverageAggregates({a, b});
  EXPECT_NEAR(avg.f1, 0.7, 1e-9);
  EXPECT_NEAR(avg.add, 150, 1e-9);
}

TEST(RunnerTest, ParseHarnessOptions) {
  const char* argv[] = {"bench", "--seeds", "4", "--scale", "0.25", "--paper",
                        "--dataset-seed", "99"};
  HarnessOptions options =
      ParseHarnessOptions(8, const_cast<char**>(argv));
  EXPECT_EQ(options.num_seeds, 4);
  EXPECT_FLOAT_EQ(options.size_scale, 0.25f);
  EXPECT_EQ(options.profile, SpeedProfile::kPaper);
  EXPECT_EQ(options.dataset_seed, 99u);
}

TEST(RunnerTest, ParseHarnessDefaults) {
  const char* argv[] = {"bench"};
  HarnessOptions options = ParseHarnessOptions(1, const_cast<char**>(argv));
  EXPECT_EQ(options.num_seeds, 2);
  EXPECT_EQ(options.profile, SpeedProfile::kFast);
}

// Regression: --seeds 0 / negative and non-positive --scale used to flow
// straight into EvaluateManySeeds and the dataset simulators, dividing by
// zero and emitting NaN tables. They now fail fast with a clear message.
TEST(RunnerDeathTest, ParseHarnessRejectsNonPositiveSeeds) {
  const char* zero[] = {"bench", "--seeds", "0"};
  EXPECT_DEATH(ParseHarnessOptions(3, const_cast<char**>(zero)),
               "--seeds must be a positive integer");
  const char* negative[] = {"bench", "--seeds", "-3"};
  EXPECT_DEATH(ParseHarnessOptions(3, const_cast<char**>(negative)),
               "--seeds must be a positive integer");
}

TEST(RunnerDeathTest, ParseHarnessRejectsNonPositiveScale) {
  const char* zero[] = {"bench", "--scale", "0"};
  EXPECT_DEATH(ParseHarnessOptions(3, const_cast<char**>(zero)),
               "--scale must be a positive number");
  const char* negative[] = {"bench", "--scale", "-0.5"};
  EXPECT_DEATH(ParseHarnessOptions(3, const_cast<char**>(negative)),
               "--scale must be a positive number");
}

// atoi/atof read "2x" as 2 and "abc" as 0, and a trailing flag without a
// value used to be skipped; all three now abort naming the flag.
TEST(RunnerDeathTest, ParseHarnessRejectsMalformedAndMissingValues) {
  const char* suffix[] = {"bench", "--seeds", "2x"};
  EXPECT_DEATH(ParseHarnessOptions(3, const_cast<char**>(suffix)),
               "--seeds wants an integer .*'2x'");
  const char* text[] = {"bench", "--dataset-seed", "abc"};
  EXPECT_DEATH(ParseHarnessOptions(3, const_cast<char**>(text)),
               "--dataset-seed wants an integer .*'abc'");
  const char* missing[] = {"bench", "--paper", "--scale"};
  EXPECT_DEATH(ParseHarnessOptions(3, const_cast<char**>(missing)),
               "--scale needs a value");
}

// The (detector, seed) runs of EvaluateManySeeds execute in parallel on the
// compute pool; every run owns its detector and Rng, so the aggregate must
// match the serial execution exactly.
TEST(RunnerTest, EvaluateManySeedsIdenticalAcrossThreadCounts) {
  MtsDataset ds = MakeBenchmarkDataset(BenchmarkId::kGcp, 3, 0.2f);
  SetComputeThreads(1);
  AggregateMetrics serial =
      EvaluateManySeeds("IForest", ds, 3, SpeedProfile::kFast);
  SetComputeThreads(4);
  AggregateMetrics parallel =
      EvaluateManySeeds("IForest", ds, 3, SpeedProfile::kFast);
  SetComputeThreads(1);
  EXPECT_EQ(serial.precision, parallel.precision);
  EXPECT_EQ(serial.recall, parallel.recall);
  EXPECT_EQ(serial.f1, parallel.f1);
  EXPECT_EQ(serial.f1_std, parallel.f1_std);
  EXPECT_EQ(serial.r_auc_pr, parallel.r_auc_pr);
  EXPECT_EQ(serial.add, parallel.add);
  EXPECT_EQ(serial.num_runs, parallel.num_runs);
}

TEST(TablesTest, RendersAlignedColumns) {
  TextTable table({"Method", "F1"});
  table.AddRow({"ImDiffusion", "0.9284"});
  table.AddRow({"X", "0.1"});
  const std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("Method"), std::string::npos);
  EXPECT_NE(rendered.find("ImDiffusion"), std::string::npos);
  EXPECT_NE(rendered.find("----"), std::string::npos);
}

TEST(TablesTest, Formatters) {
  EXPECT_EQ(FormatMetric(0.92837, 4), "0.9284");
  EXPECT_EQ(FormatMetric(1.0, 2), "1.00");
  EXPECT_EQ(FormatMeanStd(104.4, 13.6, 0), "104 +- 14");
}

}  // namespace
}  // namespace imdiff
