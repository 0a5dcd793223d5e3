#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "data/benchmarks.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "data/windowing.h"
#include "utils/csv.h"

namespace imdiff {
namespace {

TEST(SyntheticTest, ShapeAndDeterminism) {
  SyntheticConfig config;
  config.length = 300;
  config.dims = 5;
  Rng rng1(7);
  Rng rng2(7);
  Tensor a = GenerateCleanSeries(config, rng1);
  Tensor b = GenerateCleanSeries(config, rng2);
  EXPECT_EQ(a.shape(), (Shape{300, 5}));
  for (int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a.flat(i), b.flat(i));
}

TEST(SyntheticTest, ChannelsAreCorrelated) {
  // Channels loading the same factor must correlate strongly.
  SyntheticConfig config;
  config.length = 1000;
  config.dims = 4;
  config.num_factors = 2;
  config.noise_sigma = 0.01f;
  config.burst_rate = 0.0;
  config.bump_rate = 0.0;
  Rng rng(8);
  Tensor s = GenerateCleanSeries(config, rng);
  // Channels 0 and 2 share primary factor 0.
  double c00 = 0, c22 = 0, c02 = 0, m0 = 0, m2 = 0;
  for (int64_t t = 0; t < 1000; ++t) {
    m0 += s.at(t, 0);
    m2 += s.at(t, 2);
  }
  m0 /= 1000;
  m2 /= 1000;
  for (int64_t t = 0; t < 1000; ++t) {
    c00 += (s.at(t, 0) - m0) * (s.at(t, 0) - m0);
    c22 += (s.at(t, 2) - m2) * (s.at(t, 2) - m2);
    c02 += (s.at(t, 0) - m0) * (s.at(t, 2) - m2);
  }
  const double corr = c02 / std::sqrt(c00 * c22);
  EXPECT_GT(std::abs(corr), 0.5);
}

TEST(InjectionTest, RateAndLabelsConsistent) {
  SyntheticConfig config;
  config.length = 2000;
  config.dims = 4;
  Rng rng(9);
  Tensor series = GenerateCleanSeries(config, rng);
  InjectionConfig inject;
  inject.anomaly_rate = 0.10;
  auto events = InjectAnomalies(series, inject, rng);
  EXPECT_FALSE(events.empty());
  auto labels = LabelsFromEvents(events, 2000, /*margin=*/0);
  int64_t anomalous = 0;
  for (uint8_t l : labels) anomalous += l;
  // Within a factor of the target rate.
  EXPECT_GT(anomalous, 2000 * 0.03);
  EXPECT_LT(anomalous, 2000 * 0.2);
}

TEST(InjectionTest, EventsDoNotOverlap) {
  SyntheticConfig config;
  config.length = 1500;
  config.dims = 3;
  Rng rng(10);
  Tensor series = GenerateCleanSeries(config, rng);
  InjectionConfig inject;
  inject.anomaly_rate = 0.15;
  auto events = InjectAnomalies(series, inject, rng);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].start, events[i - 1].start + events[i - 1].length);
  }
}

TEST(InjectionTest, ActuallyPerturbsAffectedChannels) {
  SyntheticConfig config;
  config.length = 800;
  config.dims = 4;
  Rng rng(11);
  Tensor clean = GenerateCleanSeries(config, rng);
  Tensor dirty = clean.Clone();
  InjectionConfig inject;
  inject.anomaly_rate = 0.1;
  inject.types = {AnomalyType::kLevelShift};
  Rng rng2(12);
  auto events = InjectAnomalies(dirty, inject, rng2);
  ASSERT_FALSE(events.empty());
  const AnomalyEvent& e = events[0];
  double diff = 0;
  for (int64_t t = e.start; t < e.start + e.length; ++t) {
    diff += std::abs(dirty.at(t, e.channels[0]) - clean.at(t, e.channels[0]));
  }
  EXPECT_GT(diff, 0.1);
}

TEST(LabelsTest, MarginExtendsEvents) {
  AnomalyEvent e;
  e.start = 10;
  e.length = 5;
  auto labels = LabelsFromEvents({e}, 30, 3);
  EXPECT_EQ(labels[6], 0);
  EXPECT_EQ(labels[7], 1);
  EXPECT_EQ(labels[14], 1);
  EXPECT_EQ(labels[17], 1);
  EXPECT_EQ(labels[18], 0);
}

TEST(NormalizationTest, MapsTrainToUnitRange) {
  Tensor train({4, 2}, {0, 10, 1, 20, 2, 30, 4, 40});
  MinMaxStats stats = FitMinMax(train);
  EXPECT_EQ(stats.min[0], 0.0f);
  EXPECT_EQ(stats.max[1], 40.0f);
  Tensor norm = ApplyMinMax(train, stats);
  EXPECT_EQ(norm.at(0, 0), 0.0f);
  EXPECT_EQ(norm.at(3, 0), 1.0f);
  EXPECT_NEAR(norm.at(1, 1), 1.0f / 3.0f, 1e-5);
}

TEST(NormalizationTest, ClampsExtremeTestValues) {
  Tensor train({2, 1}, {0, 1});
  MinMaxStats stats = FitMinMax(train);
  Tensor test({2, 1}, {100.0f, -100.0f});
  Tensor norm = ApplyMinMax(test, stats);
  EXPECT_EQ(norm.flat(0), 2.0f);
  EXPECT_EQ(norm.flat(1), -1.0f);
}

TEST(NormalizationTest, ConstantChannelMapsToZero) {
  Tensor train({3, 1}, {5, 5, 5});
  Tensor norm = ApplyMinMax(train, FitMinMax(train));
  for (int64_t i = 0; i < 3; ++i) EXPECT_EQ(norm.flat(i), 0.0f);
}

TEST(WindowingTest, StartsCoverSeries) {
  auto starts = WindowStarts(250, 100, 100);
  EXPECT_EQ(starts.size(), 3u);
  EXPECT_EQ(starts.back(), 150);  // tail window aligned to the end
}

TEST(WindowingTest, ShortSeriesSingleWindow) {
  auto starts = WindowStarts(50, 100, 100);
  EXPECT_EQ(starts.size(), 1u);
  Tensor batch = WindowBatch(Tensor({50, 2}), 100, 100);
  EXPECT_EQ(batch.shape(), (Shape{1, 100, 2}));
}

TEST(WindowingTest, WindowContentsMatchSeries) {
  Tensor series({10, 1}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor batch = WindowBatch(series, 4, 3);
  auto starts = WindowStarts(10, 4, 3);
  for (size_t n = 0; n < starts.size(); ++n) {
    for (int64_t i = 0; i < 4; ++i) {
      EXPECT_EQ(batch.at(static_cast<int64_t>(n), i, 0),
                series.at(starts[n] + i, 0));
    }
  }
}

TEST(WindowingTest, OverlapAverageBlendsWindows) {
  std::vector<std::vector<float>> scores = {{1, 1, 1, 1}, {3, 3, 3, 3}};
  std::vector<int64_t> starts = {0, 2};
  auto series = OverlapAverage(scores, starts, 6, 4);
  EXPECT_EQ(series[0], 1.0f);
  EXPECT_EQ(series[2], 2.0f);  // overlap averages 1 and 3
  EXPECT_EQ(series[5], 3.0f);
}

class BenchmarkIdTest : public ::testing::TestWithParam<BenchmarkId> {};

TEST_P(BenchmarkIdTest, DatasetWellFormed) {
  MtsDataset ds = MakeBenchmarkDataset(GetParam(), 1, 0.25f);
  EXPECT_FALSE(ds.name.empty());
  EXPECT_GT(ds.train_length(), 0);
  EXPECT_GT(ds.test_length(), 0);
  EXPECT_EQ(ds.train.dim(1), ds.test.dim(1));
  EXPECT_EQ(static_cast<int64_t>(ds.test_labels.size()), ds.test_length());
  int64_t anomalous = 0;
  for (uint8_t l : ds.test_labels) anomalous += l;
  EXPECT_GT(anomalous, 0);
  EXPECT_LT(anomalous, ds.test_length() / 2);
}

TEST_P(BenchmarkIdTest, SeedChangesData) {
  MtsDataset a = MakeBenchmarkDataset(GetParam(), 1, 0.25f);
  MtsDataset b = MakeBenchmarkDataset(GetParam(), 2, 0.25f);
  bool differs = false;
  for (int64_t i = 0; i < std::min(a.train.numel(), b.train.numel()); ++i) {
    if (a.train.flat(i) != b.train.flat(i)) {
      differs = true;
      break;
    }
  }
  EXPECT_TRUE(differs);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BenchmarkIdTest,
                         ::testing::ValuesIn(AllBenchmarks()),
                         [](const ::testing::TestParamInfo<BenchmarkId>& i) {
                           return BenchmarkName(i.param);
                         });

TEST(BenchmarkTest, SwatHasHighestDims) {
  MtsDataset swat = MakeBenchmarkDataset(BenchmarkId::kSwat, 1, 0.25f);
  for (BenchmarkId id : AllBenchmarks()) {
    MtsDataset other = MakeBenchmarkDataset(id, 1, 0.25f);
    EXPECT_LE(other.num_features(), swat.num_features());
  }
}

TEST(BenchmarkTest, MicroserviceLatencyStream) {
  MtsDataset ds = MakeMicroserviceLatencyDataset(1, 4, 400, 400);
  EXPECT_EQ(ds.num_features(), 4);
  EXPECT_EQ(ds.train_length(), 400);
  // Latencies are positive.
  for (int64_t i = 0; i < ds.train.numel(); ++i) {
    EXPECT_GT(ds.train.flat(i), 0.0f);
  }
  int64_t anomalous = 0;
  for (uint8_t l : ds.test_labels) anomalous += l;
  EXPECT_GT(anomalous, 0);
}

// Every float comes back exactly, including ones that need more than the
// stream's default six significant digits.
TEST(CsvTest, WriteReadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/data.csv";
  WriteCsv(path, {"a", "b"},
           {{1.5f, 2.5f}, {3.0f, 4.0f}, {0.1234567f, 1234567.9f}});
  auto rows = ReadCsv(path, /*skip_header=*/true);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][1], 2.5f);
  EXPECT_EQ(rows[1][0], 3.0f);
  EXPECT_EQ(rows[2][0], 0.1234567f);
  EXPECT_EQ(rows[2][1], 1234567.9f);
}

// A cell that is not one number is an error naming path:line:column, never
// a silent 0 (what atof made of "abc", "" and the "7" in "7x").
TEST(CsvDeathTest, MalformedCellAbortsNamingPathLineColumn) {
  const std::string path = ::testing::TempDir() + "/malformed.csv";
  for (const auto& [body, where] :
       {std::pair<const char*, const char*>{"1,2\n3,abc\n", ":2:2 "},
        {"1,,2\n", ":1:2 "},
        {"7x,1\n", ":1:1 "}}) {
    {
      std::ofstream out(path);
      out << body;
    }
    EXPECT_DEATH(ReadCsv(path, /*skip_header=*/false),
                 "malformed\\.csv" + std::string(where) + "is not a number")
        << body;
  }
  // Padding and CRLF line ends are not malformed.
  {
    std::ofstream out(path);
    out << "1, 2.5\r\n 3 ,-4e-1\r\n";
  }
  const auto rows = ReadCsv(path, /*skip_header=*/false);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], 2.5f);
  EXPECT_EQ(rows[1][0], 3.0f);
  EXPECT_EQ(rows[1][1], -0.4f);
}

TEST(CsvDatasetTest, LoadsSplits) {
  const std::string dir = ::testing::TempDir();
  WriteCsv(dir + "/train.csv", {}, {{1, 2}, {3, 4}, {5, 6}});
  WriteCsv(dir + "/test.csv", {}, {{7, 8}, {9, 10}});
  WriteCsv(dir + "/labels.csv", {}, {{0}, {1}});
  MtsDataset ds = LoadCsvDataset("csvset", dir + "/train.csv",
                                 dir + "/test.csv", dir + "/labels.csv");
  EXPECT_EQ(ds.train_length(), 3);
  EXPECT_EQ(ds.test_length(), 2);
  EXPECT_EQ(ds.test_labels[1], 1);
}

TEST(SegmentsTest, FindSegments) {
  auto segs = FindSegments({0, 1, 1, 0, 1, 0, 0, 1});
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0].start, 1);
  EXPECT_EQ(segs[0].end, 3);
  EXPECT_EQ(segs[2].start, 7);
  EXPECT_EQ(segs[2].end, 8);
}

}  // namespace
}  // namespace imdiff
