#include "eval/runner.h"

#include <cmath>
#include <cstring>

#include "baselines/beatgan.h"
#include "baselines/gdn.h"
#include "baselines/iforest.h"
#include "baselines/interfusion.h"
#include "baselines/lstm_ad.h"
#include "baselines/madgan.h"
#include "baselines/mscred.h"
#include "baselines/mtad_gat.h"
#include "baselines/omni_anomaly.h"
#include "baselines/tranad.h"
#include "core/imdiffusion.h"
#include "metrics/add.h"
#include "metrics/classification.h"
#include "metrics/range_auc.h"
#include "utils/flags.h"
#include "utils/logging.h"
#include "utils/metrics.h"
#include "utils/stopwatch.h"
#include "utils/thread_pool.h"

namespace imdiff {

std::vector<std::string> Table2DetectorNames() {
  return {"IForest",     "BeatGAN",  "LSTM-AD", "InterFusion",
          "OmniAnomaly", "GDN",      "MAD-GAN", "MTAD-GAT",
          "MSCRED",      "TranAD",   "ImDiffusion"};
}

std::vector<std::string> AblationDetectorNames() {
  return {"ImDiffusion",  "Forecasting",  "Reconstruction",
          "Non-ensemble", "Conditional",  "Random Mask",
          "w/o spatial transformer",      "w/o temporal transformer"};
}

namespace {

ImDiffusionConfig BaseImDiffusionConfig(uint64_t seed, SpeedProfile profile) {
  ImDiffusionConfig config = profile == SpeedProfile::kPaper
                                 ? PaperImDiffusionConfig()
                                 : FastImDiffusionConfig();
  config.seed = seed;
  return config;
}

}  // namespace

std::unique_ptr<AnomalyDetector> MakeDetector(const std::string& name,
                                              uint64_t seed,
                                              SpeedProfile profile) {
  const bool paper = profile == SpeedProfile::kPaper;
  if (name == "IForest") {
    IsolationForestConfig config;
    config.num_trees = paper ? 200 : 100;
    config.seed = seed;
    return std::make_unique<IsolationForest>(config);
  }
  if (name == "BeatGAN") {
    BeatGanConfig config;
    if (paper) config.epochs = 30;
    config.seed = seed;
    return std::make_unique<BeatGanDetector>(config);
  }
  if (name == "LSTM-AD") {
    LstmAdConfig config;
    if (paper) {
      config.hidden = 64;
      config.epochs = 20;
    }
    config.seed = seed;
    return std::make_unique<LstmAdDetector>(config);
  }
  if (name == "InterFusion") {
    InterFusionConfig config;
    if (paper) config.epochs = 30;
    config.seed = seed;
    return std::make_unique<InterFusionDetector>(config);
  }
  if (name == "OmniAnomaly") {
    OmniAnomalyConfig config;
    if (paper) config.epochs = 30;
    config.seed = seed;
    return std::make_unique<OmniAnomalyDetector>(config);
  }
  if (name == "GDN") {
    GdnConfig config;
    if (paper) config.epochs = 30;
    config.seed = seed;
    return std::make_unique<GdnDetector>(config);
  }
  if (name == "MAD-GAN") {
    MadGanConfig config;
    if (paper) config.epochs = 30;
    config.seed = seed;
    return std::make_unique<MadGanDetector>(config);
  }
  if (name == "MTAD-GAT") {
    MtadGatConfig config;
    if (paper) config.epochs = 20;
    config.seed = seed;
    return std::make_unique<MtadGatDetector>(config);
  }
  if (name == "MSCRED") {
    MscredConfig config;
    if (paper) config.epochs = 30;
    config.seed = seed;
    return std::make_unique<MscredDetector>(config);
  }
  if (name == "TranAD") {
    TranAdConfig config;
    if (paper) config.epochs = 20;
    config.seed = seed;
    return std::make_unique<TranAdDetector>(config);
  }
  // ImDiffusion and its ablation variants.
  ImDiffusionConfig config = BaseImDiffusionConfig(seed, profile);
  if (name == "ImDiffusion") {
    return std::make_unique<ImDiffusionDetector>(config);
  }
  if (name == "Forecasting") {
    config.mask_strategy = MaskStrategy::kForecasting;
    return std::make_unique<ImDiffusionDetector>(config);
  }
  if (name == "Reconstruction") {
    config.mask_strategy = MaskStrategy::kReconstruction;
    return std::make_unique<ImDiffusionDetector>(config);
  }
  if (name == "Non-ensemble") {
    config.ensemble = false;
    return std::make_unique<ImDiffusionDetector>(config);
  }
  if (name == "Conditional") {
    config.conditional = true;
    return std::make_unique<ImDiffusionDetector>(config);
  }
  if (name == "Random Mask") {
    config.mask_strategy = MaskStrategy::kRandom;
    return std::make_unique<ImDiffusionDetector>(config);
  }
  if (name == "w/o spatial transformer") {
    config.model.use_spatial = false;
    return std::make_unique<ImDiffusionDetector>(config);
  }
  if (name == "w/o temporal transformer") {
    config.model.use_temporal = false;
    return std::make_unique<ImDiffusionDetector>(config);
  }
  IMDIFF_CHECK(false) << "unknown detector" << name;
  return nullptr;
}

RunMetrics EvaluateDetector(AnomalyDetector& detector,
                            const MtsDataset& dataset) {
  const MtsDataset normalized = NormalizeDataset(dataset);
  RunMetrics metrics;
  Stopwatch fit_timer;
  detector.Fit(normalized.train);
  metrics.fit_seconds = fit_timer.ElapsedSeconds();

  Stopwatch score_timer;
  const DetectionResult result = detector.Run(normalized.test);
  metrics.score_seconds = score_timer.ElapsedSeconds();
  metrics.points_per_second =
      metrics.score_seconds > 0.0
          ? static_cast<double>(normalized.test_length()) / metrics.score_seconds
          : 0.0;

  // Per-(detector, dataset) wall clock for the perf trajectory. Dynamic
  // names are fine here: one registry lookup per evaluation run.
  if (MetricsEnabled()) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    const std::string run_key =
        detector.name() + "." +
        (dataset.name.empty() ? std::string("unnamed") : dataset.name);
    registry.GetHistogram("eval.fit_seconds." + run_key)
        ->Record(metrics.fit_seconds);
    registry.GetHistogram("eval.score_seconds." + run_key)
        ->Record(metrics.score_seconds);
    registry.GetCounter("eval.runs")->Increment();
  }

  BinaryMetrics best;
  const float threshold =
      BestF1Threshold(result.scores, normalized.test_labels, 64, &best);
  metrics.precision = best.precision;
  metrics.recall = best.recall;
  metrics.f1 = best.f1;
  metrics.r_auc_pr = RangeAucPr(result.scores, normalized.test_labels);
  metrics.r_auc_roc = RangeAucRoc(result.scores, normalized.test_labels);
  // ADD from the best-F1 predictions (point-adjusted predictions would
  // trivially zero the delay, so the raw thresholded predictions are used).
  metrics.add = AverageDetectionDelay(
      normalized.test_labels, ThresholdScores(result.scores, threshold));
  return metrics;
}

AggregateMetrics EvaluateManySeeds(const std::string& detector_name,
                                   const MtsDataset& dataset, int num_seeds,
                                   SpeedProfile profile) {
  IMDIFF_CHECK_GE(num_seeds, 1) << "EvaluateManySeeds needs num_seeds >= 1";
  // Seed runs are independent: each task builds its own detector (which owns
  // its Rng, seeded from the task's seed index) and writes its own slot, so
  // the aggregate is identical to the serial loop for any thread count.
  std::vector<RunMetrics> runs(static_cast<size_t>(num_seeds));
  ParallelFor(ComputePool(), static_cast<size_t>(num_seeds), [&](size_t s) {
    auto detector = MakeDetector(detector_name,
                                 1000 + 17 * static_cast<uint64_t>(s), profile);
    runs[s] = EvaluateDetector(*detector, dataset);
  });
  AggregateMetrics agg;
  agg.num_runs = num_seeds;
  for (const RunMetrics& r : runs) {
    agg.precision += r.precision;
    agg.recall += r.recall;
    agg.f1 += r.f1;
    agg.r_auc_pr += r.r_auc_pr;
    agg.add += r.add;
    agg.points_per_second += r.points_per_second;
  }
  const double n = static_cast<double>(num_seeds);
  agg.precision /= n;
  agg.recall /= n;
  agg.f1 /= n;
  agg.r_auc_pr /= n;
  agg.add /= n;
  agg.points_per_second /= n;
  double f1_var = 0.0, add_var = 0.0;
  for (const RunMetrics& r : runs) {
    f1_var += (r.f1 - agg.f1) * (r.f1 - agg.f1);
    add_var += (r.add - agg.add) * (r.add - agg.add);
  }
  if (num_seeds > 1) {
    agg.f1_std = std::sqrt(f1_var / (n - 1.0));
    agg.add_std = std::sqrt(add_var / (n - 1.0));
  }
  return agg;
}

AggregateMetrics AverageAggregates(const std::vector<AggregateMetrics>& rows) {
  AggregateMetrics avg;
  if (rows.empty()) return avg;
  for (const AggregateMetrics& r : rows) {
    avg.precision += r.precision;
    avg.recall += r.recall;
    avg.f1 += r.f1;
    avg.f1_std += r.f1_std;
    avg.r_auc_pr += r.r_auc_pr;
    avg.add += r.add;
    avg.add_std += r.add_std;
    avg.points_per_second += r.points_per_second;
    avg.num_runs = r.num_runs;
  }
  const double n = static_cast<double>(rows.size());
  avg.precision /= n;
  avg.recall /= n;
  avg.f1 /= n;
  avg.f1_std /= n;
  avg.r_auc_pr /= n;
  avg.add /= n;
  avg.add_std /= n;
  avg.points_per_second /= n;
  return avg;
}

HarnessOptions ParseHarnessOptions(int argc, char** argv) {
  HarnessOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* const flag = argv[i];
    auto next = [&]() {
      IMDIFF_CHECK(i + 1 < argc) << flag << "needs a value";
      return argv[++i];
    };
    if (std::strcmp(flag, "--seeds") == 0) {
      options.num_seeds = FlagValue<int>(flag, next());
    } else if (std::strcmp(flag, "--scale") == 0) {
      options.size_scale = FlagValue<float>(flag, next());
    } else if (std::strcmp(flag, "--paper") == 0) {
      options.profile = SpeedProfile::kPaper;
    } else if (std::strcmp(flag, "--dataset-seed") == 0) {
      options.dataset_seed = FlagValue<uint64_t>(flag, next());
    } else if (std::strcmp(flag, "--metrics-out") == 0) {
      options.metrics_out = next();
    }
  }
  // Non-positive values would divide by zero downstream (EvaluateManySeeds
  // averages over num_seeds; the simulators scale lengths by size_scale) and
  // fill the tables with NaN, so fail fast with a clear message.
  IMDIFF_CHECK_GE(options.num_seeds, 1)
      << "--seeds must be a positive integer";
  IMDIFF_CHECK(options.size_scale > 0.0f)
      << "--scale must be a positive number";
  return options;
}

void WriteMetricsIfRequested(const HarnessOptions& options) {
  if (options.metrics_out.empty()) return;
  if (WriteMetricsJson(options.metrics_out)) {
    IMDIFF_LOG(Info) << "metrics snapshot written to " << options.metrics_out;
  } else {
    IMDIFF_LOG(Error) << "failed to write metrics snapshot to "
                      << options.metrics_out;
  }
}

}  // namespace imdiff
