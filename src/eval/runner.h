// Evaluation harness: builds detectors by name, runs (detector × dataset ×
// seed) evaluations with the paper's protocol, and aggregates metrics.
//
// Protocol (matching §5.1-§5.2): datasets are min-max normalized on train
// statistics; every detector is fit on the anomaly-free train split and
// scored on the test split; the operating threshold is chosen by grid search
// for best point-adjusted F1 (the paper's fallback protocol for baselines and
// the analogue of its per-dataset tuned thresholds); R-AUC-PR/ROC are
// threshold-independent; ADD uses the best-F1 predictions. Each configuration
// is run `num_seeds` times with different detector seeds on a fixed dataset
// realization, as in the paper's 6 independent runs.

#ifndef IMDIFF_EVAL_RUNNER_H_
#define IMDIFF_EVAL_RUNNER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/detector.h"
#include "data/benchmarks.h"

namespace imdiff {

// Scales every model/training knob for the environment:
//  kFast — single-core CPU profile used by the bench binaries (documented in
//          EXPERIMENTS.md);
//  kPaper — Table 1 hyperparameters (slow on CPU; provided for completeness).
enum class SpeedProfile { kFast, kPaper };

// The ten baselines of Table 2, in the paper's row order, plus "ImDiffusion".
std::vector<std::string> Table2DetectorNames();

// Ablation variants of Tables 5/6, in the paper's row order
// ("ImDiffusion", "Forecasting", "Reconstruction", "Non-ensemble",
//  "Conditional", "Random Mask", "w/o spatial", "w/o temporal").
std::vector<std::string> AblationDetectorNames();

// Builds a detector by (table row) name. Aborts on unknown names.
std::unique_ptr<AnomalyDetector> MakeDetector(const std::string& name,
                                              uint64_t seed,
                                              SpeedProfile profile);

// Metrics of a single run.
struct RunMetrics {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  double r_auc_pr = 0.0;
  double r_auc_roc = 0.0;
  double add = 0.0;
  double fit_seconds = 0.0;
  double score_seconds = 0.0;
  double points_per_second = 0.0;  // inference throughput
};

// Fits `detector` on the dataset's train split and evaluates on test.
// The dataset must NOT be pre-normalized (normalization happens inside, on
// train statistics).
RunMetrics EvaluateDetector(AnomalyDetector& detector,
                            const MtsDataset& dataset);

// Mean and standard deviation per metric over seeds.
struct AggregateMetrics {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  double f1_std = 0.0;
  double r_auc_pr = 0.0;
  double add = 0.0;
  double add_std = 0.0;
  double points_per_second = 0.0;
  int num_runs = 0;
};

// Runs `num_seeds` independent detector seeds on one dataset realization.
AggregateMetrics EvaluateManySeeds(const std::string& detector_name,
                                   const MtsDataset& dataset, int num_seeds,
                                   SpeedProfile profile);

// Averages aggregates across datasets (for the Table 3 / Table 6 rows).
AggregateMetrics AverageAggregates(const std::vector<AggregateMetrics>& rows);

// Shared bench-harness options parsed from argv: --seeds N --scale F --paper
// --dataset-seed S --metrics-out PATH. Values parse strictly (utils/flags.h)
// and a flag missing its value aborts naming it; other arguments are left
// to the harness.
struct HarnessOptions {
  int num_seeds = 2;
  float size_scale = 0.5f;
  SpeedProfile profile = SpeedProfile::kFast;
  uint64_t dataset_seed = 42;
  // When non-empty, the bench main dumps the metrics registry (counters,
  // gauges, per-phase latency histograms — see utils/metrics.h) to this path
  // as JSON on exit via WriteMetricsIfRequested, producing the machine-
  // readable perf snapshot the BENCH_*.json trajectory is built from.
  std::string metrics_out;
};
HarnessOptions ParseHarnessOptions(int argc, char** argv);

// Writes the metrics registry to options.metrics_out (no-op when empty).
// Every bench main calls this after its tables are printed.
void WriteMetricsIfRequested(const HarnessOptions& options);

}  // namespace imdiff

#endif  // IMDIFF_EVAL_RUNNER_H_
