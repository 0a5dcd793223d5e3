// The ImDiffusion anomaly detector (paper §4).
//
// Pipeline: grating (or random) masking creates complementary missing-value
// patterns; an unconditional imputed diffusion model (ImTransformer denoiser)
// is trained with the ε-prediction objective restricted to the masked region
// (Eq. 11); at inference the reverse chain imputes the masked values, the
// per-step imputed errors E_t form the ensemble signal (Algorithm 1), and the
// rescaled thresholds of Eq. 12 plus the vote count V_l yield the anomaly
// decision.

#ifndef IMDIFF_CORE_IMDIFFUSION_H_
#define IMDIFF_CORE_IMDIFFUSION_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/detector.h"
#include "core/im_transformer.h"
#include "data/dataset.h"
#include "core/masking.h"
#include "diffusion/ddpm.h"
#include "graph/graph.h"
#include "utils/rng.h"

namespace imdiff {

struct ImDiffusionConfig {
  // Model (K is filled in from the data at Fit time).
  ImTransformerConfig model;
  // Diffusion schedule; schedule.num_steps is the paper's T (Table 1: 50).
  ScheduleConfig schedule;
  // Masking (Table 1: 5 masked + 5 unmasked grating windows).
  MaskStrategy mask_strategy = MaskStrategy::kGrating;
  int num_masked_windows = 5;
  // Conditional ablation (§5.3.3): feed raw observed values instead of the
  // forward noise as the unmasked-region reference.
  bool conditional = false;
  // Ensemble voting (§4.5); false = final-step error only.
  bool ensemble = true;
  // Reverse-process sampling noise. true follows the paper's DDPM ancestral
  // sampler; false uses the posterior mean only (DDIM-style σ=0), which
  // stabilizes single-chain imputation — useful at CPU scale where averaging
  // many chains (as CSDI does) is unaffordable.
  bool stochastic_sampling = true;

  // Training.
  int epochs = 20;
  int batch_size = 8;
  float lr = 1e-3f;
  int64_t train_stride = 50;

  // Inference.
  int infer_batch = 16;
  // Vote over every `vote_stride`-th of the last `vote_last_steps` reverse
  // steps (paper: every 3rd of the last 30).
  int vote_last_steps = 30;
  int vote_stride = 3;
  // τ_T: upper percentile of final-step imputed errors (Eq. 12 baseline).
  double tau_quantile = 0.97;
  // Per-step error construction. The paper scores with the raw squared
  // imputation error; production series additionally carry zero-mean noise
  // bursts that spike the squared error without being anomalies. The bias
  // term — the squared moving average of the *signed* residual over
  // `bias_window` steps — cancels symmetric noise while preserving
  // systematic deviations (level shifts, drifts). The final per-step error
  // is  mean_k( bias² + raw_error_weight · d² ).
  int bias_window = 5;
  float raw_error_weight = 0.4f;
  // Additional moving average over the combined error series (1 = off).
  int error_smoothing = 1;
  // ξ: votes required to mark an anomaly.
  int vote_threshold = 5;
  // Per-step error target: true scores each vote step against the x̂0
  // projection implied by (x_t, ε̂) — the step's fully-denoised estimate,
  // matching the refined step-wise imputations of the paper's Fig. 8.
  // false scores against the raw intermediate chain state X_{t-1}.
  bool score_on_x0 = true;

  uint64_t seed = 1;
  bool verbose = false;
};

// Returns a config scaled for single-core CPU runs (smaller hidden dim,
// fewer blocks/steps/epochs). `paper` = Table 1 values.
ImDiffusionConfig PaperImDiffusionConfig();
ImDiffusionConfig FastImDiffusionConfig();

class ImDiffusionDetector : public AnomalyDetector {
 public:
  explicit ImDiffusionDetector(const ImDiffusionConfig& config);

  std::string name() const override;
  void Fit(const Tensor& train) override;
  DetectionResult Run(const Tensor& test) override;

  // Fit entry point for the serving layer's continuous refresh (DESIGN.md
  // §18): takes a RAW (unnormalized) [L, K] sample window — e.g. the
  // registry-assembled sliding window of recent stream samples — normalizes,
  // and runs Fit. With `reuse_stats` the window is normalized in THAT space
  // (the refresh loop passes the live version's stats: streaming sessions
  // keep normalizing with the stats they were created under, so a candidate
  // must be trained — and shadow-scored — in the same space to be
  // comparable and promotable). Without it, fresh per-channel min-max
  // statistics are fitted on the window. Returns the statistics used, for
  // publishing alongside the model. Requires L >= the configured model
  // window.
  MinMaxStats FitRawWindow(const Tensor& raw,
                           const MinMaxStats* reuse_stats = nullptr);

  // Segment-aware variant: each entry is one CONTIGUOUS raw [L_i, K] series
  // (e.g. one tenant's recent samples). Training windows are cut within each
  // segment only — a window never spans the artificial discontinuity between
  // two tenants' series, which would otherwise dominate a refresh window
  // assembled from many short per-tenant runs and teach the candidate to
  // reproduce join garbage. Segments shorter than the model window are
  // skipped; at least one usable segment is required.
  MinMaxStats FitRawSegments(const std::vector<Tensor>& segments,
                             const MinMaxStats* reuse_stats = nullptr);

  // Step-by-step introspection of the ensemble inference, for the Fig. 8
  // style analysis. Entries are ordered along the reverse chain.
  struct StepTrace {
    std::vector<int> steps;                         // reverse-step index s=1..T
    std::vector<std::vector<float>> step_errors;    // per-step E_s, length L
    std::vector<std::vector<float>> step_imputed;   // imputed channel-0 series
    std::vector<std::vector<uint8_t>> step_labels;  // per-step Y_s (Eq. 12)
    std::vector<int> votes;                         // V_l per timestamp
  };
  DetectionResult RunWithTrace(const Tensor& test, StepTrace* trace);

  // ---- Seeded scoring (serving path, src/serve) ------------------------
  //
  // Run() consumes the detector's fit-time RNG stream, so its scores depend
  // on call order — fine for batch evaluation, unusable for a server where
  // many sessions share one fitted model. The seeded path below derives all
  // inference noise from caller-provided per-window seeds instead: results
  // are a pure function of (window content, seed, config), bitwise
  // independent of batch composition, chunking, call order, and thread
  // count. That is what lets the micro-batcher score windows from many
  // tenants in one batched reverse-diffusion pass — and cache repeated
  // windows — while staying bitwise identical to serial per-session replay.
  // All seeded-path methods are const and safe to call concurrently.

  // Per-window result of a seeded scoring pass: step_errors[s][l] is the
  // vote-step-s imputation error at window position l.
  struct WindowScore {
    std::vector<std::vector<float>> step_errors;
  };

  // Windowing plan for one series under this detector's inference stride.
  struct WindowPlan {
    Tensor windows;               // [N, K, W] feature-major
    std::vector<int64_t> starts;  // window start offsets in the series
    int64_t length = 0;           // series length
  };
  WindowPlan PlanWindows(const Tensor& series) const;

  // Scores N windows ([N, K, W]; possibly from different series/sessions) in
  // shared reverse-diffusion chunks of at most `infer_batch`, one chunk per
  // compute thread when N fits. seeds[i] drives all noise for window i.
  // Requires a deterministic mask strategy (not kRandom).
  //
  // `degrade_level` > 0 trades accuracy for latency by truncating the reverse
  // chain (the serving layer's deadline-degradation knob, DESIGN.md §13): the
  // chain starts at ChainStartForDegradeLevel(degrade_level) instead of T-1,
  // treating the pure-noise start as an over-noised x_t. Every vote step is
  // always executed, so WindowScores from any level have identical shapes.
  //
  // Every chunk runs on the captured graph executor (src/graph), the only
  // inference path.
  std::vector<WindowScore> ScoreWindowBatch(
      const Tensor& windows, const std::vector<uint64_t>& seeds,
      int degrade_level = 0) const;

  // The same scores computed by the autograd layer stack (RunChain), the
  // reference the graph executor must match bit for bit (tests/graph_test.cc)
  // and the baseline bench_micro times it against. Serving never calls it.
  std::vector<WindowScore> ScoreWindowBatchOnStack(
      const Tensor& windows, const std::vector<uint64_t>& seeds,
      int degrade_level = 0) const;

  // First forward-index step t of the (possibly truncated) reverse chain for
  // a degradation level: level 0 = the full chain (T-1); level 1 = halfway
  // between the full chain and the vote span; level >= 2 = the vote span
  // only (the cheapest chain that still produces every ensemble vote).
  int ChainStartForDegradeLevel(int degrade_level) const;

  // Per-series tail of Run(): scatters window scores back onto the series
  // (overlap-averaged), applies the Eq. 12 rescaled thresholds and ensemble
  // voting. `scores` must be in PlanWindows order for `starts`.
  DetectionResult ReduceWindowScores(const std::vector<WindowScore>& scores,
                                     const std::vector<int64_t>& starts,
                                     int64_t length) const;

  // Full seeded pass over one series: PlanWindows + ScoreWindowBatch (window
  // i seeded with MixSeed(seed, i)) + ReduceWindowScores. A pure function of
  // (test, seed, degrade_level, config); unlike Run() it does not
  // touch the fit-time RNG.
  DetectionResult RunSeeded(const Tensor& test, uint64_t seed,
                            int degrade_level = 0) const;

  // Imputes the genuinely missing entries of one [K, W] window with the
  // seeded reverse chain: `observed_mask` ([K, W], 1 = observed, e.g. from
  // MaskFromObserved) plays the role the synthetic grating mask plays at
  // scoring time, so the observed region conditions the chain and the
  // missing region is denoised from pure noise. Returns a [K, W] tensor
  // equal to `window` at observed entries and to the chain's final denoised
  // estimate at missing ones. A pure function of (window, mask, seed,
  // config) — same bitwise-determinism contract as ScoreWindowBatch — and
  // safe to call concurrently. This is the entry point that lets streams
  // with real missing data (data/ugly_stream.h) exercise the paper's
  // imputation machinery directly instead of being zero- or stale-filled.
  Tensor ImputeWindow(const Tensor& window, const Tensor& observed_mask,
                      uint64_t seed) const;

  // ---- Checkpointing (model registry, src/serve) -----------------------

  // Writes the fitted denoiser weights (crash-safe, see nn/serialize).
  void SaveModel(const std::string& path) const;
  // Builds the denoiser for `num_features` channels from this detector's
  // config and warm-loads weights saved by SaveModel. Returns false (leaving
  // the detector unfitted) when the file is missing or mismatched.
  bool LoadModel(const std::string& path, int64_t num_features);
  bool fitted() const { return model_ != nullptr; }

  // Mean final-step imputed error over the last Run (Fig. 7 signal).
  double last_mean_error() const { return last_mean_error_; }
  const std::vector<float>& train_loss_history() const { return loss_history_; }
  const ImDiffusionConfig& config() const { return config_; }
  const ImTransformer* model() const { return model_.get(); }

 private:
  // Vote steps expressed as forward index t, descending (see Run).
  std::vector<int> VoteSteps() const;
  int64_t InferenceStride() const;
  // One (chunk, policy) reverse-diffusion chain: denoises from `chain_start`
  // (treated as x_{chain_begin}) down to t=0, accumulating the imputed-region
  // signed residual (and optionally the imputed values) into
  // step_diff/step_val at each vote step. `chain_begin` is T-1 for the full
  // chain or ChainStartForDegradeLevel(level) for a truncated one (it must be
  // >= the largest vote step so every vote executes). Sampling noise comes
  // from `chunk_rng` (Run path: one stream for the whole chunk) or
  // `per_window_rngs` (seeded path: one stream per window, so results do not
  // depend on which windows share a chunk); with neither, the posterior mean
  // is used.
  void RunChain(const Tensor& x0, const Tensor& mask, const Tensor& inv_mask,
                const Tensor& ref_noise, const Tensor& chain_start,
                const std::vector<int64_t>& policies,
                const std::vector<int>& vote_ts, int chain_begin,
                Rng* chunk_rng, std::vector<Rng>* per_window_rngs,
                std::vector<Tensor>* step_diff,
                std::vector<Tensor>* step_val) const;
  // Per-(vote step, window) error rows: rows[s][w][position].
  using ErrorRows = std::vector<std::vector<std::vector<float>>>;
  // Reduces a chunk's accumulated signed residuals to per-(window, position)
  // errors (squared moving-average bias + weighted raw term, feature
  // mean/max aggregation), writing rows[s][row_offset + b].
  void ErrorRowsFromDiff(const std::vector<Tensor>& step_diff, int64_t bsz,
                         int64_t row_offset, ErrorRows* rows) const;
  // Shared driver of ScoreWindowBatch and ScoreWindowBatchOnStack: checks
  // the batch, splits it into chunks of min(infer_batch, ceil(N / compute
  // threads)) windows, calls score_chunk(chunk, bsz, rows) for every chunk on
  // the compute pool, and gathers the rows into per-window scores.
  using ChunkScorer =
      std::function<void(int64_t chunk, int64_t bsz, ErrorRows* rows)>;
  // Windows per ScoreChunks chunk: min(infer_batch, ceil(n / threads)).
  int64_t ChunkSize(int64_t num_windows) const;
  std::vector<WindowScore> ScoreChunks(const Tensor& windows,
                                       const std::vector<uint64_t>& seeds,
                                       const ChunkScorer& score_chunk) const;
  // Scatters per-window rows onto the series and zeroes the warm-up prefix.
  std::vector<float> SeriesFromWindows(
      const std::vector<std::vector<float>>& window_rows,
      const std::vector<int64_t>& starts, int64_t length) const;
  // Shared trainer: (re)initializes the model and runs the training loop
  // over a pre-cut [N, K, W] window batch (Fit cuts one series with
  // train_stride; FitRawSegments cuts each segment independently).
  void FitWindowBatch(const Tensor& windows, int64_t k);
  // Eq. 12 + ensemble voting over assembled per-step window errors.
  DetectionResult ReduceSeries(
      const std::vector<std::vector<std::vector<float>>>& step_window_errors,
      const std::vector<int64_t>& starts, int64_t length,
      double* mean_final_error,
      std::vector<std::vector<float>>* step_series_out,
      std::vector<std::vector<uint8_t>>* step_labels_out,
      std::vector<int>* votes_out) const;

  ImDiffusionConfig config_;
  std::unique_ptr<ImTransformer> model_;
  std::unique_ptr<GaussianDiffusion> diffusion_;
  std::unique_ptr<Rng> rng_;
  std::vector<float> loss_history_;
  double last_mean_error_ = 0.0;

  // Captured-graph pool for the seeded scoring path (src/graph). Created
  // lazily on the first ScoreWindowBatch and dropped wholesale
  // whenever model_ is replaced (Fit / LoadModel), so a stale capture — which
  // holds raw pointers into the old model's weights — can never execute.
  // shared_ptr because in-flight scoring calls must keep the cache they
  // acquired alive across a concurrent invalidation.
  mutable std::mutex graph_mu_;
  mutable std::shared_ptr<graph::GraphCache> graph_cache_;
};

}  // namespace imdiff

#endif  // IMDIFF_CORE_IMDIFFUSION_H_
