#include "core/imdiffusion.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <numeric>

#include "data/windowing.h"
#include "metrics/classification.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "utils/logging.h"
#include "utils/metrics.h"
#include "utils/thread_pool.h"

namespace imdiff {
namespace {

// [N, W, K] -> [N, K, W] (the model's feature-major layout).
Tensor WindowsToBkl(const Tensor& windows) {
  return Permute(windows, {0, 2, 1});
}

// Tiles a [K, L] mask to [B, K, L].
Tensor TileMask(const Tensor& mask, int64_t batch) {
  Tensor out = Tensor::Uninitialized({batch, mask.dim(0), mask.dim(1)});
  const int64_t n = mask.numel();
  float* po = out.mutable_data();
  for (int64_t b = 0; b < batch; ++b) {
    std::copy_n(mask.data(), n, po + b * n);
  }
  return out;
}

Tensor Complement(const Tensor& mask) {
  Tensor out = Tensor::Uninitialized(mask.shape());
  const float* pm = mask.data();
  float* po = out.mutable_data();
  const int64_t n = mask.numel();
  for (int64_t i = 0; i < n; ++i) po[i] = 1.0f - pm[i];
  return out;
}

}  // namespace

ImDiffusionConfig PaperImDiffusionConfig() {
  ImDiffusionConfig config;
  config.model.window = 100;
  config.model.hidden = 128;
  config.model.num_blocks = 4;
  config.model.num_heads = 8;
  config.model.ff_dim = 256;
  config.schedule.num_steps = 50;
  config.num_masked_windows = 5;
  config.epochs = 40;
  config.vote_last_steps = 30;
  config.vote_stride = 3;
  return config;
}

ImDiffusionConfig FastImDiffusionConfig() {
  ImDiffusionConfig config;
  config.model.window = 100;
  config.model.hidden = 24;
  config.model.num_blocks = 2;
  config.model.num_heads = 1;
  config.model.ff_dim = 48;
  config.model.step_embed_dim = 32;
  config.model.side_dim = 16;
  config.schedule.num_steps = 16;  // T scaled from 50
  // With few steps the terminal ᾱ_T must still be ~0 so that starting the
  // reverse chain from pure noise is in-distribution (T=50 with β_end=0.2
  // achieves this in the paper's setting).
  config.schedule.beta_end = 0.7f;
  config.num_masked_windows = 5;
  config.epochs = 30;
  config.batch_size = 8;
  config.lr = 2e-3f;
  config.train_stride = 10;
  // With the scaled-down denoiser, mid-chain imputations carry little signal
  // relative to the final steps; voting over the last 6 of 16 steps keeps the
  // ensemble's variance reduction without diluting the decision (the paper's
  // 30-of-50 span assumes a far stronger denoiser).
  config.vote_last_steps = 6;
  config.vote_stride = 1;
  // Single-chain imputation on CPU: posterior-mean (DDIM-style) sampling
  // replaces averaging many stochastic chains.
  config.stochastic_sampling = false;
  return config;
}

ImDiffusionDetector::ImDiffusionDetector(const ImDiffusionConfig& config)
    : config_(config) {}

std::string ImDiffusionDetector::name() const {
  switch (config_.mask_strategy) {
    case MaskStrategy::kForecasting:
      return "ImDiffusion-Forecasting";
    case MaskStrategy::kReconstruction:
      return "ImDiffusion-Reconstruction";
    case MaskStrategy::kRandom:
      return config_.conditional ? "ImDiffusion-RandomMask-Cond"
                                 : "ImDiffusion-RandomMask";
    case MaskStrategy::kGrating:
      break;
  }
  if (config_.conditional) return "ImDiffusion-Conditional";
  if (!config_.ensemble) return "ImDiffusion-NonEnsemble";
  if (!config_.model.use_spatial) return "ImDiffusion-NoSpatial";
  if (!config_.model.use_temporal) return "ImDiffusion-NoTemporal";
  return "ImDiffusion";
}

MinMaxStats ImDiffusionDetector::FitRawWindow(const Tensor& raw,
                                              const MinMaxStats* reuse_stats) {
  IMDIFF_CHECK_EQ(raw.ndim(), 2u);
  IMDIFF_CHECK_GE(raw.dim(0), config_.model.window)
      << "refresh window shorter than the model window";
  const MinMaxStats stats = reuse_stats != nullptr ? *reuse_stats
                                                   : FitMinMax(raw);
  Fit(ApplyMinMax(raw, stats));
  return stats;
}

MinMaxStats ImDiffusionDetector::FitRawSegments(
    const std::vector<Tensor>& segments, const MinMaxStats* reuse_stats) {
  const int64_t window = config_.model.window;
  std::vector<const Tensor*> usable;
  int64_t k = -1;
  for (const Tensor& seg : segments) {
    IMDIFF_CHECK_EQ(seg.ndim(), 2u);
    if (k < 0) k = seg.dim(1);
    IMDIFF_CHECK_EQ(seg.dim(1), k);
    if (seg.dim(0) >= window) usable.push_back(&seg);
  }
  IMDIFF_CHECK(!usable.empty())
      << "no refresh segment reaches the model window";

  MinMaxStats stats;
  if (reuse_stats != nullptr) {
    stats = *reuse_stats;
  } else {
    stats = FitMinMax(*usable[0]);
    for (size_t i = 1; i < usable.size(); ++i) {
      const MinMaxStats s = FitMinMax(*usable[i]);
      for (size_t j = 0; j < stats.min.size(); ++j) {
        stats.min[j] = std::min(stats.min[j], s.min[j]);
        stats.max[j] = std::max(stats.max[j], s.max[j]);
      }
    }
  }

  // Cut windows within each segment independently, then stack: a training
  // window never spans the join between two segments.
  std::vector<Tensor> batches;
  int64_t total = 0;
  for (const Tensor* seg : usable) {
    Tensor b = WindowsToBkl(
        WindowBatch(ApplyMinMax(*seg, stats), window, config_.train_stride));
    total += b.dim(0);
    batches.push_back(std::move(b));
  }
  Tensor windows({total, k, window});
  float* out = windows.mutable_data();
  for (const Tensor& b : batches) {
    std::copy(b.data(), b.data() + b.numel(), out);
    out += b.numel();
  }
  FitWindowBatch(windows, k);
  return stats;
}

void ImDiffusionDetector::Fit(const Tensor& train) {
  IMDIFF_CHECK_EQ(train.ndim(), 2u);
  Tensor windows = WindowsToBkl(WindowBatch(
      train, config_.model.window, config_.train_stride));  // [N, K, L]
  FitWindowBatch(windows, train.dim(1));
}

void ImDiffusionDetector::FitWindowBatch(const Tensor& windows, int64_t k) {
  IMDIFF_TRACE_SCOPE("train.fit_seconds");
  IMDIFF_CHECK_EQ(windows.ndim(), 3u);
  IMDIFF_CHECK_EQ(windows.dim(1), k);
  IMDIFF_CHECK_EQ(windows.dim(2), config_.model.window);
  IMDIFF_CHECK_GT(windows.dim(0), 0);
  config_.model.num_features = k;
  config_.model.num_diffusion_steps = config_.schedule.num_steps;
  config_.model.num_policies = 2;

  rng_ = std::make_unique<Rng>(config_.seed);
  model_ = std::make_unique<ImTransformer>(config_.model, *rng_);
  diffusion_ = std::make_unique<GaussianDiffusion>(config_.schedule);
  {
    // Captured graphs hold raw pointers into the previous model's weights.
    std::lock_guard<std::mutex> lock(graph_mu_);
    graph_cache_.reset();
  }
  loss_history_.clear();

  const int64_t window = config_.model.window;
  const int64_t num_windows = windows.dim(0);
  const int64_t per_window = k * window;

  nn::Adam::Options opt;
  opt.lr = config_.lr;
  const std::vector<nn::Var> params = model_->Parameters();
  nn::Adam adam(params, opt);

  MetricsRegistry& registry = MetricsRegistry::Global();
  Gauge* const epoch_loss_gauge = registry.GetGauge("train.epoch_loss");
  Gauge* const grad_norm_gauge = registry.GetGauge("train.grad_norm");
  Counter* const epochs_counter = registry.GetCounter("train.epochs");

  const int num_steps = config_.schedule.num_steps;
  std::vector<int64_t> order(static_cast<size_t>(num_windows));
  std::iota(order.begin(), order.end(), 0);

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    IMDIFF_TRACE_SCOPE("train.epoch_seconds");
    std::shuffle(order.begin(), order.end(), rng_->engine());
    double epoch_loss = 0.0;
    int batches = 0;
    for (int64_t start = 0; start < num_windows;
         start += config_.batch_size) {
      IMDIFF_TRACE_SCOPE("train.step_seconds");
      const int64_t bsz =
          std::min<int64_t>(config_.batch_size, num_windows - start);
      Tensor x0 = Tensor::Uninitialized({bsz, k, window});
      for (int64_t b = 0; b < bsz; ++b) {
        std::copy_n(windows.data() + order[static_cast<size_t>(start + b)] *
                                         per_window,
                    per_window, x0.mutable_data() + b * per_window);
      }
      const int t = static_cast<int>(rng_->UniformInt(0, num_steps - 1));
      const int num_policies = NumPolicies(config_.mask_strategy);
      const int policy =
          num_policies > 1 ? static_cast<int>(rng_->UniformInt(0, 1)) : 0;
      auto mask_pair =
          MakeMaskPair(config_.mask_strategy, k, window,
                       config_.num_masked_windows, rng_.get());
      const Tensor& mask2d = policy == 0 ? mask_pair.first : mask_pair.second;
      Tensor mask = TileMask(mask2d, bsz);
      Tensor inv_mask = Complement(mask);

      Tensor eps = Tensor::Randn(x0.shape(), *rng_);
      Tensor x_t = diffusion_->QSampleWithNoise(x0, t, eps);
      Tensor x_masked = Mul(x_t, inv_mask);
      // Unconditional reference (§4.1): the unmasked values carried through
      // the forward process with their ground-truth noise — hidden behind
      // noise at large t, recoverable step-by-step in the reverse process.
      // Conditional ablation: the raw observed values instead.
      Tensor noise_ref = Mul(config_.conditional ? x0 : x_t, mask);

      std::vector<int64_t> policies(static_cast<size_t>(bsz), policy);
      nn::Var pred = model_->Forward(x_masked, noise_ref, mask, t, policies);
      nn::Var loss = nn::MaskedMseLossV(pred, eps, inv_mask);
      nn::Backward(loss);
      if (MetricsEnabled()) {
        double grad_sq = 0.0;
        for (const nn::Var& p : params) {
          if (!p.has_grad()) continue;
          const float* g = p.grad().data();
          const int64_t n = p.grad().numel();
          for (int64_t i = 0; i < n; ++i) {
            grad_sq += static_cast<double>(g[i]) * g[i];
          }
        }
        grad_norm_gauge->Set(std::sqrt(grad_sq));
      }
      adam.Step();
      epoch_loss += loss.value().flat(0);
      ++batches;
    }
    const float mean_loss =
        batches > 0 ? static_cast<float>(epoch_loss / batches) : 0.0f;
    loss_history_.push_back(mean_loss);
    epoch_loss_gauge->Set(mean_loss);
    epochs_counter->Increment();
    if (config_.verbose) {
      IMDIFF_LOG(Info) << name() << " epoch " << epoch << " loss "
                       << mean_loss;
    }
  }
}

DetectionResult ImDiffusionDetector::Run(const Tensor& test) {
  return RunWithTrace(test, nullptr);
}

std::vector<int> ImDiffusionDetector::VoteSteps() const {
  // Vote steps along the reverse chain, expressed as forward index t;
  // s = T - t is the reverse-step number (s == T is the fully denoised step).
  const int num_steps = config_.schedule.num_steps;
  const int vote_span = std::min(config_.vote_last_steps, num_steps);
  std::vector<int> vote_ts;
  for (int t = 0; t < vote_span; t += config_.vote_stride) vote_ts.push_back(t);
  std::sort(vote_ts.begin(), vote_ts.end(), std::greater<int>());
  return vote_ts;
}

int ImDiffusionDetector::ChainStartForDegradeLevel(int degrade_level) const {
  // Truncating the reverse process degrades accuracy smoothly (the imputation
  // starts from a noisier estimate) while keeping every ensemble vote: all
  // vote steps lie in [0, vote_span), so any start >= vote_span - 1 executes
  // the complete voting tail.
  const int num_steps = config_.schedule.num_steps;
  const int vote_span = std::min(config_.vote_last_steps, num_steps);
  if (degrade_level <= 0) return num_steps - 1;
  if (degrade_level == 1) return vote_span - 1 + (num_steps - vote_span) / 2;
  return vote_span - 1;
}

int64_t ImDiffusionDetector::InferenceStride() const {
  // Forecasting imputes only the second half-window; use stride W/2 so that
  // (almost) every timestamp is predicted once. Other strategies cover every
  // point with one window.
  const int64_t window = config_.model.window;
  return config_.mask_strategy == MaskStrategy::kForecasting
             ? std::max<int64_t>(1, window / 2)
             : window;
}

void ImDiffusionDetector::RunChain(
    const Tensor& x0, const Tensor& mask, const Tensor& inv_mask,
    const Tensor& ref_noise, const Tensor& chain_start,
    const std::vector<int64_t>& policies, const std::vector<int>& vote_ts,
    int chain_begin, Rng* chunk_rng, std::vector<Rng>* per_window_rngs,
    std::vector<Tensor>* step_diff, std::vector<Tensor>* step_val) const {
  IMDIFF_CHECK_LT(chain_begin, config_.schedule.num_steps);
  IMDIFF_CHECK(vote_ts.empty() || chain_begin >= vote_ts.front())
      << "truncated chain would skip vote steps";
  const size_t num_votes = vote_ts.size();
  const int64_t bsz = x0.dim(0);
  const int64_t per_window = x0.dim(1) * x0.dim(2);
  Tensor cur = chain_start;  // x_{chain_begin} (pure noise, see header)
  size_t vote_idx = 0;
  std::vector<float> z;
  for (int t = chain_begin; t >= 0; --t) {
    // One denoising step for this (chunk, policy): model forward plus
    // the posterior update. The paper's per-step diagnostics (step-wise
    // imputation quality) hang off this distribution.
    IMDIFF_TRACE_SCOPE("diffusion.step_seconds");
    Tensor x_masked = Mul(cur, inv_mask);
    // Unconditional reference (§4.1): the unmasked values carried through the
    // forward process with their ground-truth noise. The conditional ablation
    // feeds the raw values at every step instead.
    Tensor noise_ref =
        Mul(config_.conditional ? x0 : diffusion_->QSampleWithNoise(x0, t, ref_noise),
            mask);
    Tensor eps_pred =
        model_->Forward(x_masked, noise_ref, mask, t, policies).value();
    // Step's fully-denoised estimate, used for scoring when score_on_x0.
    Tensor x0_hat;
    const bool is_vote = vote_idx < num_votes && t == vote_ts[vote_idx];
    if (is_vote && config_.score_on_x0) {
      x0_hat = diffusion_->PredictX0(cur, eps_pred, t);
    }
    if (!config_.stochastic_sampling) {
      cur = diffusion_->PosteriorMean(cur, eps_pred, t);
    } else if (chunk_rng != nullptr) {
      cur = diffusion_->PStep(cur, eps_pred, t, *chunk_rng);
    } else {
      // Seeded path: posterior mean plus per-window sampling noise, each
      // window drawing from its own generator so the chain is bitwise
      // independent of which windows happen to share the chunk.
      IMDIFF_CHECK(per_window_rngs != nullptr);
      cur = diffusion_->PosteriorMean(cur, eps_pred, t);
      if (t > 0) {
        const float sigma =
            std::sqrt(diffusion_->schedule().posterior_variance(t));
        float* pc = cur.mutable_data();
        z.resize(static_cast<size_t>(per_window));
        for (int64_t b = 0; b < bsz; ++b) {
          (*per_window_rngs)[static_cast<size_t>(b)].FillNormal(z);
          float* pw = pc + b * per_window;
          for (int64_t i = 0; i < per_window; ++i) {
            pw[i] += sigma * z[static_cast<size_t>(i)];
          }
        }
      }
    }
    // Record if this is a vote step (vote_ts is descending in t).
    if (is_vote) {
      // Imputed-region signed residual vs ground truth.
      const float* pc = config_.score_on_x0 ? x0_hat.data() : cur.data();
      const float* px = x0.data();
      const float* pi = inv_mask.data();
      float* ps = (*step_diff)[vote_idx].mutable_data();
      const int64_t n = cur.numel();
      for (int64_t i = 0; i < n; ++i) {
        if (pi[i] != 0.0f) {
          ps[i] += pc[i] - px[i];
        }
      }
      if (step_val != nullptr) {
        float* pv = (*step_val)[vote_idx].mutable_data();
        for (int64_t i = 0; i < n; ++i) {
          if (pi[i] != 0.0f) pv[i] += pc[i];
        }
      }
      ++vote_idx;
    }
  }
}

void ImDiffusionDetector::ErrorRowsFromDiff(
    const std::vector<Tensor>& step_diff, int64_t bsz, int64_t row_offset,
    ErrorRows* rows) const {
  // Reduce over features -> per-(window, position) error: squared
  // moving-average bias of the signed residual (robust to zero-mean noise)
  // plus a weighted raw squared term (retains point spikes).
  const int64_t k = config_.model.num_features;
  const int64_t window = config_.model.window;
  const size_t num_votes = step_diff.size();
  const int64_t bias_half = std::max(1, config_.bias_window) / 2;
  std::vector<float> bias(static_cast<size_t>(window));
  std::vector<float> max_err(static_cast<size_t>(window));
  for (size_t s = 0; s < num_votes; ++s) {
    const float* ps = step_diff[s].data();
    for (int64_t b = 0; b < bsz; ++b) {
      auto& row = (*rows)[s][static_cast<size_t>(row_offset + b)];
      row.assign(static_cast<size_t>(window), 0.0f);
      std::fill(max_err.begin(), max_err.end(), 0.0f);
      for (int64_t j = 0; j < k; ++j) {
        const float* drow = ps + (b * k + j) * window;
        for (int64_t l = 0; l < window; ++l) {
          const int64_t lo = std::max<int64_t>(0, l - bias_half);
          const int64_t hi = std::min<int64_t>(window - 1, l + bias_half);
          float acc = 0.0f;
          for (int64_t m = lo; m <= hi; ++m) acc += drow[m];
          bias[static_cast<size_t>(l)] = acc / static_cast<float>(hi - lo + 1);
        }
        for (int64_t l = 0; l < window; ++l) {
          const float d = drow[l];
          const float bl = bias[static_cast<size_t>(l)];
          const float e = bl * bl + config_.raw_error_weight * d * d;
          row[static_cast<size_t>(l)] += e;
          max_err[static_cast<size_t>(l)] =
              std::max(max_err[static_cast<size_t>(l)], e);
        }
      }
      // Feature aggregation: mean catches broad deviations, max keeps
      // single-channel anomalies from being diluted by K.
      for (int64_t l = 0; l < window; ++l) {
        row[static_cast<size_t>(l)] =
            0.5f * (row[static_cast<size_t>(l)] / static_cast<float>(k) +
                    max_err[static_cast<size_t>(l)]);
      }
    }
  }
}

std::vector<float> ImDiffusionDetector::SeriesFromWindows(
    const std::vector<std::vector<float>>& window_rows,
    const std::vector<int64_t>& starts, int64_t length) const {
  // Scatter window errors back to series positions (overlap-averaged), with
  // positions lacking coverage dropped from scoring (score 0).
  const int64_t window = config_.model.window;
  std::vector<float> series = OverlapAverage(window_rows, starts, length, window);
  if (config_.mask_strategy == MaskStrategy::kForecasting) {
    // Zero out the uncovered warm-up prefix.
    for (int64_t l = 0; l < std::min<int64_t>(window / 2, length); ++l) {
      series[static_cast<size_t>(l)] = 0.0f;
    }
  } else {
    // The first masked sub-window of the series is imputed with one-sided
    // context only; treat it as warm-up (forecasting baselines likewise
    // skip their history prefix).
    const int64_t warmup =
        std::min<int64_t>(window / (2 * config_.num_masked_windows), length);
    for (int64_t l = 0; l < warmup; ++l) {
      series[static_cast<size_t>(l)] = 0.0f;
    }
  }
  return series;
}

DetectionResult ImDiffusionDetector::ReduceSeries(
    const std::vector<std::vector<std::vector<float>>>& step_window_errors,
    const std::vector<int64_t>& starts, int64_t length,
    double* mean_final_error,
    std::vector<std::vector<float>>* step_series_out,
    std::vector<std::vector<uint8_t>>* step_labels_out,
    std::vector<int>* votes_out) const {
  const size_t num_votes = step_window_errors.size();

  // Centered moving average over the error series (width error_smoothing).
  auto smooth = [&](std::vector<float> series) {
    const int w = config_.error_smoothing;
    if (w <= 1) return series;
    std::vector<float> out(series.size(), 0.0f);
    const int64_t n = static_cast<int64_t>(series.size());
    const int64_t half = w / 2;
    for (int64_t i = 0; i < n; ++i) {
      const int64_t lo = std::max<int64_t>(0, i - half);
      const int64_t hi = std::min(n - 1, i + half);
      float acc = 0.0f;
      for (int64_t j = lo; j <= hi; ++j) acc += series[static_cast<size_t>(j)];
      out[static_cast<size_t>(i)] = acc / static_cast<float>(hi - lo + 1);
    }
    return out;
  };

  std::vector<std::vector<float>> step_series(num_votes);
  for (size_t s = 0; s < num_votes; ++s) {
    step_series[s] = smooth(SeriesFromWindows(step_window_errors[s], starts, length));
  }
  // The final (fully denoised) step is the last entry (t == vote_ts.back(),
  // which is the smallest t; when vote_stride > 1 the true final step t=0 is
  // always included because vote_ts starts at 0).
  const std::vector<float>& final_errors = step_series.back();
  if (mean_final_error != nullptr) {
    *mean_final_error =
        std::accumulate(final_errors.begin(), final_errors.end(), 0.0) /
        std::max<size_t>(1, final_errors.size());
  }

  // Eq. 12: tau_s = (Sum E_final / Sum E_s) tau_final.
  const float tau_final = Quantile(final_errors, config_.tau_quantile);
  const double sum_final =
      std::accumulate(final_errors.begin(), final_errors.end(), 0.0);
  std::vector<std::vector<uint8_t>> step_labels(num_votes);
  std::vector<int> votes(static_cast<size_t>(length), 0);
  std::vector<float> soft_votes(static_cast<size_t>(length), 0.0f);
  for (size_t s = 0; s < num_votes; ++s) {
    const double sum_s =
        std::accumulate(step_series[s].begin(), step_series[s].end(), 0.0);
    const float ratio =
        sum_s > 0.0 ? static_cast<float>(sum_final / sum_s) : 1.0f;
    const float tau_s = ratio * tau_final;
    step_labels[s].resize(static_cast<size_t>(length));
    for (int64_t l = 0; l < length; ++l) {
      const float e = step_series[s][static_cast<size_t>(l)];
      const bool hit = tau_s > 0.0f ? e >= tau_s : false;
      step_labels[s][static_cast<size_t>(l)] = hit ? 1 : 0;
      votes[static_cast<size_t>(l)] += hit ? 1 : 0;
      // Soft vote: continuous threshold margin (gives the ensemble score a
      // fine-grained ordering for threshold-free metrics).
      if (tau_s > 0.0f) {
        soft_votes[static_cast<size_t>(l)] += std::min(e / tau_s, 50.0f);
      }
    }
  }

  DetectionResult result;
  result.labels.resize(static_cast<size_t>(length));
  for (int64_t l = 0; l < length; ++l) {
    result.labels[static_cast<size_t>(l)] =
        votes[static_cast<size_t>(l)] > config_.vote_threshold ? 1 : 0;
  }
  if (config_.ensemble) {
    result.scores.resize(static_cast<size_t>(length));
    for (int64_t l = 0; l < length; ++l) {
      result.scores[static_cast<size_t>(l)] =
          soft_votes[static_cast<size_t>(l)] / static_cast<float>(num_votes);
    }
  } else {
    result.scores = final_errors;
    // Non-ensemble rule: threshold the final-step error directly.
    for (int64_t l = 0; l < length; ++l) {
      result.labels[static_cast<size_t>(l)] =
          final_errors[static_cast<size_t>(l)] >= tau_final ? 1 : 0;
    }
  }

  // Raw (pre-calibration) final-step error channel for cross-model
  // comparison — see DetectionResult::raw_errors.
  result.raw_errors = final_errors;

  if (step_series_out != nullptr) *step_series_out = std::move(step_series);
  if (step_labels_out != nullptr) *step_labels_out = std::move(step_labels);
  if (votes_out != nullptr) *votes_out = std::move(votes);
  return result;
}

DetectionResult ImDiffusionDetector::RunWithTrace(const Tensor& test,
                                                  StepTrace* trace) {
  IMDIFF_TRACE_SCOPE("detector.run_seconds");
  IMDIFF_CHECK(model_ != nullptr) << "Fit must be called before Run";
  IMDIFF_CHECK_EQ(test.ndim(), 2u);
  const int64_t k = test.dim(1);
  IMDIFF_CHECK_EQ(k, config_.model.num_features);
  const int64_t window = config_.model.window;
  const int64_t length = test.dim(0);

  const int64_t stride = InferenceStride();
  const std::vector<int64_t> starts = WindowStarts(length, window, stride);
  Tensor windows = WindowsToBkl(WindowBatch(test, window, stride));
  const int64_t num_windows = windows.dim(0);
  const int64_t per_window = k * window;

  const std::vector<int> vote_ts = VoteSteps();
  const size_t num_votes = vote_ts.size();

  const int num_policies = NumPolicies(config_.mask_strategy);

  // Per vote step: per-window per-position squared-error (mean over features)
  // restricted to imputed coordinates; coverage marks which positions were
  // imputed at all (relevant for forecasting).
  std::vector<std::vector<std::vector<float>>> step_window_errors(
      num_votes,
      std::vector<std::vector<float>>(
          static_cast<size_t>(num_windows),
          std::vector<float>(static_cast<size_t>(window), 0.0f)));
  std::vector<std::vector<std::vector<float>>> step_window_imputed(
      trace != nullptr ? num_votes : 0,
      std::vector<std::vector<float>>(
          static_cast<size_t>(num_windows),
          std::vector<float>(static_cast<size_t>(window), 0.0f)));
  // Masks are deterministic per policy for grating/forecast/reconstruction;
  // for random masking draw one pair shared by all windows of this run.
  auto mask_pair = MakeMaskPair(config_.mask_strategy, k, window,
                                config_.num_masked_windows, rng_.get());

  // Window chunks are independent, so the reverse-diffusion imputation below
  // runs them in parallel on the compute pool. All randomness is taken from
  // rng_ serially up front, in the exact per-(chunk, policy) order the serial
  // loop consumed it, so scores are bitwise identical for every thread count:
  // the chain-start noise and the unmasked-region reference noise are
  // pre-drawn, and (when stochastic_sampling) each (chunk, policy) chain gets
  // its own serially-forked generator for the per-step sampling noise.
  const int64_t num_chunks =
      (num_windows + config_.infer_batch - 1) / config_.infer_batch;
  std::vector<std::vector<Tensor>> pre_ref_noise(
      static_cast<size_t>(num_chunks));
  std::vector<std::vector<Tensor>> pre_chain_start(
      static_cast<size_t>(num_chunks));
  std::vector<std::vector<Rng>> chain_rngs(static_cast<size_t>(num_chunks));
  for (int64_t c = 0; c < num_chunks; ++c) {
    const int64_t chunk = c * config_.infer_batch;
    const int64_t bsz =
        std::min<int64_t>(config_.infer_batch, num_windows - chunk);
    const Shape shape{bsz, k, window};
    for (int policy = 0; policy < num_policies; ++policy) {
      pre_ref_noise[static_cast<size_t>(c)].push_back(
          Tensor::Randn(shape, *rng_));
      pre_chain_start[static_cast<size_t>(c)].push_back(
          Tensor::Randn(shape, *rng_));
      if (config_.stochastic_sampling) {
        chain_rngs[static_cast<size_t>(c)].push_back(rng_->Fork());
      }
    }
  }

  Counter* const windows_scored =
      MetricsRegistry::Global().GetCounter("detector.windows_scored");
  ParallelFor(ComputePool(), static_cast<size_t>(num_chunks), [&](size_t ci) {
    // Per-chunk scoring latency: the full reverse-diffusion imputation and
    // error reduction for one batch of windows (the unit the pool schedules).
    IMDIFF_TRACE_SCOPE("detector.window_score_seconds");
    const int64_t chunk = static_cast<int64_t>(ci) * config_.infer_batch;
    const int64_t bsz =
        std::min<int64_t>(config_.infer_batch, num_windows - chunk);
    windows_scored->Increment(bsz);
    Tensor x0 = Tensor::Uninitialized({bsz, k, window});
    std::copy_n(windows.data() + chunk * per_window, bsz * per_window,
                x0.mutable_data());

    // Per vote step, accumulated (over policies) signed residual and imputed
    // values per (window, feature, position); each coordinate is masked in
    // exactly one policy, so accumulation assigns each entry once. Tensors
    // share storage when copied, so each entry must be constructed
    // independently.
    std::vector<Tensor> step_diff;
    std::vector<Tensor> step_val;
    step_diff.reserve(num_votes);
    for (size_t s = 0; s < num_votes; ++s) {
      step_diff.emplace_back(Shape{bsz, k, window});
      if (trace != nullptr) step_val.emplace_back(Shape{bsz, k, window});
    }

    for (int policy = 0; policy < num_policies; ++policy) {
      const Tensor& mask2d =
          policy == 0 ? mask_pair.first : mask_pair.second;
      Tensor mask = TileMask(mask2d, bsz);
      Tensor inv_mask = Complement(mask);
      std::vector<int64_t> policies(static_cast<size_t>(bsz), policy);
      RunChain(x0, mask, inv_mask,
               pre_ref_noise[ci][static_cast<size_t>(policy)],
               pre_chain_start[ci][static_cast<size_t>(policy)], policies,
               vote_ts, config_.schedule.num_steps - 1,
               config_.stochastic_sampling
                   ? &chain_rngs[ci][static_cast<size_t>(policy)]
                   : nullptr,
               nullptr, &step_diff, trace != nullptr ? &step_val : nullptr);
    }

    ErrorRowsFromDiff(step_diff, bsz, chunk, &step_window_errors);
    if (trace != nullptr) {
      for (size_t s = 0; s < num_votes; ++s) {
        const float* pv = step_val[s].data();
        for (int64_t b = 0; b < bsz; ++b) {
          auto& vrow = step_window_imputed[s][static_cast<size_t>(chunk + b)];
          for (int64_t l = 0; l < window; ++l) {
            vrow[static_cast<size_t>(l)] = pv[(b * k + 0) * window + l];
          }
        }
      }
    }
  });

  std::vector<std::vector<float>> step_series;
  std::vector<std::vector<uint8_t>> step_labels;
  std::vector<int> votes;
  DetectionResult result = ReduceSeries(
      step_window_errors, starts, length, &last_mean_error_,
      trace != nullptr ? &step_series : nullptr,
      trace != nullptr ? &step_labels : nullptr,
      trace != nullptr ? &votes : nullptr);

  if (trace != nullptr) {
    trace->steps.clear();
    const int num_steps = config_.schedule.num_steps;
    for (int t : vote_ts) trace->steps.push_back(num_steps - t);
    trace->step_errors = std::move(step_series);
    trace->step_labels = std::move(step_labels);
    trace->votes = std::move(votes);
    trace->step_imputed.assign(num_votes, {});
    for (size_t s = 0; s < num_votes; ++s) {
      trace->step_imputed[s] = SeriesFromWindows(step_window_imputed[s], starts, length);
    }
  }
  return result;
}

ImDiffusionDetector::WindowPlan ImDiffusionDetector::PlanWindows(
    const Tensor& series) const {
  IMDIFF_CHECK(model_ != nullptr) << "Fit or LoadModel must be called first";
  IMDIFF_CHECK_EQ(series.ndim(), 2u);
  IMDIFF_CHECK_EQ(series.dim(1), config_.model.num_features);
  WindowPlan plan;
  const int64_t window = config_.model.window;
  const int64_t stride = InferenceStride();
  plan.length = series.dim(0);
  plan.starts = WindowStarts(plan.length, window, stride);
  plan.windows = WindowsToBkl(WindowBatch(series, window, stride));
  return plan;
}

int64_t ImDiffusionDetector::ChunkSize(int64_t num_windows) const {
  const int64_t threads = static_cast<int64_t>(ComputeThreads());
  return std::min<int64_t>(config_.infer_batch,
                           (num_windows + threads - 1) / threads);
}

std::vector<ImDiffusionDetector::WindowScore> ImDiffusionDetector::ScoreChunks(
    const Tensor& windows, const std::vector<uint64_t>& seeds,
    const ChunkScorer& score_chunk) const {
  IMDIFF_CHECK(model_ != nullptr) << "Fit or LoadModel must be called first";
  IMDIFF_CHECK_EQ(windows.ndim(), 3u);
  const int64_t num_windows = windows.dim(0);
  IMDIFF_CHECK_EQ(windows.dim(1), config_.model.num_features);
  IMDIFF_CHECK_EQ(windows.dim(2), config_.model.window);
  IMDIFF_CHECK_EQ(static_cast<int64_t>(seeds.size()), num_windows);
  IMDIFF_CHECK(config_.mask_strategy != MaskStrategy::kRandom)
      << "seeded scoring requires a deterministic mask strategy";
  std::vector<WindowScore> result(static_cast<size_t>(num_windows));
  if (num_windows == 0) return result;

  IMDIFF_TRACE_SCOPE("detector.batch_score_seconds");
  const size_t num_votes = VoteSteps().size();
  ErrorRows rows(num_votes,
                 std::vector<std::vector<float>>(
                     static_cast<size_t>(num_windows)));
  // This loop is the only parallel level of seeded scoring: each chunk runs
  // serially on one pool thread. Chunks are sized so that a batch of fewer
  // than infer_batch x threads windows still fills the pool; a window's
  // score does not depend on which windows share its chunk.
  const int64_t chunk_size = ChunkSize(num_windows);
  const int64_t num_chunks = (num_windows + chunk_size - 1) / chunk_size;
  Counter* const windows_scored =
      MetricsRegistry::Global().GetCounter("detector.windows_scored");
  ParallelFor(ComputePool(), static_cast<size_t>(num_chunks), [&](size_t ci) {
    IMDIFF_TRACE_SCOPE("detector.window_score_seconds");
    const int64_t chunk = static_cast<int64_t>(ci) * chunk_size;
    const int64_t bsz = std::min<int64_t>(chunk_size, num_windows - chunk);
    windows_scored->Increment(bsz);
    score_chunk(chunk, bsz, &rows);
  });

  for (int64_t w = 0; w < num_windows; ++w) {
    result[static_cast<size_t>(w)].step_errors.resize(num_votes);
    for (size_t s = 0; s < num_votes; ++s) {
      result[static_cast<size_t>(w)].step_errors[s] =
          std::move(rows[s][static_cast<size_t>(w)]);
    }
  }
  return result;
}

std::vector<ImDiffusionDetector::WindowScore>
ImDiffusionDetector::ScoreWindowBatch(const Tensor& windows,
                                      const std::vector<uint64_t>& seeds,
                                      int degrade_level) const {
  const int64_t k = config_.model.num_features;
  const int64_t per_window = k * config_.model.window;
  const std::vector<int> vote_ts = VoteSteps();
  const int chain_begin = ChainStartForDegradeLevel(degrade_level);
  const int num_policies = NumPolicies(config_.mask_strategy);

  // The complementary masks are only needed to capture a new graph; warm
  // scoring touches neither, so they are built lazily (once) to keep warm
  // calls off the arena entirely.
  std::mutex mask_mu;
  std::unique_ptr<std::pair<Tensor, Tensor>> lazy_masks;
  auto masks = [&]() -> const std::pair<Tensor, Tensor>& {
    std::lock_guard<std::mutex> lock(mask_mu);
    if (lazy_masks == nullptr) {
      lazy_masks = std::make_unique<std::pair<Tensor, Tensor>>(
          MakeMaskPair(config_.mask_strategy, k, config_.model.window,
                       config_.num_masked_windows, nullptr));
    }
    return *lazy_masks;
  };

  // Grab (or lazily create) this detector's captured-graph pool. The local
  // shared_ptr keeps it alive even if Fit/LoadModel swaps the model — and
  // thus the cache — out from under a concurrent scoring call.
  std::shared_ptr<graph::GraphCache> gcache;
  {
    std::lock_guard<std::mutex> lock(graph_mu_);
    if (graph_cache_ == nullptr) {
      graph_cache_ = std::make_shared<graph::GraphCache>();
    }
    gcache = graph_cache_;
  }

  // Before any chunk runs, reserve one context slot per chunk of each size
  // that can run at once (min(chunks of that size, threads)), empty where the
  // cache has no idle context. A chunk takes an empty slot first and captures
  // into it, and all slots go back to the cache at the end. So a batch leaves
  // the same contexts in the cache however its chunks overlapped, and the
  // same batch again captures nothing.
  using Slots = std::vector<std::unique_ptr<graph::GraphContext>>;
  std::map<int64_t, Slots> slots;
  const int64_t num_windows = windows.dim(0);
  if (num_windows > 0) {
    const int64_t chunk_size = ChunkSize(num_windows);
    const int64_t threads = static_cast<int64_t>(ComputeThreads());
    const int64_t tail = num_windows % chunk_size;
    for (const auto& [bsz, count] :
         {std::pair<int64_t, int64_t>{chunk_size, num_windows / chunk_size},
          {tail, tail > 0 ? 1 : 0}}) {
      for (int64_t i = 0; i < std::min(count, threads); ++i) {
        slots[bsz].push_back(gcache->Acquire(bsz, degrade_level));
      }
    }
    // Empty slots at the back, where chunks take from.
    for (auto& [bsz, list] : slots) {
      std::stable_partition(list.begin(), list.end(),
                            [](const auto& ctx) { return ctx != nullptr; });
    }
  }
  std::mutex slots_mu;

  std::vector<WindowScore> result = ScoreChunks(
      windows, seeds, [&](int64_t chunk, int64_t bsz, ErrorRows* rows) {
        std::unique_ptr<graph::GraphContext> ctx;
        {
          std::lock_guard<std::mutex> lock(slots_mu);
          Slots& list = slots.at(bsz);
          if (!list.empty()) {
            ctx = std::move(list.back());
            list.pop_back();
          }
        }
        if (ctx == nullptr) {
          const std::pair<Tensor, Tensor>& mp = masks();
          graph::DenoiserSpec spec;
          spec.model = model_.get();
          spec.schedule = &diffusion_->schedule();
          for (int policy = 0; policy < num_policies; ++policy) {
            spec.policy_masks.push_back(policy == 0 ? mp.first : mp.second);
          }
          spec.vote_ts = vote_ts;
          spec.chain_begin = chain_begin;
          spec.bsz = bsz;
          spec.conditional = config_.conditional;
          spec.stochastic_sampling = config_.stochastic_sampling;
          spec.score_on_x0 = config_.score_on_x0;
          ctx = std::make_unique<graph::GraphContext>(spec);
        }
        ctx->ScoreChunk(windows.data() + chunk * per_window,
                        seeds.data() + chunk);
        ErrorRowsFromDiff(ctx->step_diff(), bsz, chunk, rows);
        std::lock_guard<std::mutex> lock(slots_mu);
        Slots& list = slots.at(bsz);
        list.insert(list.begin(), std::move(ctx));
      });
  for (auto& [bsz, list] : slots) {
    for (auto& ctx : list) gcache->Release(bsz, degrade_level, std::move(ctx));
  }
  return result;
}

std::vector<ImDiffusionDetector::WindowScore>
ImDiffusionDetector::ScoreWindowBatchOnStack(
    const Tensor& windows, const std::vector<uint64_t>& seeds,
    int degrade_level) const {
  const int64_t k = config_.model.num_features;
  const int64_t window = config_.model.window;
  const int64_t per_window = k * window;
  const std::vector<int> vote_ts = VoteSteps();
  const int chain_begin = ChainStartForDegradeLevel(degrade_level);
  const int num_policies = NumPolicies(config_.mask_strategy);
  const std::pair<Tensor, Tensor> masks =
      MakeMaskPair(config_.mask_strategy, k, window,
                   config_.num_masked_windows, nullptr);

  return ScoreChunks(windows, seeds, [&](int64_t chunk, int64_t bsz,
                                         ErrorRows* rows) {
    Tensor x0 = Tensor::Uninitialized({bsz, k, window});
    std::copy_n(windows.data() + chunk * per_window, bsz * per_window,
                x0.mutable_data());

    // Every noise draw comes from a per-window generator seeded by the
    // caller, consumed in a fixed per-window order (policy-0 reference,
    // policy-0 chain start, policy-1 reference, policy-1 chain start, then
    // forked per-policy sampling streams). A window's chain is therefore
    // identical no matter which windows it shares the chunk with.
    std::vector<Tensor> ref_noise;
    std::vector<Tensor> chain_start;
    for (int policy = 0; policy < num_policies; ++policy) {
      ref_noise.emplace_back(Shape{bsz, k, window});
      chain_start.emplace_back(Shape{bsz, k, window});
    }
    std::vector<std::vector<Rng>> window_rngs(
        static_cast<size_t>(num_policies));
    std::vector<float> scratch(static_cast<size_t>(per_window));
    for (int64_t b = 0; b < bsz; ++b) {
      Rng wrng(seeds[static_cast<size_t>(chunk + b)]);
      for (int policy = 0; policy < num_policies; ++policy) {
        wrng.FillNormal(scratch);
        std::copy(scratch.begin(), scratch.end(),
                  ref_noise[static_cast<size_t>(policy)].mutable_data() +
                      b * per_window);
        wrng.FillNormal(scratch);
        std::copy(scratch.begin(), scratch.end(),
                  chain_start[static_cast<size_t>(policy)].mutable_data() +
                      b * per_window);
      }
      if (config_.stochastic_sampling) {
        for (int policy = 0; policy < num_policies; ++policy) {
          window_rngs[static_cast<size_t>(policy)].push_back(wrng.Fork());
        }
      }
    }

    std::vector<Tensor> step_diff;
    step_diff.reserve(vote_ts.size());
    for (size_t s = 0; s < vote_ts.size(); ++s) {
      step_diff.emplace_back(Shape{bsz, k, window});
    }
    for (int policy = 0; policy < num_policies; ++policy) {
      const Tensor& mask2d = policy == 0 ? masks.first : masks.second;
      Tensor mask = TileMask(mask2d, bsz);
      Tensor inv_mask = Complement(mask);
      std::vector<int64_t> policies(static_cast<size_t>(bsz), policy);
      RunChain(x0, mask, inv_mask, ref_noise[static_cast<size_t>(policy)],
               chain_start[static_cast<size_t>(policy)], policies, vote_ts,
               chain_begin, nullptr,
               config_.stochastic_sampling
                   ? &window_rngs[static_cast<size_t>(policy)]
                   : nullptr,
               &step_diff, nullptr);
    }
    ErrorRowsFromDiff(step_diff, bsz, chunk, rows);
  });
}

DetectionResult ImDiffusionDetector::ReduceWindowScores(
    const std::vector<WindowScore>& scores, const std::vector<int64_t>& starts,
    int64_t length) const {
  IMDIFF_CHECK_EQ(scores.size(), starts.size());
  const size_t num_votes = VoteSteps().size();
  std::vector<std::vector<std::vector<float>>> rows(
      num_votes, std::vector<std::vector<float>>(scores.size()));
  for (size_t w = 0; w < scores.size(); ++w) {
    IMDIFF_CHECK_EQ(scores[w].step_errors.size(), num_votes)
        << "window score from a different vote configuration";
    for (size_t s = 0; s < num_votes; ++s) {
      rows[s][w] = scores[w].step_errors[s];
    }
  }
  return ReduceSeries(rows, starts, length, nullptr, nullptr, nullptr,
                      nullptr);
}

DetectionResult ImDiffusionDetector::RunSeeded(const Tensor& test,
                                               uint64_t seed,
                                               int degrade_level) const {
  WindowPlan plan = PlanWindows(test);
  const int64_t n = plan.windows.dim(0);
  std::vector<uint64_t> seeds(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    seeds[static_cast<size_t>(i)] = MixSeed(seed, static_cast<uint64_t>(i));
  }
  return ReduceWindowScores(
      ScoreWindowBatch(plan.windows, seeds, degrade_level),
      plan.starts, plan.length);
}

Tensor ImDiffusionDetector::ImputeWindow(const Tensor& window,
                                         const Tensor& observed_mask,
                                         uint64_t seed) const {
  IMDIFF_CHECK(model_ != nullptr) << "Fit or LoadModel must be called first";
  IMDIFF_CHECK_EQ(window.ndim(), 2u);
  const int64_t k = window.dim(0);
  const int64_t w = window.dim(1);
  IMDIFF_CHECK_EQ(k, config_.model.num_features);
  IMDIFF_CHECK_EQ(w, config_.model.window);
  IMDIFF_CHECK_EQ(observed_mask.ndim(), 2u);
  IMDIFF_CHECK_EQ(observed_mask.dim(0), k);
  IMDIFF_CHECK_EQ(observed_mask.dim(1), w);
  const int64_t per_window = k * w;

  Tensor x0 = Tensor::Uninitialized({1, k, w});
  std::copy_n(window.data(), per_window, x0.mutable_data());
  Tensor mask = TileMask(observed_mask, 1);
  Tensor inv_mask = Complement(mask);

  // Fixed per-seed draw order: reference noise, chain start, then the forked
  // sampling stream — one chain, conditioned on the caller's genuine
  // missingness pattern instead of a synthetic grating policy mask.
  Rng wrng(seed);
  Tensor ref_noise(Shape{1, k, w});
  Tensor chain_start(Shape{1, k, w});
  std::vector<float> scratch(static_cast<size_t>(per_window));
  wrng.FillNormal(scratch);
  std::copy(scratch.begin(), scratch.end(), ref_noise.mutable_data());
  wrng.FillNormal(scratch);
  std::copy(scratch.begin(), scratch.end(), chain_start.mutable_data());
  std::vector<Rng> window_rngs;
  window_rngs.push_back(wrng.Fork());

  // Run the full reverse chain with the final step (t = 0) as the only vote,
  // capturing the fully denoised estimate over the missing region.
  const std::vector<int> vote_ts = {0};
  const int chain_begin = config_.schedule.num_steps - 1;
  std::vector<Tensor> step_diff;
  step_diff.emplace_back(Shape{1, k, w});
  std::vector<Tensor> step_val;
  step_val.emplace_back(Shape{1, k, w});
  const std::vector<int64_t> policies = {0};
  RunChain(x0, mask, inv_mask, ref_noise, chain_start, policies, vote_ts,
           chain_begin, nullptr,
           config_.stochastic_sampling ? &window_rngs : nullptr, &step_diff,
           &step_val);

  Tensor out = window.Clone();
  float* po = out.mutable_data();
  const float* pv = step_val[0].data();
  const float* pi = inv_mask.data();
  for (int64_t i = 0; i < per_window; ++i) {
    if (pi[i] != 0.0f) po[i] = pv[i];
  }
  return out;
}

void ImDiffusionDetector::SaveModel(const std::string& path) const {
  IMDIFF_CHECK(model_ != nullptr) << "nothing to save before Fit/LoadModel";
  nn::SaveParameters(model_->Parameters(), path);
}

bool ImDiffusionDetector::LoadModel(const std::string& path,
                                    int64_t num_features) {
  IMDIFF_CHECK_GT(num_features, 0);
  config_.model.num_features = num_features;
  config_.model.num_diffusion_steps = config_.schedule.num_steps;
  config_.model.num_policies = 2;
  rng_ = std::make_unique<Rng>(config_.seed);
  model_ = std::make_unique<ImTransformer>(config_.model, *rng_);
  diffusion_ = std::make_unique<GaussianDiffusion>(config_.schedule);
  {
    // Drop captures of the replaced model (raw weight pointers go stale).
    std::lock_guard<std::mutex> lock(graph_mu_);
    graph_cache_.reset();
  }
  std::vector<nn::Var> params = model_->Parameters();
  if (!nn::LoadParameters(params, path)) {
    // Never serve randomly initialized weights: leave the detector unfitted.
    model_.reset();
    diffusion_.reset();
    return false;
  }
  return true;
}

}  // namespace imdiff
