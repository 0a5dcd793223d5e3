#include "core/im_transformer.h"

#include <cmath>

namespace imdiff {

using nn::Var;

ImTransformer::ImTransformer(const ImTransformerConfig& config, Rng& rng)
    : config_(config) {
  const int64_t d = config_.hidden;
  input_proj_ = std::make_unique<nn::Linear>(3, d, rng);
  step_mlp_ = std::make_unique<nn::Mlp>(config_.step_embed_dim,
                                        config_.step_embed_dim,
                                        config_.step_embed_dim, rng,
                                        nn::Mlp::Activation::kSilu);
  policy_embed_ = std::make_unique<nn::Embedding>(config_.num_policies,
                                                  config_.step_embed_dim, rng);
  feature_embed_ =
      std::make_unique<nn::Embedding>(config_.num_features, config_.side_dim, rng);
  {
    std::vector<int64_t> positions(static_cast<size_t>(config_.window));
    for (int64_t l = 0; l < config_.window; ++l) {
      positions[static_cast<size_t>(l)] = l;
    }
    time_embed_ = nn::SinusoidalEmbedding(positions, config_.side_dim);
  }
  blocks_.resize(static_cast<size_t>(config_.num_blocks));
  for (auto& block : blocks_) {
    block.step_proj =
        std::make_unique<nn::Linear>(config_.step_embed_dim, d, rng);
    if (config_.use_temporal) {
      block.temporal = std::make_unique<nn::TransformerEncoderLayer>(
          d, config_.num_heads, config_.ff_dim, rng);
    }
    if (config_.use_spatial) {
      block.spatial = std::make_unique<nn::TransformerEncoderLayer>(
          d, config_.num_heads, config_.ff_dim, rng);
    }
    block.side_proj = std::make_unique<nn::Linear>(2 * config_.side_dim, d, rng);
    block.gate_proj = std::make_unique<nn::Linear>(d, 2 * d, rng);
    block.out_proj = std::make_unique<nn::Linear>(d, 2 * d, rng);
  }
  head1_ = std::make_unique<nn::Linear>(d, d, rng);
  head2_ = std::make_unique<nn::Linear>(d, 1, rng);
}

Var ImTransformer::Forward(const Tensor& x_masked, const Tensor& noise_ref,
                           const Tensor& mask, int t,
                           const std::vector<int64_t>& policies) const {
  IMDIFF_CHECK_EQ(x_masked.ndim(), 3u);
  const int64_t batch = x_masked.dim(0);
  const int64_t k = x_masked.dim(1);
  const int64_t length = x_masked.dim(2);
  IMDIFF_CHECK_EQ(k, config_.num_features);
  IMDIFF_CHECK_EQ(length, config_.window);
  IMDIFF_CHECK_EQ(static_cast<int64_t>(policies.size()), batch);
  IMDIFF_CHECK(x_masked.shape() == noise_ref.shape());
  IMDIFF_CHECK(x_masked.shape() == mask.shape());
  const int64_t d = config_.hidden;
  const int64_t tokens = k * length;  // token order: (k, l), l contiguous

  // Stack the three input channels as the last axis: [B, K*L, 3].
  Tensor stacked({batch, tokens, 3});
  {
    const float* px = x_masked.data();
    const float* pr = noise_ref.data();
    const float* pm = mask.data();
    float* po = stacked.mutable_data();
    const int64_t n = batch * tokens;
    for (int64_t i = 0; i < n; ++i) {
      po[i * 3 + 0] = px[i];
      po[i * 3 + 1] = pr[i];
      po[i * 3 + 2] = pm[i];
    }
  }
  Var h = input_proj_->Forward(Var(std::move(stacked)));  // [B, K*L, D]

  // Diffusion-step embedding: sinusoidal(t) -> MLP; plus policy embedding.
  // Combined per batch element, then projected per block and broadcast over
  // tokens as [B, 1, D].
  Var step_embed;
  {
    Tensor sin = nn::SinusoidalEmbedding({t}, config_.step_embed_dim);  // [1, E]
    Var s = step_mlp_->Forward(Var(std::move(sin)));                    // [1, E]
    Var p = policy_embed_->Forward(policies);                           // [B, E]
    step_embed = Add(p, s);                                             // [B, E]
  }

  // Complementary side info per token: concat(feature embedding, sinusoidal
  // time embedding) -> [1, K*L, 2*side], built inside the graph so the
  // feature embedding trains.
  Var side_var;
  {
    std::vector<int64_t> feat_idx(static_cast<size_t>(tokens));
    for (int64_t j = 0; j < k; ++j) {
      for (int64_t l = 0; l < length; ++l) {
        feat_idx[static_cast<size_t>(j * length + l)] = j;
      }
    }
    Var feat_rows = feature_embed_->Forward(feat_idx);  // [K*L, side]
    Tensor time_rows({tokens, config_.side_dim});
    {
      const float* pt = time_embed_.data();
      float* po = time_rows.mutable_data();
      for (int64_t j = 0; j < k; ++j) {
        std::copy_n(pt, length * config_.side_dim,
                    po + j * length * config_.side_dim);
      }
    }
    side_var = nn::ConcatV({feat_rows, Var(std::move(time_rows))}, 1);
    side_var = ReshapeV(side_var, {1, tokens, 2 * config_.side_dim});
  }

  Var skip_sum;
  for (const auto& block : blocks_) {
    // Inject diffusion-step + policy embedding.
    Var se = block.step_proj->Forward(step_embed);           // [B, D]
    Var h_in = Add(h, ReshapeV(se, {batch, 1, d}));          // broadcast tokens

    // Temporal transformer: [B, K, L, D] -> [B*K, L, D].
    if (block.temporal != nullptr) {
      Var ht = ReshapeV(h_in, {batch * k, length, d});
      ht = block.temporal->Forward(ht);
      h_in = ReshapeV(ht, {batch, tokens, d});
    }
    // Spatial transformer: [B, K, L, D] -> [B, L, K, D] -> [B*L, K, D].
    if (block.spatial != nullptr) {
      Var hs = ReshapeV(h_in, {batch, k, length, d});
      hs = PermuteV(hs, {0, 2, 1, 3});
      hs = ReshapeV(hs, {batch * length, k, d});
      hs = block.spatial->Forward(hs);
      hs = ReshapeV(hs, {batch, length, k, d});
      hs = PermuteV(hs, {0, 2, 1, 3});
      h_in = ReshapeV(hs, {batch, tokens, d});
    }

    // Complementary information residual head (Fig. 5b).
    h_in = Add(h_in, block.side_proj->Forward(side_var));

    // Gated activation (DiffWave): tanh(filter) * sigmoid(gate).
    Var fg = block.gate_proj->Forward(h_in);  // [B, K*L, 2D]
    Var gated = GateV(fg);                     // [B, K*L, D]

    // Residual + skip split.
    Var rs = block.out_proj->Forward(gated);  // [B, K*L, 2D]
    Var residual = SliceV(rs, 2, 0, d);
    Var skip = SliceV(rs, 2, d, d);
    h = ScaleV(Add(h, residual), 1.0f / std::sqrt(2.0f));
    skip_sum = skip_sum.defined() ? Add(skip_sum, skip) : skip;
  }

  Var out = ScaleV(skip_sum, 1.0f / std::sqrt(static_cast<float>(
                                  config_.num_blocks)));
  out = ReluV(head1_->Forward(out));
  out = head2_->Forward(out);                    // [B, K*L, 1]
  return ReshapeV(out, {batch, k, length});      // ε̂
}

std::vector<Var> ImTransformer::Parameters() const {
  std::vector<Var> params;
  auto append = [&params](const std::vector<Var>& p) {
    params.insert(params.end(), p.begin(), p.end());
  };
  append(input_proj_->Parameters());
  append(step_mlp_->Parameters());
  append(policy_embed_->Parameters());
  append(feature_embed_->Parameters());
  for (const auto& block : blocks_) {
    append(block.step_proj->Parameters());
    if (block.temporal != nullptr) append(block.temporal->Parameters());
    if (block.spatial != nullptr) append(block.spatial->Parameters());
    append(block.side_proj->Parameters());
    append(block.gate_proj->Parameters());
    append(block.out_proj->Parameters());
  }
  append(head1_->Parameters());
  append(head2_->Parameters());
  return params;
}

}  // namespace imdiff
