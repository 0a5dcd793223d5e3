#include "nn/layers.h"

#include <cmath>

namespace imdiff {
namespace nn {

int64_t ParameterCount(const Module& m) {
  int64_t n = 0;
  for (const Var& p : m.Parameters()) n += p.value().numel();
  return n;
}

namespace {

// Xavier/Glorot uniform initialization.
Tensor XavierUniform(const Shape& shape, int64_t fan_in, int64_t fan_out,
                     Rng& rng) {
  const float limit = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return Tensor::Rand(shape, rng, -limit, limit);
}

}  // namespace

Linear::Linear(int64_t in, int64_t out, Rng& rng, bool bias)
    : in_(in), out_(out) {
  w_ = Var(XavierUniform({in, out}, in, out, rng), /*requires_grad=*/true);
  if (bias) {
    b_ = Var(Tensor::Zeros({out}), /*requires_grad=*/true);
  }
}

Var Linear::Forward(const Var& x) const {
  IMDIFF_CHECK_EQ(x.dim(x.ndim() - 1), in_);
  Shape out_shape = x.shape();
  out_shape.back() = out_;
  Var x2 = ReshapeV(x, {-1, in_});
  Var y = MatMulV(x2, w_);
  if (b_.defined()) y = Add(y, b_);
  return ReshapeV(y, std::move(out_shape));
}

std::vector<Var> Linear::Parameters() const {
  std::vector<Var> params = {w_};
  if (b_.defined()) params.push_back(b_);
  return params;
}

Conv1dLayer::Conv1dLayer(int64_t cin, int64_t cout, int64_t kernel, int pad,
                         Rng& rng, bool bias)
    : pad_(pad) {
  const int64_t fan_in = cin * kernel;
  const int64_t fan_out = cout * kernel;
  w_ = Var(XavierUniform({cout, cin, kernel}, fan_in, fan_out, rng),
           /*requires_grad=*/true);
  if (bias) {
    b_ = Var(Tensor::Zeros({cout}), /*requires_grad=*/true);
  }
}

Var Conv1dLayer::Forward(const Var& x) const {
  return Conv1dV(x, w_, b_, pad_);
}

std::vector<Var> Conv1dLayer::Parameters() const {
  std::vector<Var> params = {w_};
  if (b_.defined()) params.push_back(b_);
  return params;
}

LayerNorm::LayerNorm(int64_t dim)
    : gamma_(Var(Tensor::Full({dim}, 1.0f), /*requires_grad=*/true)),
      beta_(Var(Tensor::Zeros({dim}), /*requires_grad=*/true)) {}

Var LayerNorm::Forward(const Var& x) const {
  return LayerNormV(x, gamma_, beta_);
}

std::vector<Var> LayerNorm::Parameters() const { return {gamma_, beta_}; }

Embedding::Embedding(int64_t num_embeddings, int64_t dim, Rng& rng) {
  table_ = Var(Tensor::Randn({num_embeddings, dim}, rng, 0.02f),
               /*requires_grad=*/true);
}

Var Embedding::Forward(const std::vector<int64_t>& indices) const {
  return GatherRowsV(table_, indices);
}

std::vector<Var> Embedding::Parameters() const { return {table_}; }

Mlp::Mlp(int64_t in, int64_t hidden, int64_t out, Rng& rng, Activation act)
    : fc1_(in, hidden, rng), fc2_(hidden, out, rng), act_(act) {}

Var Mlp::Forward(const Var& x) const {
  Var h = fc1_.Forward(x);
  switch (act_) {
    case Activation::kRelu:
      h = ReluV(h);
      break;
    case Activation::kGelu:
      h = GeluV(h);
      break;
    case Activation::kSilu:
      h = SiluV(h);
      break;
    case Activation::kTanh:
      h = TanhV(h);
      break;
  }
  return fc2_.Forward(h);
}

std::vector<Var> Mlp::Parameters() const {
  std::vector<Var> params = fc1_.Parameters();
  for (const Var& p : fc2_.Parameters()) params.push_back(p);
  return params;
}

Tensor SinusoidalEmbedding(const std::vector<int64_t>& positions, int64_t dim,
                           float max_period) {
  IMDIFF_CHECK_GE(dim, 2);
  const int64_t half = dim / 2;
  Tensor out({static_cast<int64_t>(positions.size()), dim});
  float* po = out.mutable_data();
  for (size_t i = 0; i < positions.size(); ++i) {
    float* row = po + static_cast<int64_t>(i) * dim;
    for (int64_t j = 0; j < half; ++j) {
      const float freq = std::exp(
          -std::log(max_period) * static_cast<float>(j) /
          static_cast<float>(half > 1 ? half - 1 : 1));
      const float angle = static_cast<float>(positions[i]) * freq;
      row[j] = std::sin(angle);
      row[half + j] = std::cos(angle);
    }
    // Odd dim: leave the final column zero.
  }
  return out;
}

}  // namespace nn
}  // namespace imdiff
