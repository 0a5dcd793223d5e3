#include "nn/autograd.h"

#include <cmath>
#include <unordered_set>
#include <utility>

#include "tensor/arena.h"
#include "tensor/simd.h"

namespace imdiff {
namespace nn {

namespace {

// Creates an interior node. requires_grad is inherited from parents.
Var MakeOp(Tensor value, std::vector<VarNodePtr> parents,
           std::function<void(VarNode&)> backward) {
  auto node = std::make_shared<VarNode>();
  node->value = std::move(value);
  node->parents = std::move(parents);
  bool needs = false;
  for (const auto& p : node->parents) needs = needs || p->requires_grad;
  node->requires_grad = needs;
  if (needs) node->backward = std::move(backward);
  return Var::FromNode(node);
}

Tensor Transpose2D(const Tensor& t) { return Permute(t, {1, 0}); }
Tensor Transpose3D(const Tensor& t) { return Permute(t, {0, 2, 1}); }

}  // namespace

void VarNode::AccumulateGrad(const Tensor& g) {
  IMDIFF_CHECK(g.shape() == value.shape())
      << "grad shape" << ShapeToString(g.shape()) << "vs value"
      << ShapeToString(value.shape());
  if (!has_grad) {
    grad = g.Clone();
    has_grad = true;
    return;
  }
  simd::AddInPlace(grad.mutable_data(), g.data(), grad.numel());
}

Var::Var(Tensor value, bool requires_grad) {
  node_ = std::make_shared<VarNode>();
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
}

const Tensor& Var::grad() const {
  IMDIFF_CHECK(node_ != nullptr && node_->has_grad) << "no gradient";
  return node_->grad;
}

void Var::ClearGrad() {
  if (node_) {
    node_->has_grad = false;
    node_->grad = Tensor();
  }
}

Var Var::FromNode(VarNodePtr node) {
  Var v;
  v.node_ = std::move(node);
  return v;
}

void Backward(const Var& loss) {
  IMDIFF_CHECK(loss.defined());
  // Iterative post-order DFS to get a topological order.
  std::vector<VarNode*> order;
  std::unordered_set<VarNode*> visited;
  std::vector<std::pair<VarNode*, size_t>> stack;
  stack.emplace_back(loss.node().get(), 0);
  visited.insert(loss.node().get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      VarNode* child = node->parents[next_child].get();
      ++next_child;
      if (child->requires_grad && visited.insert(child).second) {
        stack.emplace_back(child, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  // Seed and propagate in reverse topological order.
  loss.node()->AccumulateGrad(Tensor::Full(loss.shape(), 1.0f));
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    VarNode* node = *it;
    if (node->backward && node->has_grad) node->backward(*node);
  }
}

// ---- Arithmetic -------------------------------------------------------------

Var Add(const Var& a, const Var& b) {
  return MakeOp(imdiff::Add(a.value(), b.value()), {a.node(), b.node()},
                [](VarNode& n) {
                  auto& pa = n.parents[0];
                  auto& pb = n.parents[1];
                  if (pa->requires_grad)
                    pa->AccumulateGrad(ReduceToShape(n.grad, pa->value.shape()));
                  if (pb->requires_grad)
                    pb->AccumulateGrad(ReduceToShape(n.grad, pb->value.shape()));
                });
}

Var Sub(const Var& a, const Var& b) {
  return MakeOp(imdiff::Sub(a.value(), b.value()), {a.node(), b.node()},
                [](VarNode& n) {
                  auto& pa = n.parents[0];
                  auto& pb = n.parents[1];
                  if (pa->requires_grad)
                    pa->AccumulateGrad(ReduceToShape(n.grad, pa->value.shape()));
                  if (pb->requires_grad)
                    pb->AccumulateGrad(
                        ReduceToShape(Scale(n.grad, -1.0f), pb->value.shape()));
                });
}

Var Mul(const Var& a, const Var& b) {
  return MakeOp(imdiff::Mul(a.value(), b.value()), {a.node(), b.node()},
                [](VarNode& n) {
                  auto& pa = n.parents[0];
                  auto& pb = n.parents[1];
                  if (pa->requires_grad)
                    pa->AccumulateGrad(ReduceToShape(
                        imdiff::Mul(n.grad, pb->value), pa->value.shape()));
                  if (pb->requires_grad)
                    pb->AccumulateGrad(ReduceToShape(
                        imdiff::Mul(n.grad, pa->value), pb->value.shape()));
                });
}

Var Neg(const Var& a) { return ScaleV(a, -1.0f); }

Var ScaleV(const Var& a, float s) {
  return MakeOp(Scale(a.value(), s), {a.node()}, [s](VarNode& n) {
    n.parents[0]->AccumulateGrad(Scale(n.grad, s));
  });
}

Var AddScalarV(const Var& a, float s) {
  return MakeOp(AddScalar(a.value(), s), {a.node()}, [](VarNode& n) {
    n.parents[0]->AccumulateGrad(n.grad);
  });
}

Var MulConst(const Var& a, const Tensor& c) {
  return MakeOp(imdiff::Mul(a.value(), c), {a.node()}, [c](VarNode& n) {
    n.parents[0]->AccumulateGrad(
        ReduceToShape(imdiff::Mul(n.grad, c), n.parents[0]->value.shape()));
  });
}

Var AddConst(const Var& a, const Tensor& c) {
  return MakeOp(imdiff::Add(a.value(), c), {a.node()}, [](VarNode& n) {
    n.parents[0]->AccumulateGrad(
        ReduceToShape(n.grad, n.parents[0]->value.shape()));
  });
}

// ---- Linear algebra -----------------------------------------------------------

Var MatMulV(const Var& a, const Var& b, bool transpose_a, bool transpose_b) {
  return MakeOp(
      MatMul(a.value(), b.value(), transpose_a, transpose_b),
      {a.node(), b.node()}, [transpose_a, transpose_b](VarNode& n) {
        auto& pa = n.parents[0];
        auto& pb = n.parents[1];
        if (pa->requires_grad) {
          Tensor da = MatMul(n.grad, pb->value, false, !transpose_b);
          if (transpose_a) da = Transpose2D(da);
          pa->AccumulateGrad(da);
        }
        if (pb->requires_grad) {
          Tensor db = MatMul(pa->value, n.grad, !transpose_a, false);
          if (transpose_b) db = Transpose2D(db);
          pb->AccumulateGrad(db);
        }
      });
}

Var BatchedMatMulV(const Var& a, const Var& b, bool transpose_a,
                   bool transpose_b) {
  return MakeOp(
      BatchedMatMul(a.value(), b.value(), transpose_a, transpose_b),
      {a.node(), b.node()}, [transpose_a, transpose_b](VarNode& n) {
        auto& pa = n.parents[0];
        auto& pb = n.parents[1];
        if (pa->requires_grad) {
          Tensor da = BatchedMatMul(n.grad, pb->value, false, !transpose_b);
          if (transpose_a) da = Transpose3D(da);
          pa->AccumulateGrad(da);
        }
        if (pb->requires_grad) {
          Tensor db = BatchedMatMul(pa->value, n.grad, !transpose_a, false);
          if (transpose_b) db = Transpose3D(db);
          pb->AccumulateGrad(db);
        }
      });
}

Var Conv1dV(const Var& x, const Var& w, const Var& bias, int pad) {
  const bool has_bias = bias.defined();
  Tensor y = Conv1d(x.value(), w.value(),
                    has_bias ? bias.value() : Tensor(), pad);
  std::vector<VarNodePtr> parents = {x.node(), w.node()};
  if (has_bias) parents.push_back(bias.node());
  return MakeOp(std::move(y), std::move(parents), [pad, has_bias](VarNode& n) {
    auto& px = n.parents[0];
    auto& pw = n.parents[1];
    Tensor gx, gw, gb;
    Tensor* gx_ptr = px->requires_grad ? &gx : nullptr;
    Tensor* gw_ptr = pw->requires_grad ? &gw : nullptr;
    Tensor* gb_ptr =
        has_bias && n.parents[2]->requires_grad ? &gb : nullptr;
    Conv1dBackward(px->value, pw->value, pad, n.grad, gx_ptr, gw_ptr, gb_ptr);
    if (gx_ptr != nullptr) px->AccumulateGrad(gx);
    if (gw_ptr != nullptr) pw->AccumulateGrad(gw);
    if (gb_ptr != nullptr) n.parents[2]->AccumulateGrad(gb);
  });
}

Var DropoutV(const Var& x, float p, Rng& rng) {
  if (p <= 0.0f) return x;
  IMDIFF_CHECK_LT(p, 1.0f);
  Tensor mask = Tensor::Uninitialized(x.shape());
  const float keep_scale = 1.0f / (1.0f - p);
  float* pm = mask.mutable_data();
  const int64_t n = mask.numel();
  for (int64_t i = 0; i < n; ++i) {
    pm[i] = rng.Bernoulli(p) ? 0.0f : keep_scale;
  }
  return MulConst(x, mask);
}

// ---- Structure ------------------------------------------------------------------

Var ReshapeV(const Var& a, Shape shape) {
  const Shape original = a.shape();
  return MakeOp(a.value().Reshape(std::move(shape)), {a.node()},
                [original](VarNode& n) {
                  n.parents[0]->AccumulateGrad(n.grad.Reshape(original));
                });
}

Var PermuteV(const Var& a, std::vector<size_t> perm) {
  std::vector<size_t> inverse(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) inverse[perm[i]] = i;
  return MakeOp(Permute(a.value(), perm), {a.node()},
                [inverse](VarNode& n) {
                  n.parents[0]->AccumulateGrad(Permute(n.grad, inverse));
                });
}

Var ConcatV(const std::vector<Var>& parts, size_t axis) {
  std::vector<Tensor> values;
  std::vector<VarNodePtr> nodes;
  values.reserve(parts.size());
  for (const Var& p : parts) {
    values.push_back(p.value());
    nodes.push_back(p.node());
  }
  return MakeOp(Concat(values, axis), std::move(nodes), [axis](VarNode& n) {
    int64_t offset = 0;
    for (auto& p : n.parents) {
      const int64_t len = p->value.dim(axis);
      if (p->requires_grad) {
        p->AccumulateGrad(Slice(n.grad, axis, offset, len));
      }
      offset += len;
    }
  });
}

Var SliceV(const Var& a, size_t axis, int64_t start, int64_t len) {
  const Shape full = a.shape();
  return MakeOp(Slice(a.value(), axis, start, len), {a.node()},
                [full, axis, start](VarNode& n) {
                  n.parents[0]->AccumulateGrad(
                      SliceBackward(n.grad, full, axis, start));
                });
}

Var GatherRowsV(const Var& table, const std::vector<int64_t>& indices) {
  IMDIFF_CHECK_EQ(table.ndim(), 2u);
  const int64_t d = table.dim(1);
  Tensor out = Tensor::Uninitialized({static_cast<int64_t>(indices.size()), d});
  for (size_t i = 0; i < indices.size(); ++i) {
    IMDIFF_CHECK(indices[i] >= 0 && indices[i] < table.dim(0));
    std::copy_n(table.value().data() + indices[i] * d, d,
                out.mutable_data() + static_cast<int64_t>(i) * d);
  }
  return MakeOp(std::move(out), {table.node()}, [indices, d](VarNode& n) {
    // Scatter-add into the zero fill (rows may repeat).
    Tensor dt(n.parents[0]->value.shape());
    float* pd = dt.mutable_data();
    const float* pg = n.grad.data();
    for (size_t i = 0; i < indices.size(); ++i) {
      simd::AddInPlace(pd + indices[i] * d, pg + static_cast<int64_t>(i) * d,
                       d);
    }
    n.parents[0]->AccumulateGrad(dt);
  });
}

// ---- Nonlinearities ---------------------------------------------------------------

namespace {

// Generic unary op with a precomputed value = f(x); backward multiplies the
// incoming grad by dfdx computed from the saved input and output.
Var UnaryOp(const Var& a, Tensor value,
            std::function<float(float x, float y)> dfdx) {
  Tensor saved_y = value;
  return MakeOp(std::move(value), {a.node()},
                [saved_y, dfdx = std::move(dfdx)](VarNode& n) {
                  const Tensor& x = n.parents[0]->value;
                  Tensor dx = Tensor::Uninitialized(x.shape());
                  const float* px = x.data();
                  const float* py = saved_y.data();
                  const float* pg = n.grad.data();
                  float* pd = dx.mutable_data();
                  const int64_t m = x.numel();
                  for (int64_t i = 0; i < m; ++i) {
                    pd[i] = pg[i] * dfdx(px[i], py[i]);
                  }
                  n.parents[0]->AccumulateGrad(dx);
                });
}

}  // namespace

Var ReluV(const Var& a) {
  return UnaryOp(
      a, Map(a.value(), [](float x) { return x > 0.0f ? x : 0.0f; }),
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Var GeluV(const Var& a) {
  // Fused vectorized forward/backward (tensor/tensor_ops.h).
  return MakeOp(GeluForward(a.value()), {a.node()}, [](VarNode& n) {
    n.parents[0]->AccumulateGrad(GeluBackward(n.parents[0]->value, n.grad));
  });
}

Var SiluV(const Var& a) {
  return MakeOp(SiluForward(a.value()), {a.node()}, [](VarNode& n) {
    n.parents[0]->AccumulateGrad(SiluBackward(n.parents[0]->value, n.grad));
  });
}

Var TanhV(const Var& a) {
  return UnaryOp(a, TanhForward(a.value()),
                 [](float, float y) { return 1.0f - y * y; });
}

Var SigmoidV(const Var& a) {
  return UnaryOp(a, SigmoidForward(a.value()),
                 [](float, float y) { return y * (1.0f - y); });
}

Var GateV(const Var& fg) {
  // The backward recomputes tanh/sigmoid from the saved input rather than
  // keeping two [..., D] intermediates alive until Backward.
  return MakeOp(GateForward(fg.value()), {fg.node()}, [](VarNode& n) {
    n.parents[0]->AccumulateGrad(GateBackward(n.parents[0]->value, n.grad));
  });
}

Var ExpV(const Var& a) {
  return UnaryOp(
      a, Map(a.value(), [](float x) { return std::exp(x); }),
      [](float, float y) { return y; });
}

Var SoftplusV(const Var& a) {
  return UnaryOp(
      a,
      Map(a.value(),
          [](float x) {
            // Numerically stable softplus.
            return x > 20.0f ? x : std::log1p(std::exp(x));
          }),
      [](float x, float) { return 1.0f / (1.0f + std::exp(-x)); });
}

Var SoftmaxV(const Var& a) {
  Tensor y = SoftmaxLastDim(a.value());
  Tensor saved_y = y;
  return MakeOp(std::move(y), {a.node()}, [saved_y](VarNode& n) {
    const int64_t last = saved_y.dim(saved_y.ndim() - 1);
    const int64_t rows = saved_y.numel() / last;
    Tensor dx = Tensor::Uninitialized(saved_y.shape());
    const float* py = saved_y.data();
    const float* pg = n.grad.data();
    float* pd = dx.mutable_data();
    for (int64_t r = 0; r < rows; ++r) {
      const float* yrow = py + r * last;
      const float* grow = pg + r * last;
      float* drow = pd + r * last;
      const float dot = simd::Dot(grow, yrow, last);
      // drow = y * (g - dot)
      simd::AddScalarInto(drow, grow, -dot, last);
      simd::MulInto(drow, drow, yrow, last);
    }
    n.parents[0]->AccumulateGrad(dx);
  });
}

Var LayerNormV(const Var& x, const Var& gamma, const Var& beta, float eps) {
  const int64_t last = x.dim(x.ndim() - 1);
  IMDIFF_CHECK_EQ(gamma.value().numel(), last);
  IMDIFF_CHECK_EQ(beta.value().numel(), last);
  const int64_t rows = x.value().numel() / last;
  Tensor y, xhat, inv_std;
  LayerNormForward(x.value(), gamma.value(), beta.value(), eps, &y, &xhat,
                   &inv_std);
  return MakeOp(
      std::move(y), {x.node(), gamma.node(), beta.node()},
      [xhat, inv_std, last, rows](VarNode& n) {
        auto& px_node = n.parents[0];
        auto& pg_node = n.parents[1];
        auto& pb_node = n.parents[2];
        const float* pg = n.grad.data();
        const float* ph = xhat.data();
        const float* pgam = pg_node->value.data();
        if (pg_node->requires_grad || pb_node->requires_grad) {
          // Accumulates into the zero fill across rows.
          Tensor dgamma({last});
          Tensor dbeta({last});
          float* pdg = dgamma.mutable_data();
          float* pdb = dbeta.mutable_data();
          for (int64_t r = 0; r < rows; ++r) {
            const float* grow = pg + r * last;
            const float* hrow = ph + r * last;
            simd::FmaInto(pdg, grow, hrow, pdg, last);
            simd::AddInPlace(pdb, grow, last);
          }
          if (pg_node->requires_grad)
            pg_node->AccumulateGrad(dgamma.Reshape(pg_node->value.shape()));
          if (pb_node->requires_grad)
            pb_node->AccumulateGrad(dbeta.Reshape(pb_node->value.shape()));
        }
        if (px_node->requires_grad) {
          Tensor dx = Tensor::Uninitialized(px_node->value.shape());
          float* pd = dx.mutable_data();
          const float* pis = inv_std.data();
          const float inv_n = 1.0f / static_cast<float>(last);
          ArenaBuffer gi(static_cast<size_t>(last));  // grad * gamma, per row
          for (int64_t r = 0; r < rows; ++r) {
            const float* grow = pg + r * last;
            const float* hrow = ph + r * last;
            float* drow = pd + r * last;
            simd::MulInto(gi.data(), grow, pgam, last);
            const float sum_g = simd::Sum(gi.data(), last);
            const float sum_gh = simd::Dot(gi.data(), hrow, last);
            const float is = pis[r];
            // drow = is * (gi - inv_n*sum_g - hrow * inv_n*sum_gh)
            simd::AddScalarInto(drow, gi.data(), -inv_n * sum_g, last);
            simd::Axpy(-inv_n * sum_gh, hrow, drow, last);
            simd::ScaleInPlace(drow, is, last);
          }
          px_node->AccumulateGrad(dx);
        }
      });
}

// ---- Reductions / losses -------------------------------------------------------------

Var SumV(const Var& a) {
  Tensor value({1}, {static_cast<float>(SumAll(a.value()))});
  return MakeOp(std::move(value), {a.node()}, [](VarNode& n) {
    n.parents[0]->AccumulateGrad(
        Tensor::Full(n.parents[0]->value.shape(), n.grad.flat(0)));
  });
}

Var MeanV(const Var& a) {
  const float inv_n = 1.0f / static_cast<float>(a.value().numel());
  Tensor value({1}, {static_cast<float>(MeanAll(a.value()))});
  return MakeOp(std::move(value), {a.node()}, [inv_n](VarNode& n) {
    n.parents[0]->AccumulateGrad(
        Tensor::Full(n.parents[0]->value.shape(), n.grad.flat(0) * inv_n));
  });
}

Var MseLossV(const Var& pred, const Tensor& target) {
  IMDIFF_CHECK(pred.shape() == target.shape());
  Tensor diff = imdiff::Sub(pred.value(), target);
  double acc = 0.0;
  const float* pd = diff.data();
  const int64_t n = diff.numel();
  for (int64_t i = 0; i < n; ++i) acc += static_cast<double>(pd[i]) * pd[i];
  Tensor value({1}, {static_cast<float>(acc / n)});
  return MakeOp(std::move(value), {pred.node()}, [diff](VarNode& nd) {
    const float scale = 2.0f * nd.grad.flat(0) / diff.numel();
    nd.parents[0]->AccumulateGrad(Scale(diff, scale));
  });
}

Var MaskedMseLossV(const Var& pred, const Tensor& target, const Tensor& mask) {
  IMDIFF_CHECK(pred.shape() == target.shape());
  IMDIFF_CHECK(pred.shape() == mask.shape());
  Tensor diff = imdiff::Mul(imdiff::Sub(pred.value(), target), mask);
  double acc = 0.0;
  const float* pd = diff.data();
  const int64_t n = diff.numel();
  for (int64_t i = 0; i < n; ++i) acc += static_cast<double>(pd[i]) * pd[i];
  double mask_sum = SumAll(mask);
  if (mask_sum < 1.0) mask_sum = 1.0;
  Tensor value({1}, {static_cast<float>(acc / mask_sum)});
  const float inv_mask_sum = static_cast<float>(1.0 / mask_sum);
  return MakeOp(std::move(value), {pred.node()},
                [diff, inv_mask_sum](VarNode& nd) {
                  // d/dpred = 2 * diff * mask / mask_sum; diff already carries
                  // the mask factor (mask is 0/1 so mask^2 == mask).
                  const float scale = 2.0f * nd.grad.flat(0) * inv_mask_sum;
                  nd.parents[0]->AccumulateGrad(Scale(diff, scale));
                });
}

}  // namespace nn
}  // namespace imdiff
