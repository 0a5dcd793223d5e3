// Reverse-mode automatic differentiation on Tensors.
//
// A Var wraps a Tensor value plus an optional gradient and a backward closure.
// Ops build a dynamic graph; Backward(loss) topologically sorts it and
// accumulates gradients into every reachable Var with requires_grad set.
// Graphs are rebuilt every iteration (define-by-run), so only parameters keep
// gradients across iterations (cleared by the optimizer).

#ifndef IMDIFF_NN_AUTOGRAD_H_
#define IMDIFF_NN_AUTOGRAD_H_

#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace imdiff {
namespace nn {

struct VarNode;
using VarNodePtr = std::shared_ptr<VarNode>;

struct VarNode {
  Tensor value;
  Tensor grad;  // allocated lazily by AccumulateGrad
  bool has_grad = false;
  bool requires_grad = false;
  std::vector<VarNodePtr> parents;
  // Propagates this node's grad into its parents. Null for leaves.
  std::function<void(VarNode&)> backward;

  // Adds g into grad (allocating on first use).
  void AccumulateGrad(const Tensor& g);
};

// Value-semantics handle to a graph node.
class Var {
 public:
  Var() : node_(nullptr) {}
  explicit Var(Tensor value, bool requires_grad = false);

  bool defined() const { return node_ != nullptr; }
  const Tensor& value() const { return node_->value; }
  Tensor& mutable_value() { return node_->value; }
  const Tensor& grad() const;
  bool has_grad() const { return node_ && node_->has_grad; }
  bool requires_grad() const { return node_ && node_->requires_grad; }
  void ClearGrad();

  const Shape& shape() const { return node_->value.shape(); }
  int64_t dim(size_t axis) const { return node_->value.dim(axis); }
  size_t ndim() const { return node_->value.ndim(); }

  VarNodePtr node() const { return node_; }
  static Var FromNode(VarNodePtr node);

 private:
  VarNodePtr node_;
};

// Runs reverse-mode differentiation from `loss` (any shape; the seed gradient
// is all-ones). Gradients accumulate into every requires_grad Var reached.
void Backward(const Var& loss);

// ---- Arithmetic -------------------------------------------------------------

Var Add(const Var& a, const Var& b);        // broadcasting
Var Sub(const Var& a, const Var& b);        // broadcasting
Var Mul(const Var& a, const Var& b);        // broadcasting
Var Neg(const Var& a);
Var ScaleV(const Var& a, float s);
Var AddScalarV(const Var& a, float s);
// Element-wise multiply by a constant (non-differentiated) tensor, e.g. a
// mask. Shapes must broadcast.
Var MulConst(const Var& a, const Tensor& c);
Var AddConst(const Var& a, const Tensor& c);

inline Var operator+(const Var& a, const Var& b) { return Add(a, b); }
inline Var operator-(const Var& a, const Var& b) { return Sub(a, b); }
inline Var operator*(const Var& a, const Var& b) { return Mul(a, b); }

// ---- Linear algebra -----------------------------------------------------------

Var MatMulV(const Var& a, const Var& b, bool transpose_a = false,
            bool transpose_b = false);
Var BatchedMatMulV(const Var& a, const Var& b, bool transpose_a = false,
                   bool transpose_b = false);

// 1D convolution (stride 1, symmetric zero padding): x [B,Cin,L],
// w [Cout,Cin,K], bias [Cout] (pass an undefined Var for no bias).
Var Conv1dV(const Var& x, const Var& w, const Var& bias, int pad);

// Inverted dropout: zeroes entries with probability p and rescales the rest
// by 1/(1-p). Identity when p == 0.
Var DropoutV(const Var& x, float p, Rng& rng);

// ---- Structure ------------------------------------------------------------------

Var ReshapeV(const Var& a, Shape shape);
Var PermuteV(const Var& a, std::vector<size_t> perm);
Var ConcatV(const std::vector<Var>& parts, size_t axis);
Var SliceV(const Var& a, size_t axis, int64_t start, int64_t len);
// Gathers rows of a 2D table [num, d] by index -> [indices.size(), d].
Var GatherRowsV(const Var& table, const std::vector<int64_t>& indices);

// ---- Nonlinearities ---------------------------------------------------------------

Var ReluV(const Var& a);
Var GeluV(const Var& a);    // tanh approximation
Var SiluV(const Var& a);    // x * sigmoid(x)
Var TanhV(const Var& a);
Var SigmoidV(const Var& a);
// DiffWave gated activation: fg [..., 2D] -> tanh(fg[..., :D]) *
// sigmoid(fg[..., D:]) of shape [..., D], one fused kernel each way.
Var GateV(const Var& fg);
Var ExpV(const Var& a);
Var SoftplusV(const Var& a);
Var SoftmaxV(const Var& a);  // last dim
// Layer normalization over the last dimension with affine parameters.
// gamma/beta have shape [last_dim].
Var LayerNormV(const Var& x, const Var& gamma, const Var& beta,
               float eps = 1e-5f);

// ---- Reductions / losses -------------------------------------------------------------

Var SumV(const Var& a);     // -> [1]
Var MeanV(const Var& a);    // -> [1]
// Mean squared error against a constant target.
Var MseLossV(const Var& pred, const Tensor& target);
// MSE restricted to mask==1 entries, normalized by the mask sum.
Var MaskedMseLossV(const Var& pred, const Tensor& target, const Tensor& mask);

}  // namespace nn
}  // namespace imdiff

#endif  // IMDIFF_NN_AUTOGRAD_H_
