// Raw (non-differentiable) tensor kernels.
//
// These functions implement the numeric primitives used by the autograd layer
// in src/nn. Broadcasting follows NumPy rules: shapes align from the trailing
// dimension, and each aligned pair must be equal or contain a 1.

#ifndef IMDIFF_TENSOR_TENSOR_OPS_H_
#define IMDIFF_TENSOR_TENSOR_OPS_H_

#include <functional>
#include <vector>

#include "tensor/tensor.h"

namespace imdiff {

// ---- Matrix products ------------------------------------------------------

// 2D product: a [m,k] x b [k,n] -> [m,n]. transpose_a / transpose_b treat the
// input as transposed (shapes given pre-transpose).
Tensor MatMul(const Tensor& a, const Tensor& b, bool transpose_a = false,
              bool transpose_b = false);

// Batched 3D product: a [B,m,k] x b [B,k,n] -> [B,m,n] with the same
// transposition flags per batch element.
Tensor BatchedMatMul(const Tensor& a, const Tensor& b, bool transpose_a = false,
                     bool transpose_b = false);

// ---- Broadcasting element-wise ops -----------------------------------------

// Shape of a op b under NumPy broadcasting; aborts if incompatible.
Shape BroadcastShape(const Shape& a, const Shape& b);

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);

// Reduces `t` by summation down to `target` (inverse of broadcasting);
// used when propagating gradients through broadcast ops.
Tensor ReduceToShape(const Tensor& t, const Shape& target);

// ---- Scalar / unary ---------------------------------------------------------

Tensor Scale(const Tensor& a, float s);
Tensor AddScalar(const Tensor& a, float s);
// Applies `f` element-wise.
Tensor Map(const Tensor& a, const std::function<float(float)>& f);

// ---- Structural -------------------------------------------------------------

// Permutes axes: out[idx[perm]] = in[idx]. perm is a permutation of
// [0, ndim).
Tensor Permute(const Tensor& t, const std::vector<size_t>& perm);

// Concatenates along `axis`; all other dims must match.
Tensor Concat(const std::vector<Tensor>& parts, size_t axis);

// Extracts t[..., start:start+len, ...] along `axis`.
Tensor Slice(const Tensor& t, size_t axis, int64_t start, int64_t len);

// Scatter-adds `grad` (a slice-shaped tensor) back into a zero tensor of shape
// `full_shape` at [start, start+len) along `axis`. Used by Slice backward.
Tensor SliceBackward(const Tensor& grad, const Shape& full_shape, size_t axis,
                     int64_t start);

// ---- Fused NN kernels --------------------------------------------------------
//
// Vectorized forward/backward primitives for the transformer blocks in
// src/nn (attention.cc / layers.cc route here through the autograd ops).
// All run the SIMD layer in tensor/simd.h with its scalar fallback.

// tanh-approximated GELU, elementwise.
Tensor GeluForward(const Tensor& x);
// grad * gelu'(x), elementwise.
Tensor GeluBackward(const Tensor& x, const Tensor& grad);
// x * sigmoid(x), elementwise.
Tensor SiluForward(const Tensor& x);
// grad * silu'(x), elementwise.
Tensor SiluBackward(const Tensor& x, const Tensor& grad);
// tanh(x), elementwise.
Tensor TanhForward(const Tensor& x);
// 1 / (1 + exp(-x)), elementwise.
Tensor SigmoidForward(const Tensor& x);
// DiffWave gated activation over the last axis: fg [..., 2D] ->
// tanh(fg[..., :D]) * sigmoid(fg[..., D:]) of shape [..., D]. The graph
// executor's gate op runs the same row kernel (simd::GateRowsInto).
Tensor GateForward(const Tensor& fg);
// Gradient of GateForward w.r.t. fg for an incoming [..., D] grad; [..., 2D].
Tensor GateBackward(const Tensor& fg, const Tensor& grad);

// Fused LayerNorm forward over the last dimension. Writes the normalized
// output into *y, the pre-affine normalized rows into *xhat (saved for the
// backward pass), and the per-row 1/std into *inv_std (shape {rows}). Every
// output element is written.
void LayerNormForward(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                      float eps, Tensor* y, Tensor* xhat, Tensor* inv_std);

// ---- Reductions / softmax ----------------------------------------------------

// Softmax along the last dimension.
Tensor SoftmaxLastDim(const Tensor& t);

// Sum over one axis. keepdim keeps a 1-sized axis in place.
Tensor ReduceSumAxis(const Tensor& t, size_t axis, bool keepdim);

double SumAll(const Tensor& t);
double MeanAll(const Tensor& t);

// ---- Convolution --------------------------------------------------------------

// 1D convolution, stride 1, zero padding `pad` on both sides:
//   x [B, Cin, L], w [Cout, Cin, K], bias [Cout] (may be empty) -> [B, Cout, Lout]
// with Lout = L + 2*pad - K + 1.
Tensor Conv1d(const Tensor& x, const Tensor& w, const Tensor& bias, int pad);

// Gradients of Conv1d. Any output pointer may be null to skip it.
void Conv1dBackward(const Tensor& x, const Tensor& w, int pad,
                    const Tensor& grad_out, Tensor* grad_x, Tensor* grad_w,
                    Tensor* grad_bias);

}  // namespace imdiff

#endif  // IMDIFF_TENSOR_TENSOR_OPS_H_
