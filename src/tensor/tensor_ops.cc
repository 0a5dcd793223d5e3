#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/arena.h"
#include "tensor/gemm.h"
#include "tensor/simd.h"
#include "utils/thread_pool.h"

namespace imdiff {
namespace {

// Work-partitioning grains are shared with the inference graph executor
// through tensor/gemm.h so both paths split identically.
using gemm::kElementGrain;
using gemm::RowGrain;

// Computes row-major strides for a shape.
std::vector<int64_t> Strides(const Shape& shape) {
  std::vector<int64_t> strides(shape.size(), 1);
  for (size_t i = shape.size(); i-- > 1;) {
    strides[i - 1] = strides[i] * shape[i];
  }
  return strides;
}

// ---- GEMM -------------------------------------------------------------------
//
// The vectorized path is a packed, register-tiled kernel: the b operand is
// packed one NR-wide column panel at a time into [k, NR] layout (zero-padded
// on the right edge), which collapses the transpose_b distinction, and a
// transposed a is packed to contiguous rows once per worker range, collapsing
// transpose_a. The microkernel then accumulates an MR x NR tile entirely in
// registers over the full reduction dim and stores each output element exactly
// once — so outputs may be allocated uninitialized.
//
// Determinism: packing is pure data movement, and each output row's FMA
// sequence (p ascending within its column panel) depends only on (m, k, n),
// never on how rows are grouped into tiles or split across workers. Results
// are therefore bitwise identical for any thread count and any batch
// composition, as required by the serving-path invariants.

// Tile constants are shared with the graph executor through tensor/gemm.h.
using gemm::kMR;

#if defined(IMDIFF_SIMD_ANY)

using gemm::kNRVec;

// Packs columns [j0, j0+jr) of logical b (k x n) into panel[p * kNRVec + jj],
// zero-padding jj in [jr, kNRVec). tb means b is stored as [n, k].
void PackBPanel(const float* b, int64_t k, int64_t n, bool tb, int64_t j0,
                int64_t jr, float* panel) {
  if (!tb) {
    for (int64_t p = 0; p < k; ++p) {
      const float* src = b + p * n + j0;
      float* dst = panel + p * kNRVec;
      int64_t jj = 0;
      for (; jj < jr; ++jj) dst[jj] = src[jj];
      for (; jj < kNRVec; ++jj) dst[jj] = 0.0f;
    }
  } else {
    for (int64_t p = 0; p < k; ++p) {
      float* dst = panel + p * kNRVec;
      for (int64_t jj = 0; jj < jr; ++jj) dst[jj] = b[(j0 + jj) * k + p];
      for (int64_t jj = jr; jj < kNRVec; ++jj) dst[jj] = 0.0f;
    }
  }
}

// MR x kNRVec register tile: c[r][j0 + jj] = sum_p a[r][p] * panel[p][jj].
// `arows` holds MR contiguous rows of stride k; `jr` columns are stored.
template <int MR>
void MicroKernelVec(const float* arows, int64_t k, const float* panel, float* c,
                    int64_t n, int64_t j0, int64_t jr) {
  using simd::VecF;
  constexpr int W = simd::kVectorWidth;
  VecF acc0[MR], acc1[MR];
  for (int r = 0; r < MR; ++r) {
    acc0[r] = simd::VZero();
    acc1[r] = simd::VZero();
  }
  for (int64_t p = 0; p < k; ++p) {
    const VecF b0 = simd::VLoad(panel + p * kNRVec);
    const VecF b1 = simd::VLoad(panel + p * kNRVec + W);
    for (int r = 0; r < MR; ++r) {
      const VecF av = simd::VSet1(arows[r * k + p]);
      acc0[r] = simd::VFma(av, b0, acc0[r]);
      acc1[r] = simd::VFma(av, b1, acc1[r]);
    }
  }
  if (jr == kNRVec) {
    for (int r = 0; r < MR; ++r) {
      simd::VStore(c + r * n + j0, acc0[r]);
      simd::VStore(c + r * n + j0 + W, acc1[r]);
    }
  } else {
    float tmp[2 * W];
    for (int r = 0; r < MR; ++r) {
      simd::VStore(tmp, acc0[r]);
      simd::VStore(tmp + W, acc1[r]);
      std::memcpy(c + r * n + j0, tmp, sizeof(float) * static_cast<size_t>(jr));
    }
  }
}

// Dispatches the MR-tall microkernel over rows [0, rows) against one packed
// panel covering columns [j0, j0+jr).
void MicroKernelRows(const float* abase, int64_t k, const float* panel,
                     float* c, int64_t n, int64_t j0, int64_t jr,
                     int64_t row_begin, int64_t rows) {
  for (int64_t i0 = 0; i0 < rows; i0 += kMR) {
    const int64_t mr = std::min<int64_t>(kMR, rows - i0);
    const float* arows = abase + i0 * k;
    float* crow = c + (row_begin + i0) * n;
    switch (mr) {
      case 1:
        MicroKernelVec<1>(arows, k, panel, crow, n, j0, jr);
        break;
      case 2:
        MicroKernelVec<2>(arows, k, panel, crow, n, j0, jr);
        break;
      case 3:
        MicroKernelVec<3>(arows, k, panel, crow, n, j0, jr);
        break;
      default:
        MicroKernelVec<4>(arows, k, panel, crow, n, j0, jr);
        break;
    }
  }
}

#endif  // IMDIFF_SIMD_ANY

}  // namespace

namespace gemm {

#if defined(IMDIFF_SIMD_ANY)

// Rows [row_begin, row_end) of c[m,n] = a * b with the packed kernel and
// caller-provided scratch. Every element of those rows is stored exactly
// once.
void GemmRowsPackedScratch(const float* a, const float* b, float* c, int64_t m,
                           int64_t k, int64_t n, bool ta, bool tb,
                           int64_t row_begin, int64_t row_end, float* bpack,
                           float* apack) {
  const int64_t rows = row_end - row_begin;
  if (rows <= 0 || n <= 0) return;
  // Transposed a ([k, m] physical) is packed to contiguous rows once per
  // worker range; afterwards both layouts feed the microkernel identically.
  if (ta) {
    for (int64_t r = 0; r < rows; ++r) {
      float* dst = apack + r * k;
      const int64_t i = row_begin + r;
      for (int64_t p = 0; p < k; ++p) dst[p] = a[p * m + i];
    }
  }
  const float* abase = ta ? apack : a + row_begin * k;
  // One [k, kNRVec] panel at a time, reused across all row tiles; for the
  // model's reduction dims it stays resident in L1.
  for (int64_t j0 = 0; j0 < n; j0 += kNRVec) {
    const int64_t jr = std::min<int64_t>(kNRVec, n - j0);
    PackBPanel(b, k, n, tb, j0, jr, bpack);
    MicroKernelRows(abase, k, bpack, c, n, j0, jr, row_begin, rows);
  }
}

void PackBFull(const float* b, int64_t k, int64_t n, bool tb, float* packed) {
  for (int64_t j0 = 0; j0 < n; j0 += kNRVec) {
    const int64_t jr = std::min<int64_t>(kNRVec, n - j0);
    PackBPanel(b, k, n, tb, j0, jr,
               packed + (j0 / kNRVec) * (k * kNRVec));
  }
}

void GemmRowsPrepacked(const float* a, const float* packed_b, float* c,
                       int64_t m, int64_t k, int64_t n, int64_t row_begin,
                       int64_t row_end) {
  (void)m;
  const int64_t rows = row_end - row_begin;
  if (rows <= 0 || n <= 0) return;
  const float* abase = a + row_begin * k;
  // Identical panel/tile iteration to GemmRowsPackedScratch — only the
  // per-call PackBPanel is gone, so the FMA stream (and the result) is
  // bitwise the same.
  for (int64_t j0 = 0; j0 < n; j0 += kNRVec) {
    const int64_t jr = std::min<int64_t>(kNRVec, n - j0);
    const float* panel = packed_b + (j0 / kNRVec) * (k * kNRVec);
    MicroKernelRows(abase, k, panel, c, n, j0, jr, row_begin, rows);
  }
}

#endif  // IMDIFF_SIMD_ANY

// Scalar reference: rows [row_begin, row_end) of c += a * b with the four
// transpose layouts handled directly. Kept as the pre-SIMD kernel so the
// IMDIFF_FORCE_SCALAR path and the generic (-march-less) build measure and
// behave exactly like the original implementation. Requires its c rows to be
// zeroed (the caller memsets them; outputs are allocated uninitialized).
void MatMulRowsScalar(const float* a, const float* b, float* c, int64_t m,
                      int64_t k, int64_t n, bool ta, bool tb, int64_t row_begin,
                      int64_t row_end) {
  if (!ta && !tb) {
    // ikj ordering with 4-way unrolling over k: streams b rows and amortizes
    // the c-row traffic across four partial products.
    for (int64_t i = row_begin; i < row_end; ++i) {
      float* crow = c + i * n;
      const float* arow = a + i * k;
      int64_t p = 0;
      for (; p + 4 <= k; p += 4) {
        const float a0 = arow[p], a1 = arow[p + 1];
        const float a2 = arow[p + 2], a3 = arow[p + 3];
        const float* b0 = b + p * n;
        const float* b1 = b0 + n;
        const float* b2 = b1 + n;
        const float* b3 = b2 + n;
        for (int64_t j = 0; j < n; ++j) {
          crow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
        }
      }
      for (; p < k; ++p) {
        const float av = arow[p];
        const float* brow = b + p * n;
        for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  } else if (ta && !tb) {
    // a is [k,m] physically: c[i][j] += sum_p a[p][i] b[p][j], unrolled 4x
    // over the reduction dim p.
    for (int64_t i = row_begin; i < row_end; ++i) {
      float* crow = c + i * n;
      int64_t p = 0;
      for (; p + 4 <= k; p += 4) {
        const float a0 = a[p * m + i], a1 = a[(p + 1) * m + i];
        const float a2 = a[(p + 2) * m + i], a3 = a[(p + 3) * m + i];
        const float* b0 = b + p * n;
        const float* b1 = b0 + n;
        const float* b2 = b1 + n;
        const float* b3 = b2 + n;
        for (int64_t j = 0; j < n; ++j) {
          crow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
        }
      }
      for (; p < k; ++p) {
        const float av = a[p * m + i];
        const float* brow = b + p * n;
        for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  } else if (!ta && tb) {
    // b is [n,k] physically: dot products of contiguous rows.
    for (int64_t i = row_begin; i < row_end; ++i) {
      const float* arow = a + i * k;
      float* crow = c + i * n;
      for (int64_t j = 0; j < n; ++j) {
        const float* brow = b + j * k;
        float acc = 0.0f;
        for (int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
        crow[j] += acc;
      }
    }
  } else {
    // a [k,m], b [n,k].
    for (int64_t i = row_begin; i < row_end; ++i) {
      float* crow = c + i * n;
      for (int64_t j = 0; j < n; ++j) {
        const float* brow = b + j * k;
        float acc = 0.0f;
        for (int64_t p = 0; p < k; ++p) acc += a[p * m + i] * brow[p];
        crow[j] += acc;
      }
    }
  }
}

// Full 2D matmul into an uninitialized c, parallelized over output rows on the
// compute pool. Nested calls (e.g. from a batch-level parallel section) run
// inline.
void MatMulInto(const float* a, const float* b, float* c, int64_t m, int64_t k,
                int64_t n, bool ta, bool tb) {
#if defined(IMDIFF_SIMD_ANY)
  if (simd::Enabled()) {
    ParallelForRange(ComputePool(), static_cast<size_t>(m), RowGrain(2 * k * n),
                     [&](size_t begin, size_t end) {
                       const int64_t rows = static_cast<int64_t>(end - begin);
                       ArenaBuffer apack(ta ? static_cast<size_t>(rows * k)
                                            : 0);
                       ArenaBuffer bpack(PanelFloats(k));
                       GemmRowsPackedScratch(a, b, c, m, k, n, ta, tb,
                                             static_cast<int64_t>(begin),
                                             static_cast<int64_t>(end),
                                             bpack.data(), apack.data());
                     });
    return;
  }
#endif
  ParallelForRange(ComputePool(), static_cast<size_t>(m), RowGrain(2 * k * n),
                   [&](size_t begin, size_t end) {
                     // The scalar kernel accumulates, so zero exactly the rows
                     // this worker owns (c arrives uninitialized).
                     std::memset(c + static_cast<int64_t>(begin) * n, 0,
                                 sizeof(float) * static_cast<size_t>(
                                                     (end - begin) * n));
                     MatMulRowsScalar(a, b, c, m, k, n, ta, tb,
                                      static_cast<int64_t>(begin),
                                      static_cast<int64_t>(end));
                   });
}

}  // namespace gemm

Tensor MatMul(const Tensor& a, const Tensor& b, bool transpose_a,
              bool transpose_b) {
  IMDIFF_CHECK_EQ(a.ndim(), 2u);
  IMDIFF_CHECK_EQ(b.ndim(), 2u);
  const int64_t m = transpose_a ? a.dim(1) : a.dim(0);
  const int64_t k = transpose_a ? a.dim(0) : a.dim(1);
  const int64_t kb = transpose_b ? b.dim(1) : b.dim(0);
  const int64_t n = transpose_b ? b.dim(0) : b.dim(1);
  IMDIFF_CHECK_EQ(k, kb) << "matmul inner dims" << ShapeToString(a.shape())
                         << ShapeToString(b.shape());
  Tensor c = Tensor::Uninitialized({m, n});
  gemm::MatMulInto(a.data(), b.data(), c.mutable_data(), m, k, n, transpose_a,
                   transpose_b);
  return c;
}

Tensor BatchedMatMul(const Tensor& a, const Tensor& b, bool transpose_a,
                     bool transpose_b) {
  IMDIFF_CHECK_EQ(a.ndim(), 3u);
  IMDIFF_CHECK_EQ(b.ndim(), 3u);
  IMDIFF_CHECK_EQ(a.dim(0), b.dim(0));
  const int64_t batch = a.dim(0);
  const int64_t m = transpose_a ? a.dim(2) : a.dim(1);
  const int64_t k = transpose_a ? a.dim(1) : a.dim(2);
  const int64_t kb = transpose_b ? b.dim(2) : b.dim(1);
  const int64_t n = transpose_b ? b.dim(1) : b.dim(2);
  IMDIFF_CHECK_EQ(k, kb) << "bmm inner dims" << ShapeToString(a.shape())
                         << ShapeToString(b.shape());
  Tensor c = Tensor::Uninitialized({batch, m, n});
  const int64_t a_step = a.dim(1) * a.dim(2);
  const int64_t b_step = b.dim(1) * b.dim(2);
  const int64_t c_step = m * n;
  // Batch-level parallelism; the per-batch matmul detects it is running
  // on a pool worker and computes its rows inline.
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.mutable_data();
  ParallelFor(
      ComputePool(), static_cast<size_t>(batch),
      [&](size_t idx) {
        const int64_t i = static_cast<int64_t>(idx);
        gemm::MatMulInto(pa + i * a_step, pb + i * b_step, pc + i * c_step, m,
                         k, n, transpose_a, transpose_b);
      },
      gemm::RowGrain(2 * m * k * n));
  return c;
}

Shape BroadcastShape(const Shape& a, const Shape& b) {
  const size_t nd = std::max(a.size(), b.size());
  Shape out(nd, 1);
  for (size_t i = 0; i < nd; ++i) {
    const int64_t da = i < nd - a.size() ? 1 : a[i - (nd - a.size())];
    const int64_t db = i < nd - b.size() ? 1 : b[i - (nd - b.size())];
    IMDIFF_CHECK(da == db || da == 1 || db == 1)
        << "incompatible broadcast" << ShapeToString(a) << ShapeToString(b);
    out[i] = std::max(da, db);
  }
  return out;
}

namespace {

// General (shape-mismatched) broadcasting walk; the same-shape fast paths live
// in Add/Sub/Mul/Div below on the vector kernels.
template <typename Op>
Tensor BroadcastBinary(const Tensor& a, const Tensor& b, Op op) {
  const Shape out_shape = BroadcastShape(a.shape(), b.shape());
  Tensor out = Tensor::Uninitialized(out_shape);
  const size_t nd = out_shape.size();
  // Effective strides for a and b in the output coordinate system: 0 where the
  // input dimension is broadcast.
  std::vector<int64_t> sa(nd, 0), sb(nd, 0);
  {
    const auto stra = Strides(a.shape());
    const auto strb = Strides(b.shape());
    for (size_t i = 0; i < nd; ++i) {
      if (i >= nd - a.shape().size()) {
        const size_t ai = i - (nd - a.shape().size());
        sa[i] = a.shape()[ai] == 1 ? 0 : stra[ai];
      }
      if (i >= nd - b.shape().size()) {
        const size_t bi = i - (nd - b.shape().size());
        sb[i] = b.shape()[bi] == 1 ? 0 : strb[bi];
      }
    }
  }
  std::vector<int64_t> idx(nd, 0);
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.mutable_data();
  const int64_t n = out.numel();
  int64_t off_a = 0, off_b = 0;
  for (int64_t flat = 0; flat < n; ++flat) {
    po[flat] = op(pa[off_a], pb[off_b]);
    // Increment multi-index from the last axis.
    for (size_t d = nd; d-- > 0;) {
      ++idx[d];
      off_a += sa[d];
      off_b += sb[d];
      if (idx[d] < out_shape[d]) break;
      off_a -= sa[d] * out_shape[d];
      off_b -= sb[d] * out_shape[d];
      idx[d] = 0;
    }
  }
  return out;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  if (a.shape() == b.shape()) {
    Tensor out = Tensor::Uninitialized(a.shape());
    simd::AddInto(out.mutable_data(), a.data(), b.data(), a.numel());
    return out;
  }
  return BroadcastBinary(a, b, [](float x, float y) { return x + y; });
}
Tensor Sub(const Tensor& a, const Tensor& b) {
  if (a.shape() == b.shape()) {
    Tensor out = Tensor::Uninitialized(a.shape());
    simd::SubInto(out.mutable_data(), a.data(), b.data(), a.numel());
    return out;
  }
  return BroadcastBinary(a, b, [](float x, float y) { return x - y; });
}
Tensor Mul(const Tensor& a, const Tensor& b) {
  if (a.shape() == b.shape()) {
    Tensor out = Tensor::Uninitialized(a.shape());
    simd::MulInto(out.mutable_data(), a.data(), b.data(), a.numel());
    return out;
  }
  return BroadcastBinary(a, b, [](float x, float y) { return x * y; });
}
Tensor Div(const Tensor& a, const Tensor& b) {
  if (a.shape() == b.shape()) {
    Tensor out = Tensor::Uninitialized(a.shape());
    simd::DivInto(out.mutable_data(), a.data(), b.data(), a.numel());
    return out;
  }
  return BroadcastBinary(a, b, [](float x, float y) { return x / y; });
}

Tensor ReduceToShape(const Tensor& t, const Shape& target) {
  if (t.shape() == target) return t;
  // Align target to t's rank with leading 1s, sum over broadcast axes.
  const size_t nd = t.ndim();
  Shape aligned(nd, 1);
  for (size_t i = 0; i < target.size(); ++i) {
    aligned[nd - target.size() + i] = target[i];
  }
  Tensor out = t;
  for (size_t axis = 0; axis < nd; ++axis) {
    if (aligned[axis] == 1 && out.dim(axis) != 1) {
      out = ReduceSumAxis(out, axis, /*keepdim=*/true);
    }
  }
  return out.Reshape(target);
}

Tensor Scale(const Tensor& a, float s) {
  Tensor out = Tensor::Uninitialized(a.shape());
  simd::ScaleInto(out.mutable_data(), a.data(), s, a.numel());
  return out;
}

Tensor AddScalar(const Tensor& a, float s) {
  Tensor out = Tensor::Uninitialized(a.shape());
  simd::AddScalarInto(out.mutable_data(), a.data(), s, a.numel());
  return out;
}

Tensor Map(const Tensor& a, const std::function<float(float)>& f) {
  Tensor out = Tensor::Uninitialized(a.shape());
  const float* pa = a.data();
  float* po = out.mutable_data();
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) po[i] = f(pa[i]);
  return out;
}

namespace {

// Parallel elementwise dispatch for the fused activation kernels. The simd
// kernels are position-independent (scalar tails replicate the lane
// arithmetic), so splitting the flat range at arbitrary points is bitwise
// safe.
template <typename Kernel>
Tensor ElementwiseUnary(const Tensor& x, Kernel kernel) {
  Tensor out = Tensor::Uninitialized(x.shape());
  const float* px = x.data();
  float* po = out.mutable_data();
  ParallelForRange(ComputePool(), static_cast<size_t>(x.numel()),
                   kElementGrain, [&](size_t begin, size_t end) {
                     kernel(po + begin, px + begin,
                            static_cast<int64_t>(end - begin));
                   });
  return out;
}

template <typename Kernel>
Tensor ElementwiseUnaryGrad(const Tensor& x, const Tensor& grad,
                            Kernel kernel) {
  IMDIFF_CHECK(x.shape() == grad.shape());
  Tensor out = Tensor::Uninitialized(x.shape());
  const float* px = x.data();
  const float* pg = grad.data();
  float* po = out.mutable_data();
  ParallelForRange(ComputePool(), static_cast<size_t>(x.numel()),
                   kElementGrain, [&](size_t begin, size_t end) {
                     kernel(po + begin, px + begin, pg + begin,
                            static_cast<int64_t>(end - begin));
                   });
  return out;
}

}  // namespace

Tensor GeluForward(const Tensor& x) {
  return ElementwiseUnary(x, [](float* o, const float* p, int64_t n) {
    simd::GeluInto(o, p, n);
  });
}

Tensor GeluBackward(const Tensor& x, const Tensor& grad) {
  return ElementwiseUnaryGrad(
      x, grad, [](float* o, const float* p, const float* g, int64_t n) {
        simd::GeluGradInto(o, p, g, n);
      });
}

Tensor SiluForward(const Tensor& x) {
  return ElementwiseUnary(x, [](float* o, const float* p, int64_t n) {
    simd::SiluInto(o, p, n);
  });
}

Tensor SiluBackward(const Tensor& x, const Tensor& grad) {
  return ElementwiseUnaryGrad(
      x, grad, [](float* o, const float* p, const float* g, int64_t n) {
        simd::SiluGradInto(o, p, g, n);
      });
}

Tensor TanhForward(const Tensor& x) {
  return ElementwiseUnary(x, [](float* o, const float* p, int64_t n) {
    simd::TanhInto(o, p, n);
  });
}

Tensor SigmoidForward(const Tensor& x) {
  return ElementwiseUnary(x, [](float* o, const float* p, int64_t n) {
    simd::SigmoidInto(o, p, n);
  });
}

Tensor GateForward(const Tensor& fg) {
  IMDIFF_CHECK_GE(fg.ndim(), 1u);
  const int64_t two_d = fg.dim(fg.ndim() - 1);
  IMDIFF_CHECK(two_d % 2 == 0) << "gate input last dim must be even, got"
                               << two_d;
  const int64_t d = two_d / 2;
  const int64_t rows = d > 0 ? fg.numel() / two_d : 0;
  Shape shape = fg.shape();
  shape.back() = d;
  Tensor out = Tensor::Uninitialized(shape);
  const float* pfg = fg.data();
  float* po = out.mutable_data();
  // The row kernels are position-independent, so the row partition cannot
  // affect results.
  ParallelForRange(ComputePool(), static_cast<size_t>(rows), RowGrain(8 * d),
                   [&](size_t begin, size_t end) {
                     const auto r0 = static_cast<int64_t>(begin);
                     simd::GateRowsInto(po + r0 * d, pfg + r0 * two_d,
                                        static_cast<int64_t>(end) - r0, d);
                   });
  return out;
}

Tensor GateBackward(const Tensor& fg, const Tensor& grad) {
  const int64_t two_d = fg.dim(fg.ndim() - 1);
  const int64_t d = two_d / 2;
  const int64_t rows = d > 0 ? fg.numel() / two_d : 0;
  IMDIFF_CHECK_EQ(grad.numel(), rows * d);
  Tensor out = Tensor::Uninitialized(fg.shape());
  const float* pfg = fg.data();
  const float* pg = grad.data();
  float* po = out.mutable_data();
  ParallelForRange(ComputePool(), static_cast<size_t>(rows), RowGrain(8 * d),
                   [&](size_t begin, size_t end) {
                     const auto r0 = static_cast<int64_t>(begin);
                     simd::GateGradRowsInto(po + r0 * two_d, pfg + r0 * two_d,
                                            pg + r0 * d,
                                            static_cast<int64_t>(end) - r0, d);
                   });
  return out;
}

void LayerNormForward(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                      float eps, Tensor* y, Tensor* xhat, Tensor* inv_std) {
  IMDIFF_CHECK_GE(x.ndim(), 1u);
  const int64_t last = x.dim(x.ndim() - 1);
  IMDIFF_CHECK_EQ(gamma.numel(), last);
  IMDIFF_CHECK_EQ(beta.numel(), last);
  const int64_t rows = last > 0 ? x.numel() / last : 0;
  *y = Tensor::Uninitialized(x.shape());
  *xhat = Tensor::Uninitialized(x.shape());
  *inv_std = Tensor::Uninitialized({rows});
  const float* px = x.data();
  const float* pg = gamma.data();
  const float* pb = beta.data();
  float* py = y->mutable_data();
  float* ph = xhat->mutable_data();
  float* ps = inv_std->mutable_data();
  const float inv_n = 1.0f / static_cast<float>(last);
  // Row-local: every value a row produces is a function of that row alone, so
  // the row partition cannot affect results.
  ParallelForRange(
      ComputePool(), static_cast<size_t>(rows), RowGrain(8 * last),
      [&](size_t begin, size_t end) {
        for (int64_t r = static_cast<int64_t>(begin);
             r < static_cast<int64_t>(end); ++r) {
          const float* row = px + r * last;
          const float mean = simd::Sum(row, last) * inv_n;
          const float var = simd::SqDiffSum(row, mean, last) * inv_n;
          const float is = 1.0f / std::sqrt(var + eps);
          float* hrow = ph + r * last;
          simd::ScaledDiffInto(hrow, row, mean, is, last);
          simd::FmaInto(py + r * last, hrow, pg, pb, last);
          ps[r] = is;
        }
      });
}

Tensor Permute(const Tensor& t, const std::vector<size_t>& perm) {
  IMDIFF_CHECK_EQ(perm.size(), t.ndim());
  const size_t nd = t.ndim();
  Shape out_shape(nd);
  for (size_t i = 0; i < nd; ++i) out_shape[i] = t.dim(perm[i]);
  Tensor out = Tensor::Uninitialized(out_shape);
  const auto in_strides = Strides(t.shape());
  // Stride of the output's i-th axis inside the input buffer.
  std::vector<int64_t> gather(nd);
  for (size_t i = 0; i < nd; ++i) gather[i] = in_strides[perm[i]];
  std::vector<int64_t> idx(nd, 0);
  const float* pin = t.data();
  float* pout = out.mutable_data();
  const int64_t n = t.numel();
  int64_t off = 0;
  for (int64_t flat = 0; flat < n; ++flat) {
    pout[flat] = pin[off];
    for (size_t d = nd; d-- > 0;) {
      ++idx[d];
      off += gather[d];
      if (idx[d] < out_shape[d]) break;
      off -= gather[d] * out_shape[d];
      idx[d] = 0;
    }
  }
  return out;
}

Tensor Concat(const std::vector<Tensor>& parts, size_t axis) {
  IMDIFF_CHECK(!parts.empty());
  const size_t nd = parts[0].ndim();
  IMDIFF_CHECK_LT(axis, nd);
  Shape out_shape = parts[0].shape();
  out_shape[axis] = 0;
  for (const Tensor& p : parts) {
    IMDIFF_CHECK_EQ(p.ndim(), nd);
    for (size_t d = 0; d < nd; ++d) {
      if (d != axis) {
        IMDIFF_CHECK_EQ(p.dim(d), parts[0].dim(d));
      }
    }
    out_shape[axis] += p.dim(axis);
  }
  Tensor out = Tensor::Uninitialized(out_shape);
  // outer: product of dims before axis; inner: product after.
  int64_t outer = 1, inner = 1;
  for (size_t d = 0; d < axis; ++d) outer *= out_shape[d];
  for (size_t d = axis + 1; d < nd; ++d) inner *= out_shape[d];
  float* po = out.mutable_data();
  const int64_t out_row = out_shape[axis] * inner;
  int64_t offset = 0;
  for (const Tensor& p : parts) {
    const int64_t p_row = p.dim(axis) * inner;
    const float* pp = p.data();
    for (int64_t o = 0; o < outer; ++o) {
      std::memcpy(po + o * out_row + offset, pp + o * p_row,
                  sizeof(float) * static_cast<size_t>(p_row));
    }
    offset += p_row;
  }
  return out;
}

Tensor Slice(const Tensor& t, size_t axis, int64_t start, int64_t len) {
  IMDIFF_CHECK_LT(axis, t.ndim());
  IMDIFF_CHECK_GE(start, 0);
  IMDIFF_CHECK_LE(start + len, t.dim(axis));
  Shape out_shape = t.shape();
  out_shape[axis] = len;
  Tensor out = Tensor::Uninitialized(out_shape);
  int64_t outer = 1, inner = 1;
  for (size_t d = 0; d < axis; ++d) outer *= t.dim(d);
  for (size_t d = axis + 1; d < t.ndim(); ++d) inner *= t.dim(d);
  const int64_t in_row = t.dim(axis) * inner;
  const int64_t out_row = len * inner;
  const float* pin = t.data();
  float* pout = out.mutable_data();
  for (int64_t o = 0; o < outer; ++o) {
    std::memcpy(pout + o * out_row, pin + o * in_row + start * inner,
                sizeof(float) * static_cast<size_t>(out_row));
  }
  return out;
}

Tensor SliceBackward(const Tensor& grad, const Shape& full_shape, size_t axis,
                     int64_t start) {
  // Needs the zero fill: only the [start, start+len) band is written.
  Tensor out(full_shape);
  int64_t outer = 1, inner = 1;
  for (size_t d = 0; d < axis; ++d) outer *= full_shape[d];
  for (size_t d = axis + 1; d < full_shape.size(); ++d) inner *= full_shape[d];
  const int64_t len = grad.dim(axis);
  const int64_t out_row = full_shape[axis] * inner;
  const int64_t g_row = len * inner;
  const float* pg = grad.data();
  float* po = out.mutable_data();
  for (int64_t o = 0; o < outer; ++o) {
    std::memcpy(po + o * out_row + start * inner, pg + o * g_row,
                sizeof(float) * static_cast<size_t>(g_row));
  }
  return out;
}

Tensor SoftmaxLastDim(const Tensor& t) {
  IMDIFF_CHECK_GE(t.ndim(), 1u);
  const int64_t last = t.dim(t.ndim() - 1);
  const int64_t rows = t.numel() / last;
  Tensor out = Tensor::Uninitialized(t.shape());
  const float* pin = t.data();
  float* pout = out.mutable_data();
  // Fused max / exp+sum / scale passes on the vector kernels; row-local, so
  // results are independent of the row partition and of where a row sits in
  // the batch.
  ParallelForRange(ComputePool(), static_cast<size_t>(rows), RowGrain(8 * last),
                   [&](size_t begin, size_t end) {
                     for (int64_t r = static_cast<int64_t>(begin);
                          r < static_cast<int64_t>(end); ++r) {
                       const float* row = pin + r * last;
                       float* orow = pout + r * last;
                       const float mx = simd::MaxReduce(row, last);
                       const float sum = simd::ExpSumInto(orow, row, mx, last);
                       simd::ScaleInPlace(orow, 1.0f / sum, last);
                     }
                   });
  return out;
}

Tensor ReduceSumAxis(const Tensor& t, size_t axis, bool keepdim) {
  IMDIFF_CHECK_LT(axis, t.ndim());
  int64_t outer = 1, inner = 1;
  for (size_t d = 0; d < axis; ++d) outer *= t.dim(d);
  for (size_t d = axis + 1; d < t.ndim(); ++d) inner *= t.dim(d);
  const int64_t reduce = t.dim(axis);
  Shape out_shape = t.shape();
  if (keepdim) {
    out_shape[axis] = 1;
  } else {
    out_shape.erase(out_shape.begin() + static_cast<int64_t>(axis));
    if (out_shape.empty()) out_shape = {1};
  }
  // Accumulates into the zero fill; element order matches the scalar original
  // (vector adds are lane-independent), so results are unchanged.
  Tensor out(out_shape);
  const float* pin = t.data();
  float* pout = out.mutable_data();
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t r = 0; r < reduce; ++r) {
      const float* src = pin + (o * reduce + r) * inner;
      float* dst = pout + o * inner;
      simd::AddInPlace(dst, src, inner);
    }
  }
  return out;
}

double SumAll(const Tensor& t) {
  double acc = 0.0;
  const float* p = t.data();
  const int64_t n = t.numel();
  for (int64_t i = 0; i < n; ++i) acc += p[i];
  return acc;
}

double MeanAll(const Tensor& t) {
  IMDIFF_CHECK_GT(t.numel(), 0);
  return SumAll(t) / static_cast<double>(t.numel());
}

Tensor Conv1d(const Tensor& x, const Tensor& w, const Tensor& bias, int pad) {
  IMDIFF_CHECK_EQ(x.ndim(), 3u);
  IMDIFF_CHECK_EQ(w.ndim(), 3u);
  const int64_t batch = x.dim(0), cin = x.dim(1), length = x.dim(2);
  const int64_t cout = w.dim(0), kernel = w.dim(2);
  IMDIFF_CHECK_EQ(w.dim(1), cin);
  const int64_t lout = length + 2 * pad - kernel + 1;
  IMDIFF_CHECK_GT(lout, 0);
  Tensor y = Tensor::Uninitialized({batch, cout, lout});
  const float* px = x.data();
  const float* pw = w.data();
  float* py = y.mutable_data();
  const bool has_bias = bias.numel() > 0;
  if (has_bias) IMDIFF_CHECK_EQ(bias.numel(), cout);
  const float* pb = has_bias ? bias.data() : nullptr;
  // Each batch element writes its own [cout, lout] output block, so the batch
  // loop parallelizes with bitwise-identical results for any thread count.
  ParallelFor(
      ComputePool(), static_cast<size_t>(batch),
      [&](size_t idx) {
        const int64_t b = static_cast<int64_t>(idx);
        for (int64_t co = 0; co < cout; ++co) {
          float* yrow = py + (b * cout + co) * lout;
          if (has_bias) {
            const float bv = pb[co];
            for (int64_t l = 0; l < lout; ++l) yrow[l] = bv;
          } else {
            std::memset(yrow, 0, sizeof(float) * static_cast<size_t>(lout));
          }
          for (int64_t ci = 0; ci < cin; ++ci) {
            const float* xrow = px + (b * cin + ci) * length;
            const float* wrow = pw + (co * cin + ci) * kernel;
            for (int64_t kk = 0; kk < kernel; ++kk) {
              const float wv = wrow[kk];
              if (wv == 0.0f) continue;
              const int64_t in_off = kk - pad;
              const int64_t l_lo = std::max<int64_t>(0, -in_off);
              const int64_t l_hi = std::min<int64_t>(lout, length - in_off);
              simd::Axpy(wv, xrow + l_lo + in_off, yrow + l_lo, l_hi - l_lo);
            }
          }
        }
      },
      RowGrain(2 * cout * cin * kernel * lout));
  return y;
}

void Conv1dBackward(const Tensor& x, const Tensor& w, int pad,
                    const Tensor& grad_out, Tensor* grad_x, Tensor* grad_w,
                    Tensor* grad_bias) {
  const int64_t batch = x.dim(0), cin = x.dim(1), length = x.dim(2);
  const int64_t cout = w.dim(0), kernel = w.dim(2);
  const int64_t lout = grad_out.dim(2);
  const float* px = x.data();
  const float* pw = w.data();
  const float* pg = grad_out.data();
  // Gradient buffers keep the zeroing constructor: they are scatter-accumulated.
  if (grad_bias != nullptr) {
    *grad_bias = Tensor({cout});
    float* pb = grad_bias->mutable_data();
    for (int64_t b = 0; b < batch; ++b)
      for (int64_t co = 0; co < cout; ++co) {
        const float* grow = pg + (b * cout + co) * lout;
        pb[co] += simd::Sum(grow, lout);
      }
  }
  if (grad_w != nullptr) {
    *grad_w = Tensor(w.shape());
    float* pgw = grad_w->mutable_data();
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t co = 0; co < cout; ++co) {
        const float* grow = pg + (b * cout + co) * lout;
        for (int64_t ci = 0; ci < cin; ++ci) {
          const float* xrow = px + (b * cin + ci) * length;
          float* wrow = pgw + (co * cin + ci) * kernel;
          for (int64_t kk = 0; kk < kernel; ++kk) {
            const int64_t in_off = kk - pad;
            const int64_t l_lo = std::max<int64_t>(0, -in_off);
            const int64_t l_hi = std::min<int64_t>(lout, length - in_off);
            wrow[kk] +=
                simd::Dot(grow + l_lo, xrow + l_lo + in_off, l_hi - l_lo);
          }
        }
      }
    }
  }
  if (grad_x != nullptr) {
    *grad_x = Tensor(x.shape());
    float* pgx = grad_x->mutable_data();
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t co = 0; co < cout; ++co) {
        const float* grow = pg + (b * cout + co) * lout;
        for (int64_t ci = 0; ci < cin; ++ci) {
          float* xrow = pgx + (b * cin + ci) * length;
          const float* wrow = pw + (co * cin + ci) * kernel;
          for (int64_t kk = 0; kk < kernel; ++kk) {
            const float wv = wrow[kk];
            if (wv == 0.0f) continue;
            const int64_t in_off = kk - pad;
            const int64_t l_lo = std::max<int64_t>(0, -in_off);
            const int64_t l_hi = std::min<int64_t>(lout, length - in_off);
            simd::Axpy(wv, grow + l_lo, xrow + l_lo + in_off, l_hi - l_lo);
          }
        }
      }
    }
  }
}

}  // namespace imdiff
