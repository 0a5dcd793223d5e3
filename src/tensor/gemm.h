// Exported GEMM kernels for the inference graph executor (src/graph).
//
// These are the exact kernels compiled behind MatMul/BatchedMatMul in
// tensor_ops.cc — not reimplementations. The executor calls them directly so
// captured graphs produce bit-identical floats to the layer stack: a given
// output element's FMA sequence depends only on (m, k, n) and the element's
// inputs, never on row grouping or whether the b operand was packed per-call
// or prepacked at capture (packing is pure data movement). What the executor
// adds is memory control: caller-provided scratch and capture-time weight
// prepacking, so steady-state scoring issues zero arena free-list requests.
// Every kernel here runs serially on its calling thread; parallelism lives
// one level up, in the window chunks of detector scoring.

#ifndef IMDIFF_TENSOR_GEMM_H_
#define IMDIFF_TENSOR_GEMM_H_

#include <cstddef>
#include <cstdint>

#include "tensor/simd.h"

namespace imdiff {
namespace gemm {

// Rows of the a operand the vector microkernel processes per call.
constexpr int64_t kMR = 4;

// Scalar reference kernel: rows [row_begin, row_end) of c += a * b with the
// four transpose layouts handled directly. Accumulates — the caller must
// zero exactly the c rows it passes. This is the generic-build and
// IMDIFF_FORCE_SCALAR code path.
void MatMulRowsScalar(const float* a, const float* b, float* c, int64_t m,
                      int64_t k, int64_t n, bool ta, bool tb,
                      int64_t row_begin, int64_t row_end);

#if defined(IMDIFF_SIMD_ANY)

// Columns per packed b panel: two vector registers wide.
constexpr int64_t kNRVec = 2 * simd::kVectorWidth;

// Floats of scratch one [k, kNRVec] b panel needs.
inline size_t PanelFloats(int64_t k) {
  return static_cast<size_t>(k) * static_cast<size_t>(kNRVec);
}

// Packed vector kernel for rows [row_begin, row_end) of c = a * b, with the
// panel scratch supplied by the caller instead of drawn from the arena:
// `bpack` must hold PanelFloats(k) floats; `apack` must hold
// (row_end - row_begin) * k floats when `ta` is set (may be null otherwise).
// Every element of the covered rows is stored exactly once (c may arrive
// uninitialized). Bitwise identical to the arena-scratch path inside MatMul.
void GemmRowsPackedScratch(const float* a, const float* b, float* c, int64_t m,
                           int64_t k, int64_t n, bool ta, bool tb,
                           int64_t row_begin, int64_t row_end, float* bpack,
                           float* apack);

// Capture-time full pack of a logical [k, n] b operand (tb: stored [n, k])
// into ceil(n / kNRVec) consecutive zero-padded [k, kNRVec] panels —
// PackedBFloats(k, n) floats. Pure data movement: feeding the packed panels
// to GemmRowsPrepacked reproduces the per-panel packing bitwise.
inline size_t PackedBFloats(int64_t k, int64_t n) {
  return static_cast<size_t>((n + kNRVec - 1) / kNRVec) * PanelFloats(k);
}
void PackBFull(const float* b, int64_t k, int64_t n, bool tb, float* packed);

// What a GEMM does with each finished output element v = sum_p a * b before
// its single store, in this order: v = v + bias[j] (when bias is set), then
// v = v > 0 ? v : 0 (when relu), then c = c_old + v (when accumulate; else
// c = v). These are the IEEE operations of the separate bias, ReLU and
// residual row passes (AddInto, the ReLU loop, AddInPlace) in the same order,
// so the fused result is bitwise identical to running those passes after a
// plain GEMM; only the round trip through memory is gone.
struct Epilogue {
  const float* bias = nullptr;  // [n], or null for no bias
  bool relu = false;
  bool accumulate = false;
};

// Rows [row_begin, row_end) of c = epilogue(a * packed_b) with b prepacked
// by PackBFull. `a` must be the non-transposed [m, k] layout (the executor's
// activations always are). Zero scratch, zero packing work per call; the
// epilogue runs in registers and each covered element is stored once.
void GemmRowsPrepacked(const float* a, const float* packed_b, float* c,
                       int64_t m, int64_t k, int64_t n, int64_t row_begin,
                       int64_t row_end, const Epilogue& epilogue = {});

#endif  // IMDIFF_SIMD_ANY

// Full 2D matmul into caller memory with the exact dispatch of MatMul
// (tensor_ops.cc): packed vector kernel when simd::Enabled(), scalar
// reference otherwise. One serial pass on the calling thread; c may arrive
// uninitialized.
void MatMulInto(const float* a, const float* b, float* c, int64_t m, int64_t k,
                int64_t n, bool ta, bool tb);

}  // namespace gemm
}  // namespace imdiff

#endif  // IMDIFF_TENSOR_GEMM_H_
