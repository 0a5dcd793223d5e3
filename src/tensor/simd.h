// Portable SIMD layer for the float32 kernels in src/tensor and src/nn.
//
// The instruction set is selected at compile time: AVX-512F when the compiler
// targets it, else AVX2+FMA (e.g. -march=native on x86), NEON on aarch64, and
// a plain scalar path otherwise. Every kernel also carries a runtime scalar fallback,
// reachable two ways:
//   - IMDIFF_FORCE_SCALAR=1 in the environment (read once, cached), or
//   - simd::SetForceScalar(true) from tests.
// The fallback exists so vectorized results can always be diffed against a
// reference on the same binary (see tests/simd_test.cc) and so the generic
// (-march-less) build path never rots.
//
// Determinism contract (DESIGN.md §12): a kernel's result for one element
// must depend only on that element's inputs, never on where the element lands
// relative to a vector-lane boundary. Elementwise kernels therefore process
// remainder tails with a scalar replica of the *same* arithmetic the vector
// lanes perform (same polynomial, same fused-multiply-add shape), which keeps
// serving-path scores bitwise independent of batch composition. Transcendental
// kernels (exp/tanh-family) use our own polynomial in both the vector body and
// the scalar tail, not libm, for the same reason. Reductions (Sum, Dot,
// MaxReduce) use a fixed lane-strided order that depends only on the length.
//
// FMA and the changed reduction orders mean results may drift from the old
// scalar kernels within float tolerance; bitwise reproducibility is only
// promised within one build configuration (see the numerics policy in
// DESIGN.md §12).

#ifndef IMDIFF_TENSOR_SIMD_H_
#define IMDIFF_TENSOR_SIMD_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#if defined(__AVX512F__)
#define IMDIFF_SIMD_AVX512 1
// GCC 12 flags the undefined-passthrough arg inside the no-mask avx512
// intrinsics (bug 105593); the pragma scopes the suppression to that header.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#else
#include <immintrin.h>
#endif
#elif defined(__AVX2__) && defined(__FMA__)
#define IMDIFF_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__ARM_NEON)
#define IMDIFF_SIMD_NEON 1
#include <arm_neon.h>
#endif

#if defined(IMDIFF_SIMD_AVX512) || defined(IMDIFF_SIMD_AVX2) || \
    defined(IMDIFF_SIMD_NEON)
#define IMDIFF_SIMD_ANY 1
#endif

namespace imdiff {
namespace simd {

// ---- Configuration ---------------------------------------------------------

#if defined(IMDIFF_SIMD_AVX512)
inline constexpr int kVectorWidth = 16;
#elif defined(IMDIFF_SIMD_AVX2)
inline constexpr int kVectorWidth = 8;
#elif defined(IMDIFF_SIMD_NEON)
inline constexpr int kVectorWidth = 4;
#else
inline constexpr int kVectorWidth = 1;
#endif

inline const char* IsaName() {
#if defined(IMDIFF_SIMD_AVX512)
  return "avx512f";
#elif defined(IMDIFF_SIMD_AVX2)
  return "avx2-fma";
#elif defined(IMDIFF_SIMD_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

namespace detail {
inline std::atomic<int>& ForceScalarFlag() {
  static std::atomic<int> flag{-1};  // -1: environment not consulted yet
  return flag;
}
}  // namespace detail

// True when the scalar fallback is active, either via the IMDIFF_FORCE_SCALAR
// environment variable (read once) or SetForceScalar.
inline bool ForceScalar() {
  int v = detail::ForceScalarFlag().load(std::memory_order_relaxed);
  if (v < 0) {
    const char* e = std::getenv("IMDIFF_FORCE_SCALAR");
    v = (e != nullptr && e[0] != '\0' && std::strcmp(e, "0") != 0) ? 1 : 0;
    detail::ForceScalarFlag().store(v, std::memory_order_relaxed);
  }
  return v == 1;
}

// Runtime override for tests and benchmarks; wins over the environment.
inline void SetForceScalar(bool on) {
  detail::ForceScalarFlag().store(on ? 1 : 0, std::memory_order_relaxed);
}

// True when a vectorized body should run (ISA compiled in and not overridden).
inline bool Enabled() {
#if defined(IMDIFF_SIMD_ANY)
  return !ForceScalar();
#else
  return false;
#endif
}

// ---- Scalar building blocks -------------------------------------------------
//
// Madd is the scalar replica of a vector fused-multiply-add lane: on FMA
// hardware it compiles to a scalar fma instruction, so remainder tails produce
// bit-identical values to the vector body. Without FMA there is no vector
// body, so the unfused form is consistent by construction.

inline float Madd(float a, float b, float c) {
#if defined(__FMA__) || defined(__AVX512F__) || defined(__ARM_FEATURE_FMA) || \
    defined(IMDIFF_SIMD_NEON)
  return __builtin_fmaf(a, b, c);
#else
  return a * b + c;
#endif
}

// Cephes-style expf: identical constants and operation shape in the scalar and
// vector implementations, so exp(x) is a pure function of x regardless of
// which body computed it. Max relative error ~2e-7 over the clamped range.
namespace detail {
inline constexpr float kExpHi = 88.3762626647950f;
inline constexpr float kExpLo = -87.3365478515625f;
inline constexpr float kLog2e = 1.44269504088896341f;
inline constexpr float kExpC1 = 0.693359375f;
inline constexpr float kExpC2 = -2.12194440e-4f;
inline constexpr float kExpP0 = 1.9875691500e-4f;
inline constexpr float kExpP1 = 1.3981999507e-3f;
inline constexpr float kExpP2 = 8.3334519073e-3f;
inline constexpr float kExpP3 = 4.1665795894e-2f;
inline constexpr float kExpP4 = 1.6666665459e-1f;
inline constexpr float kExpP5 = 5.0000001201e-1f;
}  // namespace detail

inline float ExpScalar(float x) {
  using namespace detail;
  x = x > kExpHi ? kExpHi : x;
  x = x < kExpLo ? kExpLo : x;
  const float fx = std::floor(Madd(x, kLog2e, 0.5f));
  x = Madd(fx, -kExpC1, x);
  x = Madd(fx, -kExpC2, x);
  float y = kExpP0;
  y = Madd(y, x, kExpP1);
  y = Madd(y, x, kExpP2);
  y = Madd(y, x, kExpP3);
  y = Madd(y, x, kExpP4);
  y = Madd(y, x, kExpP5);
  y = Madd(y, x * x, x + 1.0f);
  // y * 2^fx via exponent-bit arithmetic (fx is integral in [-126, 127]).
  const int32_t e = (static_cast<int32_t>(fx) + 127) << 23;
  float pow2;
  std::memcpy(&pow2, &e, sizeof(pow2));
  return y * pow2;
}

// tanh via the exp kernel: 1 - 2 / (exp(2x) + 1). Saturates cleanly because
// ExpScalar clamps its argument.
inline float TanhScalar(float x) {
  return 1.0f - 2.0f / (ExpScalar(2.0f * x) + 1.0f);
}

inline float SigmoidScalar(float x) {
  return 1.0f / (1.0f + ExpScalar(-x));
}

inline constexpr float kGeluCoef = 0.7978845608028654f;  // sqrt(2/pi)
inline constexpr float kGeluCubic = 0.044715f;

// The cubic term is kGeluCubic * (x * x), associated exactly as in VGelu /
// VGeluGrad, so a scalar tail rounds like a vector lane.
inline float GeluScalar(float x) {
  const float inner = kGeluCoef * Madd(kGeluCubic * (x * x), x, x);
  return 0.5f * x * (1.0f + TanhScalar(inner));
}

inline float GeluGradScalar(float x) {
  const float inner = kGeluCoef * Madd(kGeluCubic * (x * x), x, x);
  const float t = TanhScalar(inner);
  const float dinner = kGeluCoef * Madd(3.0f * kGeluCubic * x, x, 1.0f);
  return Madd(0.5f * x * (1.0f - t * t), dinner, 0.5f * (1.0f + t));
}

inline float SiluScalar(float x) { return x * SigmoidScalar(x); }

inline float SiluGradScalar(float x) {
  const float s = SigmoidScalar(x);
  return s * Madd(x, 1.0f - s, 1.0f);
}

// DiffWave gated activation tanh(f) * sigmoid(g), and its gradients for an
// incoming grad gr: df = (gr * s) * (1 - t^2), dg = (gr * t) * (s * (1 - s)).
inline float GateScalar(float f, float g) {
  return TanhScalar(f) * SigmoidScalar(g);
}

inline void GateGradScalar(float f, float g, float gr, float* df, float* dg) {
  const float t = TanhScalar(f);
  const float s = SigmoidScalar(g);
  *df = (gr * s) * (1.0f - t * t);
  *dg = (gr * t) * (s * (1.0f - s));
}

// ---- Vector type ------------------------------------------------------------

#if defined(IMDIFF_SIMD_AVX512)

using VecF = __m512;
inline VecF VLoad(const float* p) { return _mm512_loadu_ps(p); }
inline void VStore(float* p, VecF v) { _mm512_storeu_ps(p, v); }
inline VecF VSet1(float s) { return _mm512_set1_ps(s); }
inline VecF VZero() { return _mm512_setzero_ps(); }
inline VecF VAdd(VecF a, VecF b) { return _mm512_add_ps(a, b); }
inline VecF VSub(VecF a, VecF b) { return _mm512_sub_ps(a, b); }
inline VecF VMul(VecF a, VecF b) { return _mm512_mul_ps(a, b); }
inline VecF VDiv(VecF a, VecF b) { return _mm512_div_ps(a, b); }
inline VecF VMax(VecF a, VecF b) { return _mm512_max_ps(a, b); }
inline VecF VMin(VecF a, VecF b) { return _mm512_min_ps(a, b); }
// a*b + c, single rounding.
inline VecF VFma(VecF a, VecF b, VecF c) { return _mm512_fmadd_ps(a, b, c); }
inline VecF VFloor(VecF a) {
  return _mm512_roundscale_ps(a, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
}

// extractf64x4 + cast instead of extractf32x8 keeps this AVX512F-only (no DQ).
inline __m256 VLow256(VecF v) { return _mm512_castps512_ps256(v); }
inline __m256 VHigh256(VecF v) {
  return _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(v), 1));
}

inline float VHsum(VecF v) {
  const __m256 h = _mm256_add_ps(VLow256(v), VHigh256(v));
  const __m128 lo = _mm256_castps256_ps128(h);
  const __m128 hi = _mm256_extractf128_ps(h, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

inline float VHmax(VecF v) {
  const __m256 h = _mm256_max_ps(VLow256(v), VHigh256(v));
  const __m128 lo = _mm256_castps256_ps128(h);
  const __m128 hi = _mm256_extractf128_ps(h, 1);
  __m128 m = _mm_max_ps(lo, hi);
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
  return _mm_cvtss_f32(m);
}

// Vector exp: same constants/shape as ExpScalar.
inline VecF VExp(VecF x) {
  using namespace detail;
  x = VMin(x, VSet1(kExpHi));
  x = VMax(x, VSet1(kExpLo));
  const VecF fx = VFloor(VFma(x, VSet1(kLog2e), VSet1(0.5f)));
  x = VFma(fx, VSet1(-kExpC1), x);
  x = VFma(fx, VSet1(-kExpC2), x);
  VecF y = VSet1(kExpP0);
  y = VFma(y, x, VSet1(kExpP1));
  y = VFma(y, x, VSet1(kExpP2));
  y = VFma(y, x, VSet1(kExpP3));
  y = VFma(y, x, VSet1(kExpP4));
  y = VFma(y, x, VSet1(kExpP5));
  y = VFma(y, VMul(x, x), VAdd(x, VSet1(1.0f)));
  const __m512i e =
      _mm512_slli_epi32(_mm512_add_epi32(_mm512_cvtps_epi32(fx),
                                         _mm512_set1_epi32(127)),
                        23);
  return VMul(y, _mm512_castsi512_ps(e));
}

#elif defined(IMDIFF_SIMD_AVX2)

using VecF = __m256;
inline VecF VLoad(const float* p) { return _mm256_loadu_ps(p); }
inline void VStore(float* p, VecF v) { _mm256_storeu_ps(p, v); }
inline VecF VSet1(float s) { return _mm256_set1_ps(s); }
inline VecF VZero() { return _mm256_setzero_ps(); }
inline VecF VAdd(VecF a, VecF b) { return _mm256_add_ps(a, b); }
inline VecF VSub(VecF a, VecF b) { return _mm256_sub_ps(a, b); }
inline VecF VMul(VecF a, VecF b) { return _mm256_mul_ps(a, b); }
inline VecF VDiv(VecF a, VecF b) { return _mm256_div_ps(a, b); }
inline VecF VMax(VecF a, VecF b) { return _mm256_max_ps(a, b); }
inline VecF VMin(VecF a, VecF b) { return _mm256_min_ps(a, b); }
// a*b + c, single rounding.
inline VecF VFma(VecF a, VecF b, VecF c) { return _mm256_fmadd_ps(a, b, c); }
inline VecF VFloor(VecF a) { return _mm256_floor_ps(a); }

inline float VHsum(VecF v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

inline float VHmax(VecF v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 m = _mm_max_ps(lo, hi);
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
  return _mm_cvtss_f32(m);
}

// Vector exp: same constants/shape as ExpScalar.
inline VecF VExp(VecF x) {
  using namespace detail;
  x = VMin(x, VSet1(kExpHi));
  x = VMax(x, VSet1(kExpLo));
  const VecF fx = VFloor(VFma(x, VSet1(kLog2e), VSet1(0.5f)));
  x = VFma(fx, VSet1(-kExpC1), x);
  x = VFma(fx, VSet1(-kExpC2), x);
  VecF y = VSet1(kExpP0);
  y = VFma(y, x, VSet1(kExpP1));
  y = VFma(y, x, VSet1(kExpP2));
  y = VFma(y, x, VSet1(kExpP3));
  y = VFma(y, x, VSet1(kExpP4));
  y = VFma(y, x, VSet1(kExpP5));
  y = VFma(y, VMul(x, x), VAdd(x, VSet1(1.0f)));
  const __m256i e =
      _mm256_slli_epi32(_mm256_add_epi32(_mm256_cvtps_epi32(fx),
                                         _mm256_set1_epi32(127)),
                        23);
  return VMul(y, _mm256_castsi256_ps(e));
}

#elif defined(IMDIFF_SIMD_NEON)

using VecF = float32x4_t;
inline VecF VLoad(const float* p) { return vld1q_f32(p); }
inline void VStore(float* p, VecF v) { vst1q_f32(p, v); }
inline VecF VSet1(float s) { return vdupq_n_f32(s); }
inline VecF VZero() { return vdupq_n_f32(0.0f); }
inline VecF VAdd(VecF a, VecF b) { return vaddq_f32(a, b); }
inline VecF VSub(VecF a, VecF b) { return vsubq_f32(a, b); }
inline VecF VMul(VecF a, VecF b) { return vmulq_f32(a, b); }
inline VecF VDiv(VecF a, VecF b) { return vdivq_f32(a, b); }
inline VecF VMax(VecF a, VecF b) { return vmaxq_f32(a, b); }
inline VecF VMin(VecF a, VecF b) { return vminq_f32(a, b); }
inline VecF VFma(VecF a, VecF b, VecF c) { return vfmaq_f32(c, a, b); }
inline VecF VFloor(VecF a) { return vrndmq_f32(a); }
inline float VHsum(VecF v) { return vaddvq_f32(v); }
inline float VHmax(VecF v) { return vmaxvq_f32(v); }

inline VecF VExp(VecF x) {
  using namespace detail;
  x = VMin(x, VSet1(kExpHi));
  x = VMax(x, VSet1(kExpLo));
  const VecF fx = VFloor(VFma(x, VSet1(kLog2e), VSet1(0.5f)));
  x = VFma(fx, VSet1(-kExpC1), x);
  x = VFma(fx, VSet1(-kExpC2), x);
  VecF y = VSet1(kExpP0);
  y = VFma(y, x, VSet1(kExpP1));
  y = VFma(y, x, VSet1(kExpP2));
  y = VFma(y, x, VSet1(kExpP3));
  y = VFma(y, x, VSet1(kExpP4));
  y = VFma(y, x, VSet1(kExpP5));
  y = VFma(y, VMul(x, x), VAdd(x, VSet1(1.0f)));
  const int32x4_t e =
      vshlq_n_s32(vaddq_s32(vcvtq_s32_f32(fx), vdupq_n_s32(127)), 23);
  return VMul(y, vreinterpretq_f32_s32(e));
}

#endif  // vector type

// ---- Array kernels ----------------------------------------------------------
//
// Each kernel dispatches once per call on Enabled(); within a call the vector
// body covers the largest multiple of the lane width and the scalar tail uses
// lane-identical arithmetic.

// sum_i a[i] * b[i]. Lane-strided partial sums; order depends only on n.
inline float Dot(const float* a, const float* b, int64_t n) {
#if defined(IMDIFF_SIMD_ANY)
  if (Enabled() && n >= kVectorWidth) {
    VecF acc = VZero();
    int64_t i = 0;
    for (; i + kVectorWidth <= n; i += kVectorWidth) {
      acc = VFma(VLoad(a + i), VLoad(b + i), acc);
    }
    float s = VHsum(acc);
    for (; i < n; ++i) s = Madd(a[i], b[i], s);
    return s;
  }
#endif
  float s = 0.0f;
  for (int64_t i = 0; i < n; ++i) s = Madd(a[i], b[i], s);
  return s;
}

// y[i] += alpha * x[i].
inline void Axpy(float alpha, const float* x, float* y, int64_t n) {
#if defined(IMDIFF_SIMD_ANY)
  if (Enabled() && n >= kVectorWidth) {
    const VecF va = VSet1(alpha);
    int64_t i = 0;
    for (; i + kVectorWidth <= n; i += kVectorWidth) {
      VStore(y + i, VFma(va, VLoad(x + i), VLoad(y + i)));
    }
    for (; i < n; ++i) y[i] = Madd(alpha, x[i], y[i]);
    return;
  }
#endif
  for (int64_t i = 0; i < n; ++i) y[i] = Madd(alpha, x[i], y[i]);
}

// y[i] += x[i].
inline void AddInPlace(float* y, const float* x, int64_t n) {
#if defined(IMDIFF_SIMD_ANY)
  if (Enabled() && n >= kVectorWidth) {
    int64_t i = 0;
    for (; i + kVectorWidth <= n; i += kVectorWidth) {
      VStore(y + i, VAdd(VLoad(y + i), VLoad(x + i)));
    }
    for (; i < n; ++i) y[i] += x[i];
    return;
  }
#endif
  for (int64_t i = 0; i < n; ++i) y[i] += x[i];
}

inline void AddInto(float* out, const float* a, const float* b, int64_t n) {
#if defined(IMDIFF_SIMD_ANY)
  if (Enabled() && n >= kVectorWidth) {
    int64_t i = 0;
    for (; i + kVectorWidth <= n; i += kVectorWidth) {
      VStore(out + i, VAdd(VLoad(a + i), VLoad(b + i)));
    }
    for (; i < n; ++i) out[i] = a[i] + b[i];
    return;
  }
#endif
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

inline void SubInto(float* out, const float* a, const float* b, int64_t n) {
#if defined(IMDIFF_SIMD_ANY)
  if (Enabled() && n >= kVectorWidth) {
    int64_t i = 0;
    for (; i + kVectorWidth <= n; i += kVectorWidth) {
      VStore(out + i, VSub(VLoad(a + i), VLoad(b + i)));
    }
    for (; i < n; ++i) out[i] = a[i] - b[i];
    return;
  }
#endif
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

inline void MulInto(float* out, const float* a, const float* b, int64_t n) {
#if defined(IMDIFF_SIMD_ANY)
  if (Enabled() && n >= kVectorWidth) {
    int64_t i = 0;
    for (; i + kVectorWidth <= n; i += kVectorWidth) {
      VStore(out + i, VMul(VLoad(a + i), VLoad(b + i)));
    }
    for (; i < n; ++i) out[i] = a[i] * b[i];
    return;
  }
#endif
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

inline void DivInto(float* out, const float* a, const float* b, int64_t n) {
#if defined(IMDIFF_SIMD_ANY)
  if (Enabled() && n >= kVectorWidth) {
    int64_t i = 0;
    for (; i + kVectorWidth <= n; i += kVectorWidth) {
      VStore(out + i, VDiv(VLoad(a + i), VLoad(b + i)));
    }
    for (; i < n; ++i) out[i] = a[i] / b[i];
    return;
  }
#endif
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] / b[i];
}

// out[i] = a[i] * b[i] + c[i] (single rounding on FMA hardware).
inline void FmaInto(float* out, const float* a, const float* b, const float* c,
                    int64_t n) {
#if defined(IMDIFF_SIMD_ANY)
  if (Enabled() && n >= kVectorWidth) {
    int64_t i = 0;
    for (; i + kVectorWidth <= n; i += kVectorWidth) {
      VStore(out + i, VFma(VLoad(a + i), VLoad(b + i), VLoad(c + i)));
    }
    for (; i < n; ++i) out[i] = Madd(a[i], b[i], c[i]);
    return;
  }
#endif
  for (int64_t i = 0; i < n; ++i) out[i] = Madd(a[i], b[i], c[i]);
}

inline void ScaleInto(float* out, const float* x, float s, int64_t n) {
#if defined(IMDIFF_SIMD_ANY)
  if (Enabled() && n >= kVectorWidth) {
    const VecF vs = VSet1(s);
    int64_t i = 0;
    for (; i + kVectorWidth <= n; i += kVectorWidth) {
      VStore(out + i, VMul(VLoad(x + i), vs));
    }
    for (; i < n; ++i) out[i] = x[i] * s;
    return;
  }
#endif
  for (int64_t i = 0; i < n; ++i) out[i] = x[i] * s;
}

inline void ScaleInPlace(float* y, float s, int64_t n) { ScaleInto(y, y, s, n); }

inline void AddScalarInto(float* out, const float* x, float s, int64_t n) {
#if defined(IMDIFF_SIMD_ANY)
  if (Enabled() && n >= kVectorWidth) {
    const VecF vs = VSet1(s);
    int64_t i = 0;
    for (; i + kVectorWidth <= n; i += kVectorWidth) {
      VStore(out + i, VAdd(VLoad(x + i), vs));
    }
    for (; i < n; ++i) out[i] = x[i] + s;
    return;
  }
#endif
  for (int64_t i = 0; i < n; ++i) out[i] = x[i] + s;
}

// out[i] = (x[i] - mean) * scale — the LayerNorm normalization step.
inline void ScaledDiffInto(float* out, const float* x, float mean, float scale,
                           int64_t n) {
#if defined(IMDIFF_SIMD_ANY)
  if (Enabled() && n >= kVectorWidth) {
    const VecF vm = VSet1(mean);
    const VecF vs = VSet1(scale);
    int64_t i = 0;
    for (; i + kVectorWidth <= n; i += kVectorWidth) {
      VStore(out + i, VMul(VSub(VLoad(x + i), vm), vs));
    }
    for (; i < n; ++i) out[i] = (x[i] - mean) * scale;
    return;
  }
#endif
  for (int64_t i = 0; i < n; ++i) out[i] = (x[i] - mean) * scale;
}

inline float Sum(const float* x, int64_t n) {
#if defined(IMDIFF_SIMD_ANY)
  if (Enabled() && n >= kVectorWidth) {
    VecF acc = VZero();
    int64_t i = 0;
    for (; i + kVectorWidth <= n; i += kVectorWidth) {
      acc = VAdd(acc, VLoad(x + i));
    }
    float s = VHsum(acc);
    for (; i < n; ++i) s += x[i];
    return s;
  }
#endif
  float s = 0.0f;
  for (int64_t i = 0; i < n; ++i) s += x[i];
  return s;
}

// max_i x[i]; n must be >= 1.
inline float MaxReduce(const float* x, int64_t n) {
#if defined(IMDIFF_SIMD_ANY)
  if (Enabled() && n >= kVectorWidth) {
    VecF acc = VLoad(x);
    int64_t i = kVectorWidth;
    for (; i + kVectorWidth <= n; i += kVectorWidth) {
      acc = VMax(acc, VLoad(x + i));
    }
    float m = VHmax(acc);
    for (; i < n; ++i) m = x[i] > m ? x[i] : m;
    return m;
  }
#endif
  float m = x[0];
  for (int64_t i = 1; i < n; ++i) m = x[i] > m ? x[i] : m;
  return m;
}

// sum_i (x[i] - mean)^2 — the LayerNorm variance numerator.
inline float SqDiffSum(const float* x, float mean, int64_t n) {
#if defined(IMDIFF_SIMD_ANY)
  if (Enabled() && n >= kVectorWidth) {
    const VecF vm = VSet1(mean);
    VecF acc = VZero();
    int64_t i = 0;
    for (; i + kVectorWidth <= n; i += kVectorWidth) {
      const VecF d = VSub(VLoad(x + i), vm);
      acc = VFma(d, d, acc);
    }
    float s = VHsum(acc);
    for (; i < n; ++i) {
      const float d = x[i] - mean;
      s = Madd(d, d, s);
    }
    return s;
  }
#endif
  float s = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    const float d = x[i] - mean;
    s = Madd(d, d, s);
  }
  return s;
}

// Fused softmax numerator: out[i] = exp(x[i] - sub); returns sum_i out[i].
inline float ExpSumInto(float* out, const float* x, float sub, int64_t n) {
#if defined(IMDIFF_SIMD_ANY)
  if (Enabled() && n >= kVectorWidth) {
    const VecF vs = VSet1(sub);
    VecF acc = VZero();
    int64_t i = 0;
    for (; i + kVectorWidth <= n; i += kVectorWidth) {
      const VecF e = VExp(VSub(VLoad(x + i), vs));
      VStore(out + i, e);
      acc = VAdd(acc, e);
    }
    float s = VHsum(acc);
    for (; i < n; ++i) {
      out[i] = ExpScalar(x[i] - sub);
      s += out[i];
    }
    return s;
  }
#endif
  float s = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    out[i] = ExpScalar(x[i] - sub);
    s += out[i];
  }
  return s;
}

inline void ExpInto(float* out, const float* x, int64_t n) {
#if defined(IMDIFF_SIMD_ANY)
  if (Enabled() && n >= kVectorWidth) {
    int64_t i = 0;
    for (; i + kVectorWidth <= n; i += kVectorWidth) {
      VStore(out + i, VExp(VLoad(x + i)));
    }
    for (; i < n; ++i) out[i] = ExpScalar(x[i]);
    return;
  }
#endif
  for (int64_t i = 0; i < n; ++i) out[i] = ExpScalar(x[i]);
}

#if defined(IMDIFF_SIMD_ANY)
// Vector replicas of the tanh/gelu/silu scalar helpers.
inline VecF VTanh(VecF x) {
  const VecF one = VSet1(1.0f);
  const VecF two = VSet1(2.0f);
  return VSub(one, VDiv(two, VAdd(VExp(VMul(two, x)), one)));
}

inline VecF VSigmoid(VecF x) {
  const VecF one = VSet1(1.0f);
  return VDiv(one, VAdd(one, VExp(VSub(VZero(), x))));
}

inline VecF VGelu(VecF x) {
  const VecF inner =
      VMul(VSet1(kGeluCoef), VFma(VMul(VSet1(kGeluCubic), VMul(x, x)), x, x));
  return VMul(VMul(VSet1(0.5f), x), VAdd(VSet1(1.0f), VTanh(inner)));
}

inline VecF VGeluGrad(VecF x) {
  const VecF inner =
      VMul(VSet1(kGeluCoef), VFma(VMul(VSet1(kGeluCubic), VMul(x, x)), x, x));
  const VecF t = VTanh(inner);
  const VecF dinner = VMul(
      VSet1(kGeluCoef), VFma(VMul(VSet1(3.0f * kGeluCubic), x), x, VSet1(1.0f)));
  const VecF sech2 = VSub(VSet1(1.0f), VMul(t, t));
  return VFma(VMul(VMul(VSet1(0.5f), x), sech2), dinner,
              VMul(VSet1(0.5f), VAdd(VSet1(1.0f), t)));
}

inline VecF VSilu(VecF x) { return VMul(x, VSigmoid(x)); }

inline VecF VGate(VecF f, VecF g) { return VMul(VTanh(f), VSigmoid(g)); }

inline VecF VSiluGrad(VecF x) {
  const VecF s = VSigmoid(x);
  return VMul(s, VFma(x, VSub(VSet1(1.0f), s), VSet1(1.0f)));
}
#endif  // IMDIFF_SIMD_ANY

inline void GeluInto(float* out, const float* x, int64_t n) {
#if defined(IMDIFF_SIMD_ANY)
  if (Enabled() && n >= kVectorWidth) {
    int64_t i = 0;
    for (; i + kVectorWidth <= n; i += kVectorWidth) {
      VStore(out + i, VGelu(VLoad(x + i)));
    }
    for (; i < n; ++i) out[i] = GeluScalar(x[i]);
    return;
  }
#endif
  for (int64_t i = 0; i < n; ++i) out[i] = GeluScalar(x[i]);
}

// out[i] = g[i] * gelu'(x[i]).
inline void GeluGradInto(float* out, const float* x, const float* g,
                         int64_t n) {
#if defined(IMDIFF_SIMD_ANY)
  if (Enabled() && n >= kVectorWidth) {
    int64_t i = 0;
    for (; i + kVectorWidth <= n; i += kVectorWidth) {
      VStore(out + i, VMul(VLoad(g + i), VGeluGrad(VLoad(x + i))));
    }
    for (; i < n; ++i) out[i] = g[i] * GeluGradScalar(x[i]);
    return;
  }
#endif
  for (int64_t i = 0; i < n; ++i) out[i] = g[i] * GeluGradScalar(x[i]);
}

inline void SiluInto(float* out, const float* x, int64_t n) {
#if defined(IMDIFF_SIMD_ANY)
  if (Enabled() && n >= kVectorWidth) {
    int64_t i = 0;
    for (; i + kVectorWidth <= n; i += kVectorWidth) {
      VStore(out + i, VSilu(VLoad(x + i)));
    }
    for (; i < n; ++i) out[i] = SiluScalar(x[i]);
    return;
  }
#endif
  for (int64_t i = 0; i < n; ++i) out[i] = SiluScalar(x[i]);
}

// out[i] = g[i] * silu'(x[i]).
inline void SiluGradInto(float* out, const float* x, const float* g,
                         int64_t n) {
#if defined(IMDIFF_SIMD_ANY)
  if (Enabled() && n >= kVectorWidth) {
    int64_t i = 0;
    for (; i + kVectorWidth <= n; i += kVectorWidth) {
      VStore(out + i, VMul(VLoad(g + i), VSiluGrad(VLoad(x + i))));
    }
    for (; i < n; ++i) out[i] = g[i] * SiluGradScalar(x[i]);
    return;
  }
#endif
  for (int64_t i = 0; i < n; ++i) out[i] = g[i] * SiluGradScalar(x[i]);
}

inline void TanhInto(float* out, const float* x, int64_t n) {
#if defined(IMDIFF_SIMD_ANY)
  if (Enabled() && n >= kVectorWidth) {
    int64_t i = 0;
    for (; i + kVectorWidth <= n; i += kVectorWidth) {
      VStore(out + i, VTanh(VLoad(x + i)));
    }
    for (; i < n; ++i) out[i] = TanhScalar(x[i]);
    return;
  }
#endif
  for (int64_t i = 0; i < n; ++i) out[i] = TanhScalar(x[i]);
}

inline void SigmoidInto(float* out, const float* x, int64_t n) {
#if defined(IMDIFF_SIMD_ANY)
  if (Enabled() && n >= kVectorWidth) {
    int64_t i = 0;
    for (; i + kVectorWidth <= n; i += kVectorWidth) {
      VStore(out + i, VSigmoid(VLoad(x + i)));
    }
    for (; i < n; ++i) out[i] = SigmoidScalar(x[i]);
    return;
  }
#endif
  for (int64_t i = 0; i < n; ++i) out[i] = SigmoidScalar(x[i]);
}

// out[i] = tanh(f[i]) * sigmoid(g[i]).
inline void GateInto(float* out, const float* f, const float* g, int64_t n) {
#if defined(IMDIFF_SIMD_ANY)
  if (Enabled() && n >= kVectorWidth) {
    int64_t i = 0;
    for (; i + kVectorWidth <= n; i += kVectorWidth) {
      VStore(out + i, VGate(VLoad(f + i), VLoad(g + i)));
    }
    for (; i < n; ++i) out[i] = GateScalar(f[i], g[i]);
    return;
  }
#endif
  for (int64_t i = 0; i < n; ++i) out[i] = GateScalar(f[i], g[i]);
}

// Gradients of GateInto for incoming grads gr (see GateGradScalar).
inline void GateGradInto(float* df, float* dg, const float* f, const float* g,
                         const float* gr, int64_t n) {
#if defined(IMDIFF_SIMD_ANY)
  if (Enabled() && n >= kVectorWidth) {
    const VecF one = VSet1(1.0f);
    int64_t i = 0;
    for (; i + kVectorWidth <= n; i += kVectorWidth) {
      const VecF t = VTanh(VLoad(f + i));
      const VecF s = VSigmoid(VLoad(g + i));
      const VecF vg = VLoad(gr + i);
      VStore(df + i, VMul(VMul(vg, s), VSub(one, VMul(t, t))));
      VStore(dg + i, VMul(VMul(vg, t), VMul(s, VSub(one, s))));
    }
    for (; i < n; ++i) GateGradScalar(f[i], g[i], gr[i], df + i, dg + i);
    return;
  }
#endif
  for (int64_t i = 0; i < n; ++i) {
    GateGradScalar(f[i], g[i], gr[i], df + i, dg + i);
  }
}

// ---- Gated activation over [rows, 2d] rows ------------------------------------
//
// The gate's input rows hold the filter half then the gate half, so a row's
// d filter values are contiguous but rows are 2d apart. With d not a multiple
// of the lane width (the Fast config's d = 24 under 16 AVX-512 lanes) a
// per-row loop would spend a third of its elements in the scalar tail. The
// row kernels instead gather tiles of consecutive rows into contiguous
// scratch, so the vector body runs on full lanes and at most one short tail
// remains per tile.

namespace detail {
inline constexpr int64_t kGateTile = 256;

// Copies flat elements [e0, e0 + m) of the [rows, d] view whose row r starts
// at src + r * stride into dst.
inline void GatherRows(float* dst, const float* src, int64_t stride,
                       int64_t d, int64_t e0, int64_t m) {
  int64_t r = e0 / d;
  int64_t j = e0 % d;
  for (int64_t k = 0; k < m; ++r, j = 0) {
    const int64_t take = d - j < m - k ? d - j : m - k;
    std::memcpy(dst + k, src + r * stride + j,
                static_cast<size_t>(take) * sizeof(float));
    k += take;
  }
}

// Inverse of GatherRows: writes src's m elements back into the strided view.
inline void ScatterRows(float* dst, int64_t stride, int64_t d,
                        const float* src, int64_t e0, int64_t m) {
  int64_t r = e0 / d;
  int64_t j = e0 % d;
  for (int64_t k = 0; k < m; ++r, j = 0) {
    const int64_t take = d - j < m - k ? d - j : m - k;
    std::memcpy(dst + r * stride + j, src + k,
                static_cast<size_t>(take) * sizeof(float));
    k += take;
  }
}
}  // namespace detail

// out[r, j] = tanh(fg[r, j]) * sigmoid(fg[r, d + j]); fg is [rows, 2d] and
// out is [rows, d].
inline void GateRowsInto(float* out, const float* fg, int64_t rows,
                         int64_t d) {
  using detail::kGateTile;
  alignas(64) float f[kGateTile];
  alignas(64) float g[kGateTile];
  const int64_t n = rows * d;
  for (int64_t e0 = 0; e0 < n; e0 += kGateTile) {
    const int64_t m = n - e0 < kGateTile ? n - e0 : kGateTile;
    detail::GatherRows(f, fg, 2 * d, d, e0, m);
    detail::GatherRows(g, fg + d, 2 * d, d, e0, m);
    GateInto(out + e0, f, g, m);
  }
}

// Gradient of GateRowsInto: dfg is [rows, 2d] and receives the filter and
// gate gradients for the incoming [rows, d] grads gr.
inline void GateGradRowsInto(float* dfg, const float* fg, const float* gr,
                             int64_t rows, int64_t d) {
  using detail::kGateTile;
  alignas(64) float f[kGateTile];
  alignas(64) float g[kGateTile];
  alignas(64) float df[kGateTile];
  alignas(64) float dg[kGateTile];
  const int64_t n = rows * d;
  for (int64_t e0 = 0; e0 < n; e0 += kGateTile) {
    const int64_t m = n - e0 < kGateTile ? n - e0 : kGateTile;
    detail::GatherRows(f, fg, 2 * d, d, e0, m);
    detail::GatherRows(g, fg + d, 2 * d, d, e0, m);
    GateGradInto(df, dg, f, g, gr + e0, m);
    detail::ScatterRows(dfg, 2 * d, d, df, e0, m);
    detail::ScatterRows(dfg + d, 2 * d, d, dg, e0, m);
  }
}

}  // namespace simd
}  // namespace imdiff

#endif  // IMDIFF_TENSOR_SIMD_H_
