// Scalar-vs-SIMD parity for the kernel layer (tensor/simd.h and the packed
// GEMM in tensor/tensor_ops.cc).
//
// Each test computes a result with the vectorized path enabled, flips
// simd::SetForceScalar(true), recomputes, and compares within float tolerance.
// On builds without a vector ISA the two paths coincide and the comparisons
// are trivially exact — the suite still exercises the kernels' odd-shape
// handling.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "utils/rng.h"

namespace imdiff {
namespace {

class SimdParityTest : public ::testing::Test {
 protected:
  void SetUp() override { simd::SetForceScalar(false); }
  // Restore the default dispatch for whatever test runs next.
  void TearDown() override { simd::SetForceScalar(false); }
};

Tensor RandomTensor(const Shape& shape, uint64_t seed, float scale = 1.0f) {
  Rng rng(seed);
  return Tensor::Randn(shape, rng, scale);
}

void ExpectNear(const Tensor& a, const Tensor& b, float tol) {
  ASSERT_EQ(a.shape(), b.shape());
  for (int64_t i = 0; i < a.numel(); ++i) {
    const float ref = b.flat(i);
    const float scale = std::max(1.0f, std::fabs(ref));
    ASSERT_NEAR(a.flat(i), ref, tol * scale) << "at flat index " << i;
  }
}

// ---- GEMM: all four transpose layouts over odd shapes ----------------------

TEST_F(SimdParityTest, MatMulAllTransposesOddShapes) {
  const int64_t dims[] = {1, 3, 7, 17, 64, 65};
  uint64_t seed = 1;
  for (int64_t m : dims) {
    for (int64_t k : dims) {
      for (int64_t n : dims) {
        for (int ta = 0; ta < 2; ++ta) {
          for (int tb = 0; tb < 2; ++tb) {
            const Tensor a =
                RandomTensor(ta ? Shape{k, m} : Shape{m, k}, seed++);
            const Tensor b =
                RandomTensor(tb ? Shape{n, k} : Shape{k, n}, seed++);
            simd::SetForceScalar(false);
            const Tensor fast = MatMul(a, b, ta != 0, tb != 0);
            simd::SetForceScalar(true);
            const Tensor ref = MatMul(a, b, ta != 0, tb != 0);
            // k float products per output element; loose per-element bound.
            const float tol =
                1e-5f * std::sqrt(static_cast<float>(std::max<int64_t>(1, k)));
            ExpectNear(fast, ref, tol);
          }
        }
      }
    }
  }
}

TEST_F(SimdParityTest, BatchedMatMulMatchesScalar) {
  const Tensor a = RandomTensor({3, 17, 65}, 7);
  const Tensor b = RandomTensor({3, 65, 7}, 8);
  simd::SetForceScalar(false);
  const Tensor fast = BatchedMatMul(a, b);
  simd::SetForceScalar(true);
  const Tensor ref = BatchedMatMul(a, b);
  ExpectNear(fast, ref, 1e-4f);
}

TEST_F(SimdParityTest, MatMulZeroInnerDimIsZero) {
  // k == 0: the packed kernel must still store (zeros) into the
  // uninitialized output.
  const Tensor a = Tensor::Uninitialized({5, 0});
  const Tensor b = Tensor::Uninitialized({0, 9});
  const Tensor c = MatMul(a, b);
  for (int64_t i = 0; i < c.numel(); ++i) EXPECT_EQ(c.flat(i), 0.0f);
}

// ---- Elementwise / reduction kernels ----------------------------------------

TEST_F(SimdParityTest, DotAndAxpyOddLengths) {
  for (int64_t n : {1, 3, 7, 17, 64, 65}) {
    const Tensor x = RandomTensor({n}, 100 + static_cast<uint64_t>(n));
    const Tensor yv = RandomTensor({n}, 200 + static_cast<uint64_t>(n));
    simd::SetForceScalar(false);
    const float dot_fast = simd::Dot(x.data(), yv.data(), n);
    std::vector<float> acc_fast(yv.data(), yv.data() + n);
    simd::Axpy(0.37f, x.data(), acc_fast.data(), n);
    simd::SetForceScalar(true);
    const float dot_ref = simd::Dot(x.data(), yv.data(), n);
    std::vector<float> acc_ref(yv.data(), yv.data() + n);
    simd::Axpy(0.37f, x.data(), acc_ref.data(), n);
    EXPECT_NEAR(dot_fast, dot_ref, 1e-4f * static_cast<float>(n));
    for (int64_t i = 0; i < n; ++i) {
      // Same Madd arithmetic in tail and scalar path: bitwise equal.
      EXPECT_EQ(acc_fast[static_cast<size_t>(i)],
                acc_ref[static_cast<size_t>(i)]);
    }
  }
}

TEST_F(SimdParityTest, ExpMatchesScalarTailExactly) {
  // The vector body and scalar tail share one polynomial, so exp is a pure
  // function of the input value: compute the same values at different
  // alignments and require bitwise equality.
  const int64_t n = 67;
  const Tensor x = RandomTensor({n}, 42, 3.0f);
  std::vector<float> a(static_cast<size_t>(n)), b(static_cast<size_t>(n) + 3);
  simd::ExpInto(a.data(), x.data(), n);
  // Recompute shifted: element i lands at a different lane offset.
  std::vector<float> shifted(static_cast<size_t>(n) + 3);
  std::copy_n(x.data(), n, shifted.data() + 3);
  shifted[0] = shifted[1] = shifted[2] = 0.0f;
  simd::ExpInto(b.data(), shifted.data(), n + 3);
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(a[static_cast<size_t>(i)], b[static_cast<size_t>(i) + 3])
        << "exp not position-independent at " << i;
  }
}

TEST_F(SimdParityTest, ExpAccuracyAgainstLibm) {
  for (float v : {-87.0f, -10.0f, -1.0f, -1e-3f, 0.0f, 1e-3f, 0.5f, 1.0f,
                  10.0f, 88.0f}) {
    const float got = simd::ExpScalar(v);
    const float want = std::exp(v);
    EXPECT_NEAR(got, want, 4e-7f * std::max(1.0f, want)) << "exp(" << v << ")";
  }
}

TEST_F(SimdParityTest, SoftmaxParityAndRowSums) {
  for (int64_t last : {1, 3, 7, 17, 64, 65}) {
    const Tensor x = RandomTensor({5, last}, 300 + static_cast<uint64_t>(last),
                                  2.0f);
    simd::SetForceScalar(false);
    const Tensor fast = SoftmaxLastDim(x);
    simd::SetForceScalar(true);
    const Tensor ref = SoftmaxLastDim(x);
    ExpectNear(fast, ref, 1e-5f);
    for (int64_t r = 0; r < 5; ++r) {
      float sum = 0.0f;
      for (int64_t j = 0; j < last; ++j) sum += fast.at(r, j);
      EXPECT_NEAR(sum, 1.0f, 1e-5f);
    }
  }
}

TEST_F(SimdParityTest, GeluSiluTanhParity) {
  const int64_t n = 131;
  const Tensor x = RandomTensor({n}, 9, 2.5f);
  simd::SetForceScalar(false);
  const Tensor gelu_fast = GeluForward(x);
  const Tensor silu_fast = SiluForward(x);
  std::vector<float> tanh_fast(static_cast<size_t>(n));
  simd::TanhInto(tanh_fast.data(), x.data(), n);
  simd::SetForceScalar(true);
  const Tensor gelu_ref = GeluForward(x);
  const Tensor silu_ref = SiluForward(x);
  std::vector<float> tanh_ref(static_cast<size_t>(n));
  simd::TanhInto(tanh_ref.data(), x.data(), n);
  ExpectNear(gelu_fast, gelu_ref, 1e-5f);
  ExpectNear(silu_fast, silu_ref, 1e-5f);
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_NEAR(tanh_fast[static_cast<size_t>(i)],
                tanh_ref[static_cast<size_t>(i)], 1e-5f);
    // Reference values against libm.
    EXPECT_NEAR(tanh_fast[static_cast<size_t>(i)], std::tanh(x.flat(i)),
                2e-6f);
  }
}

TEST_F(SimdParityTest, GeluGradSiluGradParity) {
  const int64_t n = 67;
  const Tensor x = RandomTensor({n}, 10, 2.0f);
  const Tensor g = RandomTensor({n}, 11);
  simd::SetForceScalar(false);
  const Tensor dg_fast = GeluBackward(x, g);
  const Tensor ds_fast = SiluBackward(x, g);
  simd::SetForceScalar(true);
  const Tensor dg_ref = GeluBackward(x, g);
  const Tensor ds_ref = SiluBackward(x, g);
  ExpectNear(dg_fast, dg_ref, 1e-5f);
  ExpectNear(ds_fast, ds_ref, 1e-5f);
}

// Accuracy against libm on the vector path; FusedKernelsArePositionIndependent
// below ties every scalar tail to these lanes bit for bit.
TEST_F(SimdParityTest, SigmoidAndGateAgainstLibm) {
  const int64_t n = 131;
  const Tensor f = RandomTensor({n}, 12, 3.0f);
  const Tensor g = RandomTensor({n}, 13, 3.0f);
  std::vector<float> sig(static_cast<size_t>(n));
  std::vector<float> gate(static_cast<size_t>(n));
  simd::SigmoidInto(sig.data(), g.data(), n);
  simd::GateInto(gate.data(), f.data(), g.data(), n);
  for (int64_t i = 0; i < n; ++i) {
    const auto k = static_cast<size_t>(i);
    const float want_sig = 1.0f / (1.0f + std::exp(-g.flat(i)));
    EXPECT_NEAR(sig[k], want_sig, 2e-7f);
    EXPECT_NEAR(gate[k], std::tanh(f.flat(i)) * want_sig, 2e-6f);
  }
}

TEST_F(SimdParityTest, LayerNormParity) {
  for (int64_t last : {1, 3, 7, 17, 64, 65}) {
    const Tensor x =
        RandomTensor({4, last}, 500 + static_cast<uint64_t>(last), 3.0f);
    const Tensor gamma = RandomTensor({last}, 600 + static_cast<uint64_t>(last));
    const Tensor beta = RandomTensor({last}, 700 + static_cast<uint64_t>(last));
    Tensor y_fast, h_fast, is_fast, y_ref, h_ref, is_ref;
    simd::SetForceScalar(false);
    LayerNormForward(x, gamma, beta, 1e-5f, &y_fast, &h_fast, &is_fast);
    simd::SetForceScalar(true);
    LayerNormForward(x, gamma, beta, 1e-5f, &y_ref, &h_ref, &is_ref);
    ExpectNear(y_fast, y_ref, 1e-4f);
    ExpectNear(h_fast, h_ref, 1e-4f);
    ExpectNear(is_fast, is_ref, 1e-4f);
  }
}

TEST_F(SimdParityTest, ElementwiseBinaryParity) {
  const int64_t n = 65;
  const Tensor a = RandomTensor({n}, 20);
  Tensor b = RandomTensor({n}, 21);
  // Keep divisors away from zero.
  for (int64_t i = 0; i < n; ++i)
    b.set_flat(i, b.flat(i) + (b.flat(i) >= 0.0f ? 1.0f : -1.0f));
  simd::SetForceScalar(false);
  const Tensor add_f = Add(a, b), sub_f = Sub(a, b), mul_f = Mul(a, b),
               div_f = Div(a, b);
  simd::SetForceScalar(true);
  const Tensor add_r = Add(a, b), sub_r = Sub(a, b), mul_r = Mul(a, b),
               div_r = Div(a, b);
  // Lane arithmetic for + - * / is IEEE-identical to scalar: bitwise equal.
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(add_f.flat(i), add_r.flat(i));
    EXPECT_EQ(sub_f.flat(i), sub_r.flat(i));
    EXPECT_EQ(mul_f.flat(i), mul_r.flat(i));
    EXPECT_EQ(div_f.flat(i), div_r.flat(i));
  }
}

TEST_F(SimdParityTest, Conv1dParity) {
  const Tensor x = RandomTensor({2, 3, 31}, 30);
  const Tensor w = RandomTensor({5, 3, 3}, 31);
  const Tensor bias = RandomTensor({5}, 32);
  simd::SetForceScalar(false);
  const Tensor fast = Conv1d(x, w, bias, 1);
  simd::SetForceScalar(true);
  const Tensor ref = Conv1d(x, w, bias, 1);
  ExpectNear(fast, ref, 1e-5f);
}

// ---- Position independence ------------------------------------------------------
//
// DESIGN.md §12: an elementwise kernel's result for one element depends only
// on that element's inputs, never on where it lands relative to a lane
// boundary, a tile boundary or a thread range's start. Every fused kernel is
// run over a long input split into consecutive ranges, at every start offset
// 0..2W and every range length 1..2W (so every tail length), and each element
// is compared bitwise with the same element computed in a full vector lane: a
// run over the whole input padded to a multiple of W, with no scalar tail.

constexpr int64_t kW = simd::kVectorWidth;

uint32_t Bits(float v) {
  uint32_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

int64_t RoundUpToLanes(int64_t n) { return (n + kW - 1) / kW * kW; }

// A fused elementwise kernel with `inputs` input arrays and `outputs` output
// arrays of n elements each.
struct FusedKernel {
  std::string name;
  int inputs;
  int outputs;
  std::function<void(float* const* out, const float* const* in, int64_t n)>
      run;
};

std::vector<FusedKernel> AllFusedKernels() {
  using In = const float* const*;
  using Out = float* const*;
  return {
      {"Exp", 1, 1, [](Out o, In x, int64_t n) { simd::ExpInto(o[0], x[0], n); }},
      {"Tanh", 1, 1,
       [](Out o, In x, int64_t n) { simd::TanhInto(o[0], x[0], n); }},
      {"Sigmoid", 1, 1,
       [](Out o, In x, int64_t n) { simd::SigmoidInto(o[0], x[0], n); }},
      {"Gelu", 1, 1,
       [](Out o, In x, int64_t n) { simd::GeluInto(o[0], x[0], n); }},
      {"GeluGrad", 2, 1,
       [](Out o, In x, int64_t n) {
         simd::GeluGradInto(o[0], x[0], x[1], n);
       }},
      {"Silu", 1, 1,
       [](Out o, In x, int64_t n) { simd::SiluInto(o[0], x[0], n); }},
      {"SiluGrad", 2, 1,
       [](Out o, In x, int64_t n) {
         simd::SiluGradInto(o[0], x[0], x[1], n);
       }},
      {"Gate", 2, 1,
       [](Out o, In x, int64_t n) { simd::GateInto(o[0], x[0], x[1], n); }},
      {"GateGrad", 3, 2,
       [](Out o, In x, int64_t n) {
         simd::GateGradInto(o[0], o[1], x[0], x[1], x[2], n);
       }},
  };
}

TEST_F(SimdParityTest, FusedKernelsArePositionIndependent) {
  const int64_t n_total = 1024 + 5;
  const int64_t padded = RoundUpToLanes(n_total);
  for (const FusedKernel& kernel : AllFusedKernels()) {
    // Inputs span the saturating and the polynomial ranges of exp.
    std::vector<std::vector<float>> in;
    for (int a = 0; a < kernel.inputs; ++a) {
      const Tensor t = RandomTensor({padded}, 900 + static_cast<uint64_t>(a),
                                    4.0f);
      in.emplace_back(t.data(), t.data() + padded);
    }
    auto outputs = [&] {
      return std::vector<std::vector<float>>(
          static_cast<size_t>(kernel.outputs),
          std::vector<float>(static_cast<size_t>(padded)));
    };
    std::vector<std::vector<float>> ref = outputs();
    std::vector<std::vector<float>> out = outputs();
    auto run_at = [&](std::vector<std::vector<float>>& dst, int64_t start,
                      int64_t n) {
      std::vector<const float*> at_in;
      for (const auto& v : in) at_in.push_back(v.data() + start);
      std::vector<float*> at_out;
      for (auto& v : dst) at_out.push_back(v.data() + start);
      kernel.run(at_out.data(), at_in.data(), n);
    };
    run_at(ref, 0, padded);

    for (int64_t offset = 0; offset <= 2 * kW; ++offset) {
      for (int64_t len = 1; len <= 2 * kW; ++len) {
        for (int64_t start = offset; start < n_total; start += len) {
          run_at(out, start, std::min(len, n_total - start));
        }
        for (int o = 0; o < kernel.outputs; ++o) {
          const std::vector<float>& got = out[static_cast<size_t>(o)];
          const std::vector<float>& want = ref[static_cast<size_t>(o)];
          for (int64_t i = offset; i < n_total; ++i) {
            const auto k = static_cast<size_t>(i);
            ASSERT_EQ(Bits(got[k]), Bits(want[k]))
                << kernel.name << " output " << o << ": ranges of " << len
                << " from offset " << offset << ", element " << i
                << " (position " << (i - offset) % len
                << " in its range), got " << got[k] << " want " << want[k];
          }
        }
      }
    }
  }
}

// The [rows, 2d] gate kernels gather row tiles into contiguous scratch. For
// row widths that do and do not divide the lane width, at every starting row
// 0..2W and every row count (so every tile and tail split), each element must
// match the contiguous kernel's full-lane result bitwise.
TEST_F(SimdParityTest, GateRowsArePositionIndependent) {
  for (const int64_t d : {int64_t{1}, int64_t{3}, kW - 1 > 0 ? kW - 1 : 1, kW,
                          kW + 1, int64_t{20}, int64_t{24}, 2 * kW + 1}) {
    const int64_t rows_total = 2 * kW + 24;
    const int64_t n_total = rows_total * d;
    const int64_t padded = RoundUpToLanes(n_total);
    const Tensor fg = RandomTensor({rows_total, 2 * d},
                                   1000 + static_cast<uint64_t>(d), 4.0f);
    const Tensor grad = RandomTensor({padded}, 1100 + static_cast<uint64_t>(d));
    // Full-lane reference over de-interleaved, padded filter/gate arrays.
    std::vector<float> f(static_cast<size_t>(padded), 0.5f);
    std::vector<float> g(static_cast<size_t>(padded), 0.5f);
    for (int64_t r = 0; r < rows_total; ++r) {
      std::copy_n(fg.data() + r * 2 * d, d, f.data() + r * d);
      std::copy_n(fg.data() + r * 2 * d + d, d, g.data() + r * d);
    }
    std::vector<float> ref(static_cast<size_t>(padded));
    std::vector<float> ref_df(static_cast<size_t>(padded));
    std::vector<float> ref_dg(static_cast<size_t>(padded));
    simd::GateInto(ref.data(), f.data(), g.data(), padded);
    simd::GateGradInto(ref_df.data(), ref_dg.data(), f.data(), g.data(),
                       grad.data(), padded);

    std::vector<float> out(static_cast<size_t>(n_total));
    std::vector<float> dfg(static_cast<size_t>(2 * n_total));
    for (int64_t r0 = 0; r0 <= 2 * kW; ++r0) {
      for (int64_t rows = 1; r0 + rows <= rows_total; ++rows) {
        simd::GateRowsInto(out.data(), fg.data() + r0 * 2 * d, rows, d);
        simd::GateGradRowsInto(dfg.data(), fg.data() + r0 * 2 * d,
                               grad.data() + r0 * d, rows, d);
        for (int64_t r = 0; r < rows; ++r) {
          for (int64_t j = 0; j < d; ++j) {
            const auto e = static_cast<size_t>((r0 + r) * d + j);
            // Only formatted when an assertion fails.
            auto where = [&] {
              return "d " + std::to_string(d) + " row0 " + std::to_string(r0) +
                     " rows " + std::to_string(rows) + " at (" +
                     std::to_string(r) + ", " + std::to_string(j) + ")";
            };
            ASSERT_EQ(Bits(out[static_cast<size_t>(r * d + j)]), Bits(ref[e]))
                << "gate " << where();
            ASSERT_EQ(Bits(dfg[static_cast<size_t>(r * 2 * d + j)]),
                      Bits(ref_df[e]))
                << "filter grad " << where();
            ASSERT_EQ(Bits(dfg[static_cast<size_t>(r * 2 * d + d + j)]),
                      Bits(ref_dg[e]))
                << "gate grad " << where();
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace imdiff
