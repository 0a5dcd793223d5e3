#include <cmath>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/autograd.h"
#include "utils/rng.h"

namespace imdiff {
namespace nn {
namespace {

// Central-difference numerical gradient of a scalar function of one tensor
// input, compared against the autograd gradient.
void CheckGradient(const std::function<Var(const Var&)>& f, const Shape& shape,
                   uint64_t seed, float tol = 2e-2f) {
  Rng rng(seed);
  Tensor x0 = Tensor::Randn(shape, rng, 0.5f);
  Var x(x0.Clone(), /*requires_grad=*/true);
  Var loss = SumV(f(x));
  Backward(loss);
  const Tensor& grad = x.grad();
  const float eps = 1e-3f;
  for (int64_t i = 0; i < x0.numel(); ++i) {
    Tensor plus = x0.Clone();
    plus.mutable_data()[i] += eps;
    Tensor minus = x0.Clone();
    minus.mutable_data()[i] -= eps;
    const double fp = SumV(f(Var(plus))).value().flat(0);
    const double fm = SumV(f(Var(minus))).value().flat(0);
    const double numeric = (fp - fm) / (2.0 * eps);
    EXPECT_NEAR(grad.flat(i), numeric, tol)
        << "coordinate " << i << " of " << ShapeToString(shape);
  }
}

TEST(AutogradTest, AddGradient) {
  CheckGradient([](const Var& x) { return Add(x, x); }, {2, 3}, 1);
}

TEST(AutogradTest, SubGradient) {
  Rng rng(2);
  Tensor c = Tensor::Randn({2, 3}, rng);
  CheckGradient([&](const Var& x) { return Sub(x, Var(c)); }, {2, 3}, 2);
}

TEST(AutogradTest, MulGradient) {
  CheckGradient([](const Var& x) { return Mul(x, x); }, {4}, 3);
}

TEST(AutogradTest, BroadcastAddGradient) {
  // Gradient must reduce over the broadcast axis.
  Rng rng(4);
  Tensor big = Tensor::Randn({3, 4}, rng);
  CheckGradient([&](const Var& x) { return Add(Var(big), x); }, {4}, 4);
}

TEST(AutogradTest, ScaleNegAddScalar) {
  CheckGradient(
      [](const Var& x) { return AddScalarV(Neg(ScaleV(x, 3.0f)), 2.0f); },
      {5}, 5);
}

TEST(AutogradTest, MulConstGradient) {
  Rng rng(6);
  Tensor c = Tensor::Randn({2, 3}, rng);
  CheckGradient([&](const Var& x) { return MulConst(x, c); }, {2, 3}, 6);
}

TEST(AutogradTest, MatMulGradientAllTransposeVariants) {
  Rng rng(7);
  Tensor w = Tensor::Randn({3, 4}, rng);
  CheckGradient([&](const Var& x) { return MatMulV(x, Var(w)); }, {2, 3}, 7);
  Tensor wt = Tensor::Randn({4, 3}, rng);
  CheckGradient([&](const Var& x) { return MatMulV(x, Var(wt), false, true); },
                {2, 3}, 8);
  CheckGradient([&](const Var& x) { return MatMulV(x, Var(w), true, false); },
                {3, 2}, 9);
}

TEST(AutogradTest, MatMulWeightGradient) {
  Rng rng(10);
  Tensor x = Tensor::Randn({2, 3}, rng);
  CheckGradient([&](const Var& w) { return MatMulV(Var(x), w); }, {3, 4}, 10);
}

TEST(AutogradTest, BatchedMatMulGradient) {
  Rng rng(11);
  Tensor b = Tensor::Randn({2, 3, 2}, rng);
  CheckGradient([&](const Var& x) { return BatchedMatMulV(x, Var(b)); },
                {2, 2, 3}, 11);
  CheckGradient(
      [&](const Var& x) { return BatchedMatMulV(x, Var(b), true, false); },
      {2, 3, 2}, 12);
}

TEST(AutogradTest, ReshapePermuteGradient) {
  CheckGradient(
      [](const Var& x) {
        return PermuteV(ReshapeV(x, {2, 3}), {1, 0});
      },
      {6}, 13);
}

TEST(AutogradTest, ConcatSliceGradient) {
  CheckGradient(
      [](const Var& x) {
        Var a = SliceV(x, 0, 0, 2);
        Var b = SliceV(x, 0, 2, 2);
        return ConcatV({Mul(a, a), ScaleV(b, 2.0f)}, 0);
      },
      {4, 2}, 14);
}

TEST(AutogradTest, GatherRowsGradient) {
  // Repeated indices must accumulate.
  Rng rng(15);
  Tensor table0 = Tensor::Randn({3, 2}, rng);
  Var table(table0.Clone(), true);
  Var out = GatherRowsV(table, {0, 2, 0});
  Backward(SumV(out));
  EXPECT_NEAR(table.grad().at(0, 0), 2.0f, 1e-5);
  EXPECT_NEAR(table.grad().at(1, 0), 0.0f, 1e-5);
  EXPECT_NEAR(table.grad().at(2, 1), 1.0f, 1e-5);
}

// Parameterized gradient check over every unary activation.
using UnaryFn = Var (*)(const Var&);
struct UnaryCase {
  const char* name;
  UnaryFn fn;
};

// Print the case by name only: gtest's default printer would show the
// pointers, which change from build to build and so would make the listed
// test names unstable.
void PrintTo(const UnaryCase& c, std::ostream* os) { *os << c.name; }

class UnaryGradTest : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(UnaryGradTest, MatchesNumerical) {
  UnaryFn fn = GetParam().fn;
  CheckGradient([fn](const Var& x) { return fn(x); }, {3, 4},
                static_cast<uint64_t>(std::hash<std::string>{}(
                    GetParam().name)) % 1000 + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Activations, UnaryGradTest,
    ::testing::Values(UnaryCase{"relu", &ReluV}, UnaryCase{"gelu", &GeluV},
                      UnaryCase{"silu", &SiluV}, UnaryCase{"tanh", &TanhV},
                      UnaryCase{"sigmoid", &SigmoidV},
                      UnaryCase{"exp", &ExpV},
                      UnaryCase{"softplus", &SoftplusV},
                      UnaryCase{"softmax", &SoftmaxV}),
    [](const ::testing::TestParamInfo<UnaryCase>& info) {
      return info.param.name;
    });

// The fused DiffWave gate. D = 24 (the Fast config's hidden size) is not a
// multiple of the AVX-512 lane width, so the row kernels' tails are covered;
// random output weights make the upstream gradient non-uniform.
TEST(AutogradTest, GateGradient) {
  Rng rng(24);
  Tensor w = Tensor::Randn({2, 3, 24}, rng);
  CheckGradient([&](const Var& x) { return MulConst(GateV(x), w); },
                {2, 3, 48}, 24);
}

// GateV keeps the unfused composition's arithmetic: the same values and the
// same gradients, (g*s)*(1-t^2) and (g*t)*(s*(1-s)), bit for bit.
TEST(AutogradTest, GateMatchesUnfusedComposition) {
  Rng rng(25);
  const Tensor x0 = Tensor::Randn({3, 5, 40}, rng, 2.0f);
  const Tensor w = Tensor::Randn({3, 5, 20}, rng);
  Var fused_x(x0.Clone(), true);
  Var fused = GateV(fused_x);
  Backward(SumV(MulConst(fused, w)));
  Var split_x(x0.Clone(), true);
  Var split = Mul(TanhV(SliceV(split_x, 2, 0, 20)),
                  SigmoidV(SliceV(split_x, 2, 20, 20)));
  Backward(SumV(MulConst(split, w)));
  ASSERT_EQ(fused.value().shape(), split.value().shape());
  for (int64_t i = 0; i < fused.value().numel(); ++i) {
    ASSERT_EQ(fused.value().flat(i), split.value().flat(i)) << "value " << i;
  }
  for (int64_t i = 0; i < x0.numel(); ++i) {
    ASSERT_EQ(fused_x.grad().flat(i), split_x.grad().flat(i)) << "grad " << i;
  }
}

TEST(AutogradTest, LayerNormGradient) {
  Rng rng(20);
  Tensor gamma = Tensor::Randn({4}, rng);
  Tensor beta = Tensor::Randn({4}, rng);
  CheckGradient(
      [&](const Var& x) {
        return LayerNormV(x, Var(gamma), Var(beta));
      },
      {3, 4}, 20, 5e-2f);
}

TEST(AutogradTest, LayerNormParamGradients) {
  Rng rng(21);
  Tensor x = Tensor::Randn({3, 4}, rng);
  Var gamma(Tensor::Full({4}, 1.0f), true);
  Var beta(Tensor::Zeros({4}), true);
  Backward(SumV(LayerNormV(Var(x), gamma, beta)));
  // d/dbeta of sum = number of rows for each column.
  for (int64_t j = 0; j < 4; ++j) EXPECT_NEAR(beta.grad().flat(j), 3.0f, 1e-4);
  EXPECT_TRUE(gamma.has_grad());
}

TEST(AutogradTest, MseLossGradient) {
  Rng rng(22);
  Tensor target = Tensor::Randn({2, 3}, rng);
  CheckGradient([&](const Var& x) { return MseLossV(x, target); }, {2, 3}, 22);
}

TEST(AutogradTest, MaskedMseGradientZeroOutsideMask) {
  Rng rng(23);
  Tensor target = Tensor::Randn({2, 2}, rng);
  Tensor mask({2, 2}, {1, 0, 0, 1});
  Tensor x0 = Tensor::Randn({2, 2}, rng);
  Var x(x0, true);
  Backward(MaskedMseLossV(x, target, mask));
  EXPECT_NE(x.grad().flat(0), 0.0f);
  EXPECT_EQ(x.grad().flat(1), 0.0f);
  EXPECT_EQ(x.grad().flat(2), 0.0f);
  EXPECT_NE(x.grad().flat(3), 0.0f);
}

TEST(AutogradTest, GradientAccumulatesAcrossUses) {
  Var x(Tensor::Full({2}, 3.0f), true);
  // loss = sum(x) + sum(2x) -> d/dx = 3.
  Var loss = Add(SumV(x), SumV(ScaleV(x, 2.0f)));
  Backward(loss);
  EXPECT_NEAR(x.grad().flat(0), 3.0f, 1e-5);
}

TEST(AutogradTest, ClearGradResets) {
  Var x(Tensor::Full({2}, 1.0f), true);
  Backward(SumV(x));
  EXPECT_TRUE(x.has_grad());
  x.ClearGrad();
  EXPECT_FALSE(x.has_grad());
  Backward(SumV(ScaleV(x, 2.0f)));
  EXPECT_NEAR(x.grad().flat(0), 2.0f, 1e-5);
}

TEST(AutogradTest, NoGradForConstants) {
  Var x(Tensor::Full({2}, 1.0f), /*requires_grad=*/false);
  Var y = ScaleV(x, 2.0f);
  Backward(SumV(y));
  EXPECT_FALSE(x.has_grad());
}

TEST(AutogradTest, DeepChainGradient) {
  // 30 chained ops; gradient should be exact product of scales.
  Var x(Tensor::Full({1}, 1.0f), true);
  Var y = x;
  for (int i = 0; i < 30; ++i) y = ScaleV(y, 1.1f);
  Backward(SumV(y));
  EXPECT_NEAR(x.grad().flat(0), std::pow(1.1f, 30.0f), 1e-2);
}

TEST(AutogradTest, DropoutZeroProbabilityIsIdentity) {
  Rng rng(30);
  Tensor x0 = Tensor::Randn({4, 4}, rng);
  Var x(x0, true);
  Var y = DropoutV(x, 0.0f, rng);
  for (int64_t i = 0; i < x0.numel(); ++i) {
    EXPECT_EQ(y.value().flat(i), x0.flat(i));
  }
}

TEST(AutogradTest, DropoutScalesSurvivors) {
  Rng rng(31);
  Tensor x0 = Tensor::Full({1000}, 1.0f);
  Var y = DropoutV(Var(x0), 0.5f, rng);
  int zeros = 0;
  for (int64_t i = 0; i < 1000; ++i) {
    const float v = y.value().flat(i);
    EXPECT_TRUE(v == 0.0f || std::abs(v - 2.0f) < 1e-5);
    zeros += v == 0.0f;
  }
  EXPECT_GT(zeros, 350);
  EXPECT_LT(zeros, 650);
}

TEST(AutogradTest, MeanVAndSumVRelate) {
  Rng rng(32);
  Tensor t = Tensor::Randn({5, 4}, rng);
  Var x(t);
  EXPECT_NEAR(SumV(x).value().flat(0) / 20.0f, MeanV(x).value().flat(0), 1e-4);
}

}  // namespace
}  // namespace nn
}  // namespace imdiff
