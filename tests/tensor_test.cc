#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "utils/rng.h"

namespace imdiff {
namespace {

TEST(TensorTest, ConstructionAndShape) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.ndim(), 2u);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t.flat(i), 0.0f);
}

TEST(TensorTest, FromValues) {
  Tensor t({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at(0, 0), 1.0f);
  EXPECT_EQ(t.at(0, 1), 2.0f);
  EXPECT_EQ(t.at(1, 0), 3.0f);
  EXPECT_EQ(t.at(1, 1), 4.0f);
}

TEST(TensorTest, FullAndScalar) {
  Tensor t = Tensor::Full({3}, 2.5f);
  EXPECT_EQ(t.flat(2), 2.5f);
  EXPECT_EQ(Tensor::Scalar(7.0f).flat(0), 7.0f);
}

TEST(TensorTest, ReshapeSharesStorage) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = t.Reshape({3, 2});
  EXPECT_EQ(r.at(2, 1), 6.0f);
  // Shared storage: mutating the original is visible through the view.
  t.mutable_data()[0] = 42.0f;
  EXPECT_EQ(r.flat(0), 42.0f);
}

TEST(TensorTest, ReshapeInfersDimension) {
  Tensor t({4, 3});
  EXPECT_EQ(t.Reshape({2, -1}).dim(1), 6);
  EXPECT_EQ(t.Reshape({-1}).dim(0), 12);
}

TEST(TensorTest, CloneIsDeep) {
  Tensor t({2}, {1, 2});
  Tensor c = t.Clone();
  t.mutable_data()[0] = 9.0f;
  EXPECT_EQ(c.flat(0), 1.0f);
}

TEST(TensorTest, RandnStatistics) {
  Rng rng(1);
  Tensor t = Tensor::Randn({10000}, rng);
  double mean = MeanAll(t);
  double var = 0;
  for (int64_t i = 0; i < t.numel(); ++i) {
    var += (t.flat(i) - mean) * (t.flat(i) - mean);
  }
  var /= t.numel();
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(MatMulTest, Basic2D) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.at(0, 0), 58.0f);
  EXPECT_EQ(c.at(0, 1), 64.0f);
  EXPECT_EQ(c.at(1, 0), 139.0f);
  EXPECT_EQ(c.at(1, 1), 154.0f);
}

// All four transpose variants must agree with explicitly permuted inputs.
TEST(MatMulTest, TransposeFlagsAgree) {
  Rng rng(2);
  Tensor a = Tensor::Randn({4, 5}, rng);
  Tensor b = Tensor::Randn({5, 3}, rng);
  Tensor expected = MatMul(a, b);
  Tensor at = Permute(a, {1, 0});
  Tensor bt = Permute(b, {1, 0});
  Tensor r1 = MatMul(at, b, /*ta=*/true, false);
  Tensor r2 = MatMul(a, bt, false, /*tb=*/true);
  Tensor r3 = MatMul(at, bt, true, true);
  for (int64_t i = 0; i < expected.numel(); ++i) {
    EXPECT_NEAR(r1.flat(i), expected.flat(i), 1e-4);
    EXPECT_NEAR(r2.flat(i), expected.flat(i), 1e-4);
    EXPECT_NEAR(r3.flat(i), expected.flat(i), 1e-4);
  }
}

// Unrolled kernel must match a naive reference on odd sizes (remainder path).
TEST(MatMulTest, MatchesNaiveOnOddSizes) {
  Rng rng(3);
  for (int64_t k : {1, 2, 3, 5, 7, 9}) {
    Tensor a = Tensor::Randn({3, k}, rng);
    Tensor b = Tensor::Randn({k, 4}, rng);
    Tensor c = MatMul(a, b);
    for (int64_t i = 0; i < 3; ++i) {
      for (int64_t j = 0; j < 4; ++j) {
        float acc = 0;
        for (int64_t p = 0; p < k; ++p) acc += a.at(i, p) * b.at(p, j);
        EXPECT_NEAR(c.at(i, j), acc, 1e-4) << "k=" << k;
      }
    }
  }
}

TEST(MatMulTest, Batched) {
  Rng rng(4);
  Tensor a = Tensor::Randn({3, 2, 4}, rng);
  Tensor b = Tensor::Randn({3, 4, 5}, rng);
  Tensor c = BatchedMatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{3, 2, 5}));
  // Spot check one batch against the 2D kernel.
  Tensor a1 = Slice(a, 0, 1, 1).Reshape({2, 4});
  Tensor b1 = Slice(b, 0, 1, 1).Reshape({4, 5});
  Tensor c1 = MatMul(a1, b1);
  for (int64_t i = 0; i < c1.numel(); ++i) {
    EXPECT_NEAR(c.flat(c1.numel() + i), c1.flat(i), 1e-4);
  }
}

TEST(BroadcastTest, ShapeRules) {
  EXPECT_EQ(BroadcastShape({2, 3}, {3}), (Shape{2, 3}));
  EXPECT_EQ(BroadcastShape({2, 1, 4}, {3, 1}), (Shape{2, 3, 4}));
  EXPECT_EQ(BroadcastShape({5}, {5}), (Shape{5}));
}

TEST(BroadcastTest, AddBiasRow) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3}, {10, 20, 30});
  Tensor c = Add(a, b);
  EXPECT_EQ(c.at(0, 0), 11.0f);
  EXPECT_EQ(c.at(1, 2), 36.0f);
}

TEST(BroadcastTest, MulMiddleAxis) {
  Tensor a({2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor b({2, 1, 2}, {1, 10, 100, 1000});
  Tensor c = Mul(a, b);
  EXPECT_EQ(c.at(0, 1, 1), 40.0f);
  EXPECT_EQ(c.at(1, 0, 0), 500.0f);
}

TEST(BroadcastTest, ReduceToShapeInvertsBroadcast) {
  Rng rng(5);
  Tensor g = Tensor::Randn({2, 3, 4}, rng);
  Tensor reduced = ReduceToShape(g, {3, 1});
  EXPECT_EQ(reduced.shape(), (Shape{3, 1}));
  // Entry (1,0) must equal the sum over axes 0 and 2 at middle index 1.
  double expected = 0;
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 4; ++j) expected += g.at(i, 1, j);
  }
  EXPECT_NEAR(reduced.flat(1), expected, 1e-4);
}

TEST(StructuralTest, PermuteRoundTrip) {
  Rng rng(6);
  Tensor t = Tensor::Randn({2, 3, 4}, rng);
  Tensor p = Permute(t, {2, 0, 1});
  EXPECT_EQ(p.shape(), (Shape{4, 2, 3}));
  EXPECT_EQ(p.at(1, 0, 2), t.at(0, 2, 1));
  Tensor back = Permute(p, {1, 2, 0});
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(back.flat(i), t.flat(i));
}

TEST(StructuralTest, ConcatAndSliceInverse) {
  Rng rng(7);
  Tensor a = Tensor::Randn({2, 3}, rng);
  Tensor b = Tensor::Randn({2, 2}, rng);
  Tensor c = Concat({a, b}, 1);
  EXPECT_EQ(c.shape(), (Shape{2, 5}));
  Tensor a2 = Slice(c, 1, 0, 3);
  Tensor b2 = Slice(c, 1, 3, 2);
  for (int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a2.flat(i), a.flat(i));
  for (int64_t i = 0; i < b.numel(); ++i) EXPECT_EQ(b2.flat(i), b.flat(i));
}

TEST(StructuralTest, SliceBackwardScatters) {
  Tensor g({2, 2}, {1, 2, 3, 4});
  Tensor full = SliceBackward(g, {2, 4}, 1, 1);
  EXPECT_EQ(full.at(0, 0), 0.0f);
  EXPECT_EQ(full.at(0, 1), 1.0f);
  EXPECT_EQ(full.at(0, 2), 2.0f);
  EXPECT_EQ(full.at(1, 1), 3.0f);
  EXPECT_EQ(full.at(1, 3), 0.0f);
}

TEST(SoftmaxTest, RowsSumToOne) {
  Rng rng(8);
  Tensor t = Tensor::Randn({5, 7}, rng, 3.0f);
  Tensor s = SoftmaxLastDim(t);
  for (int64_t r = 0; r < 5; ++r) {
    double sum = 0;
    for (int64_t j = 0; j < 7; ++j) {
      sum += s.at(r, j);
      EXPECT_GT(s.at(r, j), 0.0f);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(SoftmaxTest, StableUnderLargeInputs) {
  Tensor t({1, 3}, {1000.0f, 1000.0f, 1000.0f});
  Tensor s = SoftmaxLastDim(t);
  for (int64_t j = 0; j < 3; ++j) EXPECT_NEAR(s.flat(j), 1.0f / 3.0f, 1e-5);
}

TEST(ReduceTest, SumAxisKeepdim) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor s0 = ReduceSumAxis(t, 0, true);
  EXPECT_EQ(s0.shape(), (Shape{1, 3}));
  EXPECT_EQ(s0.flat(0), 5.0f);
  Tensor s1 = ReduceSumAxis(t, 1, false);
  EXPECT_EQ(s1.shape(), (Shape{2}));
  EXPECT_EQ(s1.flat(1), 15.0f);
  EXPECT_EQ(SumAll(t), 21.0);
  EXPECT_NEAR(MeanAll(t), 3.5, 1e-9);
}

TEST(Conv1dTest, IdentityKernel) {
  Tensor x({1, 1, 5}, {1, 2, 3, 4, 5});
  Tensor w({1, 1, 1}, {1});
  Tensor y = Conv1d(x, w, Tensor(), 0);
  for (int64_t i = 0; i < 5; ++i) EXPECT_EQ(y.flat(i), x.flat(i));
}

TEST(Conv1dTest, MatchesNaive) {
  Rng rng(9);
  Tensor x = Tensor::Randn({2, 3, 8}, rng);
  Tensor w = Tensor::Randn({4, 3, 3}, rng);
  Tensor bias = Tensor::Randn({4}, rng);
  const int pad = 1;
  Tensor y = Conv1d(x, w, bias, pad);
  EXPECT_EQ(y.shape(), (Shape{2, 4, 8}));
  for (int64_t b = 0; b < 2; ++b) {
    for (int64_t co = 0; co < 4; ++co) {
      for (int64_t l = 0; l < 8; ++l) {
        float acc = bias.flat(co);
        for (int64_t ci = 0; ci < 3; ++ci) {
          for (int64_t kk = 0; kk < 3; ++kk) {
            const int64_t pos = l + kk - pad;
            if (pos >= 0 && pos < 8) acc += w.at(co, ci, kk) * x.at(b, ci, pos);
          }
        }
        EXPECT_NEAR(y.at(b, co, l), acc, 1e-4);
      }
    }
  }
}

TEST(Conv1dTest, BackwardMatchesNumericalGradient) {
  Rng rng(10);
  Tensor x = Tensor::Randn({1, 2, 6}, rng);
  Tensor w = Tensor::Randn({2, 2, 3}, rng);
  Tensor bias = Tensor::Randn({2}, rng);
  const int pad = 1;
  Tensor y = Conv1d(x, w, bias, pad);
  Tensor grad_out = Tensor::Full(y.shape(), 1.0f);
  Tensor gx, gw, gb;
  Conv1dBackward(x, w, pad, grad_out, &gx, &gw, &gb);
  const float eps = 1e-3f;
  auto loss = [&](const Tensor& xx, const Tensor& ww, const Tensor& bb) {
    return SumAll(Conv1d(xx, ww, bb, pad));
  };
  // Check a few coordinates of each gradient numerically.
  for (int64_t i : {0, 3, 7}) {
    Tensor xp = x.Clone();
    xp.mutable_data()[i] += eps;
    const double num = (loss(xp, w, bias) - loss(x, w, bias)) / eps;
    EXPECT_NEAR(gx.flat(i), num, 5e-2);
  }
  for (int64_t i : {0, 5, 11}) {
    Tensor wp = w.Clone();
    wp.mutable_data()[i] += eps;
    const double num = (loss(x, wp, bias) - loss(x, w, bias)) / eps;
    EXPECT_NEAR(gw.flat(i), num, 5e-2);
  }
  for (int64_t i : {0, 1}) {
    Tensor bp = bias.Clone();
    bp.mutable_data()[i] += eps;
    const double num = (loss(x, w, bp) - loss(x, w, bias)) / eps;
    EXPECT_NEAR(gb.flat(i), num, 5e-2);
  }
}

// Property sweep: Map/Scale/AddScalar agree with their definitions across
// shapes.
class ElementwiseShapeTest : public ::testing::TestWithParam<Shape> {};

TEST_P(ElementwiseShapeTest, ScaleMapAddScalar) {
  Rng rng(11);
  Tensor t = Tensor::Randn(GetParam(), rng);
  Tensor s = Scale(t, 2.0f);
  Tensor a = AddScalar(t, 1.5f);
  Tensor m = Map(t, [](float v) { return v * v; });
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_EQ(s.flat(i), 2.0f * t.flat(i));
    EXPECT_EQ(a.flat(i), t.flat(i) + 1.5f);
    EXPECT_EQ(m.flat(i), t.flat(i) * t.flat(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ElementwiseShapeTest,
                         ::testing::Values(Shape{1}, Shape{7}, Shape{2, 3},
                                           Shape{2, 3, 4}, Shape{1, 1, 5, 2}));

}  // namespace
}  // namespace imdiff
