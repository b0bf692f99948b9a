// Tests for src/model: softmax objective correctness (values, gradients,
// Hessian-vector products — checked against finite differences across a
// parameterized sweep of class counts and dimensions), LSE stability,
// prox wrapper, prediction, metrics.
#include <gtest/gtest.h>

#include <cmath>

#include "data/generators.hpp"
#include "helpers.hpp"
#include "la/flops.hpp"
#include "la/vector_ops.hpp"
#include "model/metrics.hpp"
#include "model/prox.hpp"
#include "model/softmax.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace nadmm::model {
namespace {

using test::gradient_fd_error;
using test::hessian_fd_error;

std::vector<double> random_point(std::size_t dim, double scale,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(dim);
  for (double& v : x) v = scale * rng.normal();
  return x;
}

// ------------------------------------------------------------ basics

TEST(Softmax, DimIsClassesMinusOneTimesFeatures) {
  auto tt = data::make_blobs(30, 10, 7, 5, 3.0, 1.0, 1);
  SoftmaxObjective obj(tt.train, 0.0);
  EXPECT_EQ(obj.dim(), 7u * 4u);
  EXPECT_EQ(obj.num_samples(), 30u);
  EXPECT_EQ(obj.num_classes(), 5);
}

TEST(Softmax, ValueAtZeroIsNLogC) {
  // At x = 0 every class has probability 1/C, so the loss is n·log C.
  auto tt = data::make_blobs(64, 10, 5, 4, 3.0, 1.0, 2);
  SoftmaxObjective obj(tt.train, 0.0);
  std::vector<double> x(obj.dim(), 0.0);
  EXPECT_NEAR(obj.value(x), 64.0 * std::log(4.0), 1e-9);
}

TEST(Softmax, RegularizationAddsRidge) {
  auto tt = data::make_blobs(20, 5, 4, 3, 3.0, 1.0, 3);
  SoftmaxObjective plain(tt.train, 0.0);
  SoftmaxObjective ridged(tt.train, 0.5);
  const auto x = random_point(plain.dim(), 0.3, 4);
  EXPECT_NEAR(ridged.value(x), plain.value(x) + 0.25 * la::nrm2_sq(x), 1e-9);
}

TEST(Softmax, RejectsBadInputs) {
  auto tt = data::make_blobs(10, 5, 4, 3, 3.0, 1.0, 5);
  EXPECT_THROW(SoftmaxObjective(tt.train, -1.0), InvalidArgument);
  SoftmaxObjective obj(tt.train, 0.0);
  std::vector<double> wrong(obj.dim() + 1, 0.0);
  EXPECT_THROW(obj.value(wrong), InvalidArgument);
}

TEST(Softmax, ValueAndGradientMatchesSeparateCalls) {
  auto tt = data::make_blobs(40, 5, 6, 4, 3.0, 1.0, 6);
  SoftmaxObjective obj(tt.train, 1e-3);
  const auto x = random_point(obj.dim(), 0.2, 7);
  std::vector<double> g1(obj.dim()), g2(obj.dim());
  const double f_fused = obj.value_and_gradient(x, g1);
  const double f_plain = obj.value(x);
  obj.gradient(x, g2);
  EXPECT_DOUBLE_EQ(f_fused, f_plain);
  for (std::size_t i = 0; i < g1.size(); ++i) EXPECT_DOUBLE_EQ(g1[i], g2[i]);
}

// ------------------------------------------------------- derivatives (sweep)

struct SweepCase {
  int classes;
  std::size_t p;
  double lambda;
  bool sparse;
};

class DerivativeSweep : public testing::TestWithParam<SweepCase> {};

TEST_P(DerivativeSweep, GradientMatchesFiniteDifferences) {
  const auto c = GetParam();
  data::TrainTest tt =
      c.sparse ? data::make_e18_like(40, 5, std::max<std::size_t>(c.p, 64), 8)
               : data::make_blobs(40, 5, c.p, c.classes, 3.0, 1.0, 8);
  SoftmaxObjective obj(tt.train, c.lambda);
  const auto x = random_point(obj.dim(), 0.1, 9);
  EXPECT_LT(gradient_fd_error(obj, x, 4), 1e-5);
}

TEST_P(DerivativeSweep, HessianMatchesFiniteDifferences) {
  const auto c = GetParam();
  data::TrainTest tt =
      c.sparse ? data::make_e18_like(40, 5, std::max<std::size_t>(c.p, 64), 8)
               : data::make_blobs(40, 5, c.p, c.classes, 3.0, 1.0, 8);
  SoftmaxObjective obj(tt.train, c.lambda);
  const auto x = random_point(obj.dim(), 0.1, 10);
  EXPECT_LT(hessian_fd_error(obj, x, 4), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, DerivativeSweep,
    testing::Values(SweepCase{2, 6, 0.0, false}, SweepCase{2, 6, 1e-2, false},
                    SweepCase{3, 10, 0.0, false}, SweepCase{5, 8, 1e-3, false},
                    SweepCase{10, 12, 0.0, false}, SweepCase{7, 5, 1.0, false},
                    SweepCase{20, 64, 1e-3, true},
                    SweepCase{20, 128, 0.0, true}));

// ------------------------------------------------------------ Hessian PSD

TEST(Softmax, HessianIsPositiveSemidefinite) {
  auto tt = data::make_blobs(50, 5, 8, 4, 3.0, 1.0, 12);
  SoftmaxObjective obj(tt.train, 0.0);
  const auto x = random_point(obj.dim(), 0.3, 13);
  Rng rng(14);
  std::vector<double> hv(obj.dim());
  for (int t = 0; t < 20; ++t) {
    const auto v = random_point(obj.dim(), 1.0, 100 + t);
    obj.hessian_vec(x, v, hv);
    EXPECT_GE(la::dot(v, hv), -1e-9) << "vᵀHv must be >= 0 (convexity)";
  }
}

TEST(Softmax, HessianIsLinearInV) {
  auto tt = data::make_blobs(30, 5, 6, 3, 3.0, 1.0, 15);
  SoftmaxObjective obj(tt.train, 1e-2);
  const auto x = random_point(obj.dim(), 0.2, 16);
  const auto v1 = random_point(obj.dim(), 1.0, 17);
  const auto v2 = random_point(obj.dim(), 1.0, 18);
  std::vector<double> hv1(obj.dim()), hv2(obj.dim()), hsum(obj.dim()),
      combo(obj.dim());
  obj.hessian_vec(x, v1, hv1);
  obj.hessian_vec(x, v2, hv2);
  for (std::size_t i = 0; i < obj.dim(); ++i) combo[i] = 2.0 * v1[i] - 3.0 * v2[i];
  obj.hessian_vec(x, combo, hsum);
  for (std::size_t i = 0; i < obj.dim(); ++i) {
    EXPECT_NEAR(hsum[i], 2.0 * hv1[i] - 3.0 * hv2[i], 1e-8);
  }
}

TEST(Softmax, HessianIsSymmetric) {
  auto tt = data::make_blobs(30, 5, 5, 4, 3.0, 1.0, 19);
  SoftmaxObjective obj(tt.train, 0.0);
  const auto x = random_point(obj.dim(), 0.2, 20);
  const auto u = random_point(obj.dim(), 1.0, 21);
  const auto v = random_point(obj.dim(), 1.0, 22);
  std::vector<double> hu(obj.dim()), hv(obj.dim());
  obj.hessian_vec(x, u, hu);
  obj.hessian_vec(x, v, hv);
  EXPECT_NEAR(la::dot(v, hu), la::dot(u, hv), 1e-8 * (1.0 + std::abs(la::dot(v, hu))));
}

// ------------------------------------------------------------ LSE stability

TEST(Softmax, LogSumExpStableUnderHugeScores) {
  // Without the paper's §6 trick, scores of ±1000 overflow exp().
  la::DenseMatrix x(4, 2, {1000.0, 0.0, -1000.0, 0.0, 0.0, 1000.0, 0.0, -1000.0});
  auto ds = data::Dataset::dense(std::move(x), {0, 1, 1, 0}, 3);
  SoftmaxObjective obj(ds, 0.0);
  std::vector<double> w(obj.dim(), 1.0);
  const double f = obj.value(w);
  EXPECT_TRUE(std::isfinite(f));
  std::vector<double> g(obj.dim());
  obj.gradient(w, g);
  for (double v : g) EXPECT_TRUE(std::isfinite(v));
  std::vector<double> hv(obj.dim());
  obj.hessian_vec(w, w, hv);
  for (double v : hv) EXPECT_TRUE(std::isfinite(v));
}

TEST(Softmax, BinaryCaseMatchesLogisticRegression) {
  // C = 2 with implicit reference class reduces to logistic regression:
  // loss_i = log(1 + e^{s}) − b_i·s.
  la::DenseMatrix x(3, 2, {1.0, 2.0, -1.0, 0.5, 0.0, 1.0});
  auto feats = x;  // keep a copy for manual computation
  auto ds = data::Dataset::dense(std::move(x), {1, 0, 1}, 2);
  SoftmaxObjective obj(ds, 0.0);
  std::vector<double> w{0.3, -0.7};
  double expected = 0.0;
  const std::vector<int> labels{1, 0, 1};
  for (std::size_t i = 0; i < 3; ++i) {
    const double s = feats.at(i, 0) * w[0] + feats.at(i, 1) * w[1];
    // label 0 is the explicit class (score s), label 1 the implicit one.
    expected += std::log(1.0 + std::exp(s)) - (labels[i] == 0 ? s : 0.0);
  }
  EXPECT_NEAR(obj.value(w), expected, 1e-10);
}

// ------------------------------------------------------------ prediction

TEST(Softmax, PredictRecoversSeparableLabels) {
  auto tt = data::make_blobs(400, 100, 10, 4, 8.0, 0.3, 23);  // well separated
  SoftmaxObjective obj(tt.train, 0.0);
  // A few Newton-ish steps via gradient descent to get a decent model:
  std::vector<double> x(obj.dim(), 0.0), g(obj.dim());
  for (int it = 0; it < 200; ++it) {
    obj.gradient(x, g);
    la::axpy(-0.002, g, x);
  }
  EXPECT_GT(obj.accuracy(x), 0.95);
  const auto preds = obj.predict(x);
  EXPECT_EQ(preds.size(), 400u);
  for (auto p : preds) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 4);
  }
}

TEST(Metrics, AccuracyAndObjectiveHelpers) {
  auto tt = data::make_blobs(50, 50, 6, 3, 3.0, 1.0, 24);
  SoftmaxObjective obj(tt.test, 0.0);
  const auto x = random_point(obj.dim(), 0.1, 25);
  EXPECT_DOUBLE_EQ(accuracy(tt.test, x), obj.accuracy(x));
  SoftmaxObjective reg(tt.test, 1e-2);
  EXPECT_DOUBLE_EQ(objective_value(tt.test, x, 1e-2), reg.value(x));
}

// ------------------------------------------------------------ prox wrapper

TEST(Prox, ValueGradientHessianAugmented) {
  auto tt = data::make_blobs(30, 5, 5, 3, 3.0, 1.0, 26);
  SoftmaxObjective base(tt.train, 0.0);
  const std::size_t dim = base.dim();
  const auto center = random_point(dim, 0.5, 27);
  const double rho = 2.5;
  ProxAugmentedObjective prox(base, rho, center);
  const auto x = random_point(dim, 0.3, 28);

  const double d = la::dist2(x, center);
  EXPECT_NEAR(prox.value(x), base.value(x) + 0.5 * rho * d * d, 1e-9);

  std::vector<double> gp(dim), gb(dim);
  prox.gradient(x, gp);
  base.gradient(x, gb);
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(gp[i], gb[i] + rho * (x[i] - center[i]), 1e-10);
  }

  const auto v = random_point(dim, 1.0, 29);
  std::vector<double> hp(dim), hb(dim);
  prox.hessian_vec(x, v, hp);
  base.hessian_vec(x, v, hb);
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(hp[i], hb[i] + rho * v[i], 1e-10);
  }
}

TEST(Prox, FiniteDifferenceConsistency) {
  auto tt = data::make_blobs(25, 5, 4, 3, 3.0, 1.0, 30);
  SoftmaxObjective base(tt.train, 1e-2);
  ProxAugmentedObjective prox(base, 1.7, random_point(base.dim(), 0.5, 31));
  const auto x = random_point(base.dim(), 0.2, 32);
  EXPECT_LT(gradient_fd_error(prox, x, 4), 1e-5);
  EXPECT_LT(hessian_fd_error(prox, x, 4), 1e-4);
}

TEST(Prox, SetRhoAndCenterTakeEffect) {
  auto tt = data::make_blobs(20, 5, 4, 3, 3.0, 1.0, 33);
  SoftmaxObjective base(tt.train, 0.0);
  const std::size_t dim = base.dim();
  ProxAugmentedObjective prox(base, 1.0, std::vector<double>(dim, 0.0));
  const auto x = random_point(dim, 0.3, 34);
  const double v1 = prox.value(x);
  prox.set_rho(4.0);
  const double v4 = prox.value(x);
  EXPECT_NEAR(v4 - base.value(x), 4.0 * (v1 - base.value(x)), 1e-9);
  const auto c = random_point(dim, 1.0, 35);
  prox.set_center(c);
  const double d = la::dist2(x, c);
  EXPECT_NEAR(prox.value(x), base.value(x) + 2.0 * d * d, 1e-9);
}

TEST(Prox, ValidatesArguments) {
  auto tt = data::make_blobs(10, 5, 4, 3, 3.0, 1.0, 36);
  SoftmaxObjective base(tt.train, 0.0);
  EXPECT_THROW(
      ProxAugmentedObjective(base, -1.0, std::vector<double>(base.dim(), 0.0)),
      InvalidArgument);
  EXPECT_THROW(ProxAugmentedObjective(base, 1.0, std::vector<double>(3, 0.0)),
               InvalidArgument);
  ProxAugmentedObjective prox(base, 1.0, std::vector<double>(base.dim(), 0.0));
  EXPECT_THROW(prox.set_rho(-2.0), InvalidArgument);
  EXPECT_THROW(prox.set_center(std::vector<double>(2, 0.0)), InvalidArgument);
}

// ----------------------------------------------------- cache correctness

TEST(Softmax, ForwardCacheInvalidatesOnNewPoint) {
  auto tt = data::make_blobs(30, 5, 5, 3, 3.0, 1.0, 37);
  SoftmaxObjective obj(tt.train, 0.0);
  const auto x1 = random_point(obj.dim(), 0.2, 38);
  const auto x2 = random_point(obj.dim(), 0.2, 39);
  const double f1 = obj.value(x1);
  const double f2 = obj.value(x2);
  EXPECT_NE(f1, f2);
  // Going back must give the original value (not the cached new one).
  EXPECT_DOUBLE_EQ(obj.value(x1), f1);
}

TEST(Softmax, HvpAfterValueUsesConsistentPoint) {
  // Regression guard: hessian_vec(x2, ...) after value(x1) must use the
  // forward pass at x2, not the stale cache.
  auto tt = data::make_blobs(30, 5, 5, 3, 3.0, 1.0, 40);
  SoftmaxObjective obj1(tt.train, 0.0), obj2(tt.train, 0.0);
  const auto x1 = random_point(obj1.dim(), 0.2, 41);
  const auto x2 = random_point(obj1.dim(), 0.2, 42);
  const auto v = random_point(obj1.dim(), 1.0, 43);
  std::vector<double> hv_stale(obj1.dim()), hv_fresh(obj1.dim());
  (void)obj1.value(x1);
  obj1.hessian_vec(x2, v, hv_stale);
  obj2.hessian_vec(x2, v, hv_fresh);
  for (std::size_t i = 0; i < obj1.dim(); ++i) {
    EXPECT_EQ(hv_stale[i], hv_fresh[i]) << i;
  }
}

TEST(Softmax, ConstValueScoresWithoutTouchingTheCache) {
  auto tt = data::make_blobs(40, 6, 5, 4, 3.0, 1.0, 44);
  SoftmaxObjective obj(tt.train, 0.3), fresh(tt.train, 0.3);
  const SoftmaxObjective& scorer = obj;
  const auto x = random_point(obj.dim(), 0.2, 45);
  const auto z = random_point(obj.dim(), 0.2, 46);
  const double fx = obj.value(x);  // warms the cache at x
  // Bitwise equal to value() at the cached point and at a new one.
  EXPECT_EQ(scorer.value(x), fx);
  EXPECT_EQ(scorer.value(z), fresh.value(z));
  EXPECT_EQ(scorer.value(z), scorer.value(z));

  // The cache still holds x: a gradient there costs what it costs on an
  // objective that never scored z, so no forward flops are charged.
  SoftmaxObjective warm(tt.train, 0.3);
  static_cast<void>(warm.value(x));
  std::vector<double> g(obj.dim()), g_warm(obj.dim());
  const flops::Scope scope;
  obj.gradient(x, g);
  const std::uint64_t charged = scope.elapsed();
  const flops::Scope warm_scope;
  warm.gradient(x, g_warm);
  EXPECT_EQ(charged, warm_scope.elapsed());
  EXPECT_EQ(g, g_warm);
  // A forward pass at a new point is still charged in full.
  const flops::Scope cold_scope;
  static_cast<void>(scorer.value(random_point(obj.dim(), 0.2, 47)));
  EXPECT_GT(cold_scope.elapsed(), 0u);
}

}  // namespace
}  // namespace nadmm::model
