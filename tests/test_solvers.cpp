// Tests for src/solvers: CG against dense reference solves, Armijo line
// search invariants, Newton-CG convergence (with parameterized sweeps
// over conditioning and inexactness), SVRG on quadratic and softmax
// subproblems, minibatch slicing.
#include <gtest/gtest.h>

#include <cmath>

#include "data/generators.hpp"
#include "la/dense_matrix.hpp"
#include "la/vector_ops.hpp"
#include "model/softmax.hpp"
#include "solvers/cg.hpp"
#include "solvers/linesearch.hpp"
#include "solvers/minibatch.hpp"
#include "solvers/newton.hpp"
#include "solvers/svrg.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace nadmm::solvers {
namespace {

/// SPD test matrix A = Qᵀ diag(eigs) Q via random Householder-ish mixing.
la::DenseMatrix spd_matrix(const std::vector<double>& eigs, std::uint64_t seed) {
  const std::size_t n = eigs.size();
  Rng rng(seed);
  // Start from diag(eigs), apply a few random rotations G A Gᵀ.
  la::DenseMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) a.at(i, i) = eigs[i];
  for (int sweep = 0; sweep < 3; ++sweep) {
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const double theta = rng.uniform(0.0, 3.14159);
      const double c = std::cos(theta), s = std::sin(theta);
      const std::size_t j = i + 1;
      for (std::size_t k = 0; k < n; ++k) {  // rows
        const double ai = a.at(i, k), aj = a.at(j, k);
        a.at(i, k) = c * ai - s * aj;
        a.at(j, k) = s * ai + c * aj;
      }
      for (std::size_t k = 0; k < n; ++k) {  // cols
        const double ai = a.at(k, i), aj = a.at(k, j);
        a.at(k, i) = c * ai - s * aj;
        a.at(k, j) = s * ai + c * aj;
      }
    }
  }
  return a;
}

/// y = A·x.
void mat_vec(const la::DenseMatrix& a, std::span<const double> x,
             std::span<double> y) {
  for (std::size_t i = 0; i < a.rows(); ++i) y[i] = la::dot(a.row(i), x);
}

HvpFn matrix_hvp(const la::DenseMatrix& a) {
  return [&a](std::span<const double> v, std::span<double> out) {
    mat_vec(a, v, out);
  };
}

// ------------------------------------------------------------ CG

TEST(Cg, SolvesIdentityInOneIteration) {
  la::DenseMatrix eye(4, 4);
  for (std::size_t i = 0; i < 4; ++i) eye.at(i, i) = 1.0;
  std::vector<double> g{1, -2, 3, -4}, p(4);
  CgOptions opts;
  opts.rel_tol = 1e-12;
  const auto r = conjugate_gradient(matrix_hvp(eye), g, p, opts);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 1);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(p[i], -g[i], 1e-12);
}

TEST(Cg, ExactSolveInDimIterations) {
  // CG on an n-dim SPD system converges in ≤ n iterations exactly.
  const auto a = spd_matrix({1.0, 3.0, 7.0, 20.0, 55.0}, 1);
  Rng rng(2);
  std::vector<double> g(5), p(5), check(5);
  for (double& v : g) v = rng.normal();
  CgOptions opts;
  opts.max_iterations = 5;
  opts.rel_tol = 1e-12;
  const auto r = conjugate_gradient(matrix_hvp(a), g, p, opts);
  EXPECT_TRUE(r.converged);
  mat_vec(a, p, check);  // A p should equal −g
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(check[i], -g[i], 1e-8);
}

TEST(Cg, RespectsRelativeToleranceContract) {
  // Paper eq. (3b): on exit with converged=true, ‖Hp+g‖ ≤ θ‖g‖.
  const auto a = spd_matrix({0.1, 1.0, 5.0, 10.0, 40.0, 100.0}, 3);
  Rng rng(4);
  std::vector<double> g(6), p(6), residual(6);
  for (double& v : g) v = rng.normal();
  CgOptions opts;
  opts.max_iterations = 100;
  opts.rel_tol = 1e-3;
  const auto r = conjugate_gradient(matrix_hvp(a), g, p, opts);
  ASSERT_TRUE(r.converged);
  mat_vec(a, p, residual);
  la::axpy(1.0, g, residual);  // Hp + g
  EXPECT_LE(la::nrm2(residual), opts.rel_tol * la::nrm2(g) * (1 + 1e-12));
  EXPECT_NEAR(r.rel_residual, la::nrm2(residual) / la::nrm2(g), 1e-9);
}

TEST(Cg, EarlyStoppingCapsIterations) {
  const auto a = spd_matrix({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5);
  Rng rng(6);
  std::vector<double> g(10), p(10);
  for (double& v : g) v = rng.normal();
  CgOptions opts;
  opts.max_iterations = 3;
  opts.rel_tol = 1e-14;
  const auto r = conjugate_gradient(matrix_hvp(a), g, p, opts);
  EXPECT_EQ(r.iterations, 3);
  EXPECT_FALSE(r.converged);
  EXPECT_GT(la::nrm2(p), 0.0);  // still returns a useful direction
}

TEST(Cg, ZeroGradientReturnsZeroDirection) {
  const auto a = spd_matrix({1, 2, 3}, 7);
  std::vector<double> g(3, 0.0), p(3, 9.0);
  const auto r = conjugate_gradient(matrix_hvp(a), g, p, CgOptions{});
  EXPECT_TRUE(r.converged);
  for (double v : p) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Cg, NegativeCurvatureFallsBackToSteepestDescent) {
  la::DenseMatrix a(2, 2);
  a.at(0, 0) = -1.0;
  a.at(1, 1) = -1.0;
  std::vector<double> g{1.0, 2.0}, p(2);
  const auto r = conjugate_gradient(matrix_hvp(a), g, p, CgOptions{});
  EXPECT_TRUE(r.hit_negative_curvature);
  // p = −g (descent direction).
  EXPECT_DOUBLE_EQ(p[0], -1.0);
  EXPECT_DOUBLE_EQ(p[1], -2.0);
}

TEST(Cg, DescentDirectionProperty) {
  // For SPD systems CG directions satisfy pᵀg < 0 at any stopping point.
  Rng rng(8);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> eigs(8);
    for (double& e : eigs) e = rng.uniform(0.01, 50.0);
    const auto a = spd_matrix(eigs, 100 + trial);
    std::vector<double> g(8), p(8);
    for (double& v : g) v = rng.normal();
    CgOptions opts;
    opts.max_iterations = 1 + static_cast<int>(rng.uniform_index(8));
    conjugate_gradient(matrix_hvp(a), g, p, opts);
    EXPECT_LT(la::dot(p, g), 0.0);
  }
}

TEST(Cg, ValidatesOptions) {
  std::vector<double> g{1.0}, p{0.0};
  CgOptions bad;
  bad.max_iterations = 0;
  EXPECT_THROW(conjugate_gradient(matrix_hvp(la::DenseMatrix(1, 1)), g, p, bad),
               InvalidArgument);
  bad = CgOptions{};
  bad.rel_tol = 0.0;
  EXPECT_THROW(conjugate_gradient(matrix_hvp(la::DenseMatrix(1, 1)), g, p, bad),
               InvalidArgument);
}

// ------------------------------------------------------------ line search

/// 1-D style quadratic objective ½ xᵀAx + bᵀx as a model::Objective.
class QuadraticObjective final : public model::Objective {
 public:
  QuadraticObjective(la::DenseMatrix a, std::vector<double> b)
      : a_(std::move(a)), b_(std::move(b)) {}
  [[nodiscard]] std::size_t dim() const override { return b_.size(); }
  [[nodiscard]] std::size_t num_samples() const override { return 0; }
  double value(std::span<const double> x) override {
    std::vector<double> ax(dim());
    mat_vec(a_, x, ax);
    return 0.5 * la::dot(x, ax) + la::dot(b_, x);
  }
  void gradient(std::span<const double> x, std::span<double> g) override {
    mat_vec(a_, x, g);
    la::axpy(1.0, b_, g);
  }
  void hessian_vec(std::span<const double>, std::span<const double> v,
                   std::span<double> hv) override {
    mat_vec(a_, v, hv);
  }

 private:
  la::DenseMatrix a_;
  std::vector<double> b_;
};

TEST(LineSearch, AcceptsFullNewtonStepOnQuadratic) {
  // For a quadratic, the exact Newton step satisfies Armijo at α = 1.
  const auto a = spd_matrix({1, 4, 9}, 9);
  QuadraticObjective obj(a, {1.0, -2.0, 0.5});
  std::vector<double> x{0.2, -0.3, 0.8}, g(3), p(3);
  obj.gradient(x, g);
  CgOptions copts;
  copts.max_iterations = 10;
  copts.rel_tol = 1e-12;
  conjugate_gradient(
      [&](std::span<const double> v, std::span<double> hv) {
        obj.hessian_vec(x, v, hv);
      },
      g, p, copts);
  const auto r = armijo_backtrack(obj, x, p, obj.value(x), la::dot(p, g),
                                  LineSearchOptions{});
  EXPECT_TRUE(r.satisfied);
  EXPECT_DOUBLE_EQ(r.alpha, 1.0);
  EXPECT_EQ(r.iterations, 0);
}

TEST(LineSearch, BacktracksWhenFullStepOvershoots) {
  const auto a = spd_matrix({1, 1, 1}, 10);
  QuadraticObjective obj(a, {0.0, 0.0, 0.0});
  std::vector<double> x{1.0, 1.0, 1.0}, g(3);
  obj.gradient(x, g);
  // A deliberately overlong descent direction: p = −10 g.
  std::vector<double> p(3);
  for (std::size_t i = 0; i < 3; ++i) p[i] = -10.0 * g[i];
  const auto r = armijo_backtrack(obj, x, p, obj.value(x), la::dot(p, g),
                                  LineSearchOptions{});
  EXPECT_TRUE(r.satisfied);
  EXPECT_LT(r.alpha, 1.0);
  EXPECT_GT(r.iterations, 0);
  EXPECT_LT(r.f_new, obj.value(x));
}

TEST(LineSearch, ReturnsZeroWhenNoDecreasePossible) {
  const auto a = spd_matrix({1, 1}, 11);
  QuadraticObjective obj(a, {0.0, 0.0});
  std::vector<double> x{1.0, 0.0};
  std::vector<double> p{1.0, 0.0};  // ascent direction
  const double f0 = obj.value(x);
  // Lie about the directional derivative so Armijo can't ever pass.
  const auto r = armijo_backtrack(obj, x, p, f0, -1.0, LineSearchOptions{});
  EXPECT_FALSE(r.satisfied);
  EXPECT_DOUBLE_EQ(r.alpha, 0.0);
  EXPECT_DOUBLE_EQ(r.f_new, f0);
}

TEST(LineSearch, AcceptsDecreaseAfterImaxEvenIfArmijoFails) {
  // Tight beta makes Armijo essentially unsatisfiable, but the step still
  // decreases F — the paper's Algorithm 3 accepts it at i_max.
  const auto a = spd_matrix({1, 1}, 12);
  QuadraticObjective obj(a, {0.0, 0.0});
  std::vector<double> x{1.0, 1.0}, g(2), p(2);
  obj.gradient(x, g);
  for (std::size_t i = 0; i < 2; ++i) p[i] = -0.5 * g[i];
  LineSearchOptions opts;
  opts.beta = 0.999999;  // nearly exact decrease demanded
  opts.max_iterations = 3;
  const auto r = armijo_backtrack(obj, x, p, obj.value(x), la::dot(p, g), opts);
  EXPECT_GT(r.alpha, 0.0);
  EXPECT_LT(r.f_new, obj.value(x));
}

TEST(LineSearch, ValidatesOptions) {
  const auto a = spd_matrix({1}, 13);
  QuadraticObjective obj(a, {0.0});
  std::vector<double> x{1.0}, p{-1.0};
  LineSearchOptions bad;
  bad.alpha0 = 0.0;
  EXPECT_THROW(armijo_backtrack(obj, x, p, 0.5, -1.0, bad), InvalidArgument);
  bad = LineSearchOptions{};
  bad.backtrack = 1.0;
  EXPECT_THROW(armijo_backtrack(obj, x, p, 0.5, -1.0, bad), InvalidArgument);
  bad = LineSearchOptions{};
  bad.beta = 0.0;
  EXPECT_THROW(armijo_backtrack(obj, x, p, 0.5, -1.0, bad), InvalidArgument);
}

// ------------------------------------------------------------ Newton-CG

TEST(NewtonCg, SolvesQuadraticInOneIteration) {
  const auto a = spd_matrix({2, 5, 11, 31}, 14);
  QuadraticObjective obj(a, {1.0, -1.0, 2.0, 0.5});
  NewtonOptions opts;
  opts.cg.max_iterations = 50;
  opts.cg.rel_tol = 1e-12;
  opts.gradient_tol = 1e-10;
  const auto r = newton_cg(obj, {0, 0, 0, 0}, opts);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 2);
  EXPECT_LT(r.final_gradient_norm, 1e-10);
}

struct NewtonCase {
  int classes;
  std::size_t p;
  int cg_iters;
  double cg_tol;
};

class NewtonSweep : public testing::TestWithParam<NewtonCase> {};

TEST_P(NewtonSweep, ConvergesOnSoftmax) {
  const auto c = GetParam();
  auto tt = data::make_blobs(300, 50, c.p, c.classes, 3.0, 1.0, 15);
  model::SoftmaxObjective obj(tt.train, 1e-3);
  NewtonOptions opts;
  opts.max_iterations = 60;
  opts.gradient_tol = 1e-6;
  opts.cg.max_iterations = c.cg_iters;
  opts.cg.rel_tol = c.cg_tol;
  const auto r = newton_cg(obj, std::vector<double>(obj.dim(), 0.0), opts);
  EXPECT_TRUE(r.converged) << "C=" << c.classes << " p=" << c.p;
  EXPECT_LT(r.final_gradient_norm, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    InexactnessSweep, NewtonSweep,
    testing::Values(NewtonCase{3, 8, 10, 1e-4}, NewtonCase{3, 8, 100, 1e-10},
                    NewtonCase{5, 12, 10, 1e-2}, NewtonCase{10, 6, 20, 1e-4},
                    NewtonCase{2, 10, 10, 1e-4}));

TEST(NewtonCg, MonotonicDecreaseWithTrace) {
  auto tt = data::make_blobs(200, 50, 10, 4, 3.0, 1.0, 16);
  model::SoftmaxObjective obj(tt.train, 1e-3);
  NewtonOptions opts;
  opts.max_iterations = 20;
  opts.gradient_tol = 0.0;
  std::vector<int> iterations;
  std::vector<double> values;
  std::vector<std::vector<double>> iterates;
  opts.on_iteration = [&](int k, std::span<const double> x) {
    iterations.push_back(k);
    values.push_back(obj.value(x));
    iterates.emplace_back(x.begin(), x.end());
  };
  const auto r = newton_cg(obj, std::vector<double>(obj.dim(), 0.0), opts);
  ASSERT_GE(values.size(), 2u);
  ASSERT_EQ(values.size(), static_cast<std::size_t>(r.iterations));
  EXPECT_EQ(values.back(), r.final_value);
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(iterations[i], static_cast<int>(i) + 1);
    // Every recorded step is an accepted one: the iterate moves.
    const std::vector<double> previous =
        i == 0 ? std::vector<double>(obj.dim(), 0.0) : iterates[i - 1];
    EXPECT_NE(iterates[i], previous);
    if (i > 0) {
      EXPECT_LE(values[i], values[i - 1] + 1e-12);
    }
  }
}

TEST(NewtonCg, RespectsIterationBudget) {
  auto tt = data::make_blobs(100, 10, 8, 3, 3.0, 1.0, 17);
  model::SoftmaxObjective obj(tt.train, 0.0);
  NewtonOptions opts;
  opts.max_iterations = 1;
  opts.gradient_tol = 0.0;
  const auto r = newton_cg(obj, std::vector<double>(obj.dim(), 0.0), opts);
  EXPECT_EQ(r.iterations, 1);
}

TEST(NewtonCg, StartingAtOptimumConvergesImmediately) {
  const auto a = spd_matrix({1, 2}, 18);
  QuadraticObjective obj(a, {0.0, 0.0});  // optimum at origin
  NewtonOptions opts;
  opts.gradient_tol = 1e-12;
  const auto r = newton_cg(obj, {0.0, 0.0}, opts);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0);
}

TEST(NewtonCg, DimensionMismatchThrows) {
  const auto a = spd_matrix({1, 2}, 19);
  QuadraticObjective obj(a, {0.0, 0.0});
  EXPECT_THROW(newton_cg(obj, {0.0}, NewtonOptions{}), InvalidArgument);
}

// ------------------------------------------------------------ minibatch

TEST(Minibatch, SplitsCoverShard) {
  auto tt = data::make_blobs(103, 10, 5, 3, 3.0, 1.0, 20);
  const auto batches = make_batches(tt.train, 25);
  ASSERT_EQ(batches.size(), 5u);
  std::size_t total = 0;
  for (const auto& b : batches) total += b.num_samples();
  EXPECT_EQ(total, 103u);
  EXPECT_EQ(batches.back().num_samples(), 3u);
}

TEST(Minibatch, ZeroOrOversizedBatchGivesSingleBatch) {
  auto tt = data::make_blobs(10, 5, 5, 3, 3.0, 1.0, 21);
  EXPECT_EQ(make_batches(tt.train, 0).size(), 1u);
  EXPECT_EQ(make_batches(tt.train, 100).size(), 1u);
}

TEST(Minibatch, BatchGradientsSumToShardGradient) {
  auto tt = data::make_blobs(60, 10, 6, 4, 3.0, 1.0, 22);
  model::SoftmaxObjective full(tt.train, 0.0);
  const auto batches = make_batches(tt.train, 16);
  Rng rng(23);
  std::vector<double> x(full.dim());
  for (double& v : x) v = 0.2 * rng.normal();
  std::vector<double> g_full(full.dim()), g_sum(full.dim(), 0.0),
      g_b(full.dim());
  full.gradient(x, g_full);
  for (const auto& b : batches) {
    model::SoftmaxObjective bo(b, 0.0);
    bo.gradient(x, g_b);
    la::axpy(1.0, g_b, g_sum);
  }
  for (std::size_t i = 0; i < full.dim(); ++i) {
    EXPECT_NEAR(g_sum[i], g_full[i], 1e-9);
  }
}

// ------------------------------------------------------------ SVRG

TEST(Svrg, SolvesRegularizedSoftmaxSubproblem) {
  auto tt = data::make_blobs(120, 10, 6, 3, 3.0, 1.0, 24);
  auto batch_data = make_batches(tt.train, 16);
  std::vector<model::SoftmaxObjective> batches;
  for (const auto& b : batch_data) batches.emplace_back(b, 0.0);

  const std::size_t dim = batches.front().dim();
  std::vector<double> linear(dim, 0.0), center(dim, 0.0);
  SvrgOptions opts;
  opts.max_outer = 30;
  opts.step_size = 2e-3;
  const auto r = svrg_minimize(batches, linear, /*ridge=*/1.0, /*mu=*/0.0,
                               center, std::vector<double>(dim, 0.0), opts);
  // Compare against Newton on the same objective.
  model::SoftmaxObjective ref(tt.train, 1.0);
  NewtonOptions nopts;
  nopts.gradient_tol = 1e-10;
  nopts.cg.max_iterations = 100;
  nopts.cg.rel_tol = 1e-10;
  nopts.max_iterations = 50;
  const auto exact = newton_cg(ref, std::vector<double>(dim, 0.0), nopts);
  EXPECT_LT(r.final_subproblem_gradient_norm, 1.0);
  EXPECT_NEAR(ref.value(r.x), exact.final_value,
              0.05 * std::abs(exact.final_value) + 0.05);
}

TEST(Svrg, ProxTermPullsTowardCenter) {
  auto tt = data::make_blobs(60, 10, 5, 3, 3.0, 1.0, 25);
  auto batch_data = make_batches(tt.train, 20);
  std::vector<model::SoftmaxObjective> batches;
  for (const auto& b : batch_data) batches.emplace_back(b, 0.0);
  const std::size_t dim = batches.front().dim();
  std::vector<double> linear(dim, 0.0), center(dim, 0.7);
  SvrgOptions opts;
  opts.max_outer = 20;
  // step·µ must stay below 2 for the prox term's fixed-point iteration to
  // be stable; 0.5 converges fast.
  opts.step_size = 5e-5;
  const double mu = 1e4;
  const auto r = svrg_minimize(batches, linear, 0.0, mu, center,
                               std::vector<double>(dim, 0.0), opts);
  // The softmax gradient perturbs the minimizer away from the center by
  // roughly ‖∇f(center)‖/µ, well inside the tolerance below.
  for (std::size_t i = 0; i < dim; i += 7) {
    EXPECT_NEAR(r.x[i], 0.7, 0.02);
  }
}

TEST(Svrg, ValidatesInputs) {
  std::vector<model::SoftmaxObjective> empty;
  std::vector<double> v;
  EXPECT_THROW(svrg_minimize(empty, v, 0.0, 0.0, v, {}, SvrgOptions{}),
               InvalidArgument);
  auto tt = data::make_blobs(20, 5, 4, 3, 3.0, 1.0, 26);
  std::vector<model::SoftmaxObjective> batches;
  batches.emplace_back(tt.train, 0.0);
  std::vector<double> good(batches.front().dim(), 0.0);
  SvrgOptions bad;
  bad.step_size = 0.0;
  EXPECT_THROW(svrg_minimize(batches, good, 0.0, 0.0, good, good, bad),
               InvalidArgument);
  std::vector<double> wrong(3, 0.0);
  EXPECT_THROW(
      svrg_minimize(batches, wrong, 0.0, 0.0, good, good, SvrgOptions{}),
      InvalidArgument);
}

}  // namespace
}  // namespace nadmm::solvers
