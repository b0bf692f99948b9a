// Tests for the single-node first-order solvers (GD, momentum, Adagrad,
// Adam): convergence on convex problems, agreement with Newton-CG, and
// the step-size sensitivity the paper's §1.2 attributes to this family.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "data/generators.hpp"
#include "la/vector_ops.hpp"
#include "model/softmax.hpp"
#include "solvers/first_order.hpp"
#include "solvers/newton.hpp"
#include "support/check.hpp"

namespace nadmm::solvers {
namespace {

data::TrainTest problem(std::uint64_t seed) {
  return data::make_blobs(200, 50, 8, 3, 3.0, 1.0, seed);
}

class RuleSweep : public testing::TestWithParam<FirstOrderRule> {};

TEST_P(RuleSweep, DecreasesConvexObjective) {
  auto tt = problem(1);
  model::SoftmaxObjective obj(tt.train, 1e-2);
  FirstOrderOptions opts;
  opts.rule = GetParam();
  opts.max_iterations = 300;
  // Scale-appropriate steps per rule (sum-objective gradients are large).
  switch (opts.rule) {
    case FirstOrderRule::kGradientDescent: opts.step_size = 2e-3; break;
    case FirstOrderRule::kMomentum:
      opts.step_size = 5e-4;
      break;
    case FirstOrderRule::kAdagrad: opts.step_size = 0.5; break;
    case FirstOrderRule::kAdam: opts.step_size = 0.05; break;
  }
  std::vector<double> x0(obj.dim(), 0.0);
  const double f0 = obj.value(x0);
  const auto r = first_order_minimize(obj, std::move(x0), opts);
  EXPECT_LT(r.final_value, 0.5 * f0) << static_cast<int>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllRules, RuleSweep,
                         testing::Values(FirstOrderRule::kGradientDescent,
                                         FirstOrderRule::kMomentum,
                                         FirstOrderRule::kAdagrad,
                                         FirstOrderRule::kAdam));

TEST(FirstOrder, GdAgreesWithNewtonOnStronglyConvexProblem) {
  auto tt = problem(2);
  model::SoftmaxObjective obj(tt.train, 1.0);  // strong convexity
  FirstOrderOptions opts;
  opts.max_iterations = 5000;
  opts.step_size = 2e-3;
  opts.gradient_tol = 1e-6;
  const auto gd = first_order_minimize(obj, std::vector<double>(obj.dim(), 0.0),
                                       opts);
  NewtonOptions nopts;
  nopts.gradient_tol = 1e-10;
  nopts.cg.max_iterations = 100;
  nopts.cg.rel_tol = 1e-10;
  const auto newton =
      newton_cg(obj, std::vector<double>(obj.dim(), 0.0), nopts);
  EXPECT_TRUE(gd.converged);
  EXPECT_NEAR(gd.final_value, newton.final_value,
              1e-4 * std::abs(newton.final_value) + 1e-6);
}

TEST(FirstOrder, NewtonNeedsFarFewerIterations) {
  // The paper's core motivation, in miniature.
  auto tt = problem(3);
  model::SoftmaxObjective obj(tt.train, 1e-2);
  FirstOrderOptions opts;
  opts.max_iterations = 100000;
  opts.step_size = 2e-3;
  opts.gradient_tol = 1e-4;
  const auto gd = first_order_minimize(obj, std::vector<double>(obj.dim(), 0.0),
                                       opts);
  NewtonOptions nopts;
  nopts.gradient_tol = 1e-4;
  const auto newton =
      newton_cg(obj, std::vector<double>(obj.dim(), 0.0), nopts);
  ASSERT_TRUE(gd.converged);
  ASSERT_TRUE(newton.converged);
  EXPECT_GT(gd.iterations, 20 * newton.iterations);
}

TEST(FirstOrder, StepSizeSensitivity) {
  // Too-large steps diverge, tiny steps crawl — the tuning burden the
  // paper contrasts with second-order robustness.
  auto tt = problem(4);
  model::SoftmaxObjective obj(tt.train, 1e-2);
  FirstOrderOptions big;
  big.max_iterations = 50;
  big.step_size = 1.0;
  const auto diverged =
      first_order_minimize(obj, std::vector<double>(obj.dim(), 0.0), big);
  FirstOrderOptions good = big;
  good.step_size = 2e-3;
  const auto ok =
      first_order_minimize(obj, std::vector<double>(obj.dim(), 0.0), good);
  EXPECT_TRUE(!std::isfinite(diverged.final_value) ||
              diverged.final_value > 10.0 * ok.final_value);
}

TEST(FirstOrder, TraceRecordsEveryIteration) {
  auto tt = problem(6);
  model::SoftmaxObjective obj(tt.train, 1e-2);
  FirstOrderOptions opts;
  opts.max_iterations = 25;
  opts.step_size = 1e-3;
  std::vector<int> iterations;
  std::vector<double> values;
  opts.on_iteration = [&](int k, std::span<const double> x) {
    iterations.push_back(k);
    values.push_back(obj.value(x));
  };
  const auto r =
      first_order_minimize(obj, std::vector<double>(obj.dim(), 0.0), opts);
  ASSERT_EQ(values.size(), 25u);
  for (std::size_t k = 0; k < iterations.size(); ++k) {
    EXPECT_EQ(iterations[k], static_cast<int>(k) + 1);
  }
  EXPECT_LT(values.back(), values.front());
  EXPECT_EQ(values.back(), r.final_value);
}

/// Counts the gradient evaluations of the objective it wraps.
class CountingObjective final : public model::Objective {
 public:
  explicit CountingObjective(model::Objective& inner) : inner_(&inner) {}
  [[nodiscard]] std::size_t dim() const override { return inner_->dim(); }
  [[nodiscard]] std::size_t num_samples() const override {
    return inner_->num_samples();
  }
  double value(std::span<const double> x) override { return inner_->value(x); }
  void gradient(std::span<const double> x, std::span<double> g) override {
    ++gradients;
    inner_->gradient(x, g);
  }
  void hessian_vec(std::span<const double> x, std::span<const double> v,
                   std::span<double> hv) override {
    inner_->hessian_vec(x, v, hv);
  }
  int gradients = 0;

 private:
  model::Objective* inner_;
};

TEST(FirstOrder, ConvergenceTestReusesItsGradient) {
  // With a gradient tolerance the test's ∇F(x) drives the next step, so
  // every iteration costs one gradient, with or without the test.
  auto tt = problem(8);
  model::SoftmaxObjective obj(tt.train, 1e-2);
  FirstOrderOptions opts;
  opts.max_iterations = 10;
  opts.step_size = 1e-3;
  for (const double tol : {0.0, 1e-12}) {
    CountingObjective counted(obj);
    opts.gradient_tol = tol;
    const auto r =
        first_order_minimize(counted, std::vector<double>(obj.dim(), 0.0), opts);
    ASSERT_EQ(r.iterations, 10);
    EXPECT_EQ(counted.gradients, 11) << "tol " << tol;  // + the final one
  }
}

TEST(FirstOrder, RuleParsing) {
  EXPECT_EQ(first_order_rule_from_string("gd"), FirstOrderRule::kGradientDescent);
  EXPECT_EQ(first_order_rule_from_string("adam"), FirstOrderRule::kAdam);
  EXPECT_THROW(first_order_rule_from_string("??"), InvalidArgument);
}

TEST(FirstOrder, ValidatesOptions) {
  auto tt = problem(7);
  model::SoftmaxObjective obj(tt.train, 0.0);
  FirstOrderOptions bad;
  bad.step_size = 0.0;
  EXPECT_THROW(first_order_minimize(obj, std::vector<double>(obj.dim(), 0.0),
                                    bad),
               InvalidArgument);
  EXPECT_THROW(first_order_minimize(obj, std::vector<double>(3, 0.0),
                                    FirstOrderOptions{}),
               InvalidArgument);
}

}  // namespace
}  // namespace nadmm::solvers
