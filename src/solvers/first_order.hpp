// Single-node first-order methods: full-batch gradient descent and the
// adaptive family the paper's §1.2 surveys (heavy-ball momentum,
// Adagrad, Adam), all on the full gradient.
//
// They serve two roles: as reference optimizers in tests (every convex
// objective they minimize must agree with Newton-CG), and as the
// single-node counterparts of the distributed first-order baselines —
// showing why the paper moves to second-order methods: many more
// iterations, step-size sensitivity.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "model/objective.hpp"

namespace nadmm::solvers {

enum class FirstOrderRule { kGradientDescent, kMomentum, kAdagrad, kAdam };

FirstOrderRule first_order_rule_from_string(const std::string& name);

struct FirstOrderOptions {
  FirstOrderRule rule = FirstOrderRule::kGradientDescent;
  int max_iterations = 1000;
  double step_size = 1e-3;
  double momentum = 0.9;          ///< kMomentum
  double beta1 = 0.9;             ///< kAdam
  double beta2 = 0.999;           ///< kAdam
  double epsilon = 1e-8;          ///< kAdagrad / kAdam denominator guard
  double gradient_tol = 0.0;      ///< stop when ‖g‖ < tol (0: run all)
  /// Called after each step with the 1-based iteration and the new
  /// iterate (the registry records its trace row here); may be empty.
  std::function<void(int, std::span<const double>)> on_iteration;
};

struct FirstOrderResult {
  std::vector<double> x;
  int iterations = 0;
  double final_value = 0.0;
  double final_gradient_norm = 0.0;
  bool converged = false;
};

/// Minimize `objective` from `x0` with the selected rule, one full
/// gradient per step.
FirstOrderResult first_order_minimize(model::Objective& objective,
                                      std::vector<double> x0,
                                      const FirstOrderOptions& options);

}  // namespace nadmm::solvers
