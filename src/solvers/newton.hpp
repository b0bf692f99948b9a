// Inexact Newton-CG (paper Algorithm 1).
//
// Each iteration: form gradient; solve H p = −g inexactly with CG
// (eq. 3b); Armijo backtracking (eq. 3c); update x ← x + αp. Globally
// linearly convergent on strongly convex problems with a
// problem-independent local rate (Roosta-Khorasani & Mahoney).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "model/objective.hpp"
#include "solvers/cg.hpp"
#include "solvers/linesearch.hpp"

namespace nadmm::solvers {

struct NewtonOptions {
  int max_iterations = 100;
  double gradient_tol = 1e-8;  ///< ε in Algorithm 1: stop when ‖g‖ < ε
  CgOptions cg;
  LineSearchOptions line_search;
  /// Called after each accepted step with the 1-based iteration and the
  /// new iterate (the registry records its trace row here); may be empty.
  std::function<void(int, std::span<const double>)> on_iteration;
};

struct NewtonResult {
  std::vector<double> x;          ///< final iterate
  int iterations = 0;
  double final_value = 0.0;
  double final_gradient_norm = 0.0;
  bool converged = false;         ///< gradient tolerance reached
};

/// Minimize `objective` starting from `x0`.
NewtonResult newton_cg(model::Objective& objective, std::vector<double> x0,
                       const NewtonOptions& options);

}  // namespace nadmm::solvers
