#include "solvers/newton.hpp"

#include "la/vector_ops.hpp"
#include "support/check.hpp"

namespace nadmm::solvers {

NewtonResult newton_cg(model::Objective& objective, std::vector<double> x0,
                       const NewtonOptions& options) {
  NADMM_CHECK(x0.size() == objective.dim(), "newton_cg: x0 dimension mismatch");
  NADMM_CHECK(options.max_iterations >= 0, "newton_cg: bad max_iterations");

  NewtonResult result;
  result.x = std::move(x0);
  const std::size_t dim = objective.dim();
  std::vector<double> g(dim), p(dim);

  double f = objective.value_and_gradient(result.x, g);
  double g_norm = la::nrm2(g);

  for (int k = 0; k < options.max_iterations; ++k) {
    if (g_norm < options.gradient_tol) {
      result.converged = true;
      break;
    }
    conjugate_gradient(
        [&](std::span<const double> v, std::span<double> hv) {
          objective.hessian_vec(result.x, v, hv);
        },
        g, p, options.cg);

    const double directional = la::dot(p, g);
    // CG from p=0 on an SPD system always yields a descent direction;
    // guard anyway (negative-curvature fallback is −g, also descent).
    if (directional >= 0.0) {
      result.converged = g_norm < options.gradient_tol;
      break;
    }
    const LineSearchResult ls = armijo_backtrack(objective, result.x, p, f,
                                                 directional, options.line_search);
    if (ls.alpha == 0.0) {
      // No decrease possible along p: stagnation; stop.
      break;
    }
    la::axpy(ls.alpha, p, result.x);
    f = objective.value_and_gradient(result.x, g);
    g_norm = la::nrm2(g);
    result.iterations = k + 1;
    if (options.on_iteration) options.on_iteration(k + 1, result.x);
  }
  if (g_norm < options.gradient_tol) result.converged = true;
  result.final_value = f;
  result.final_gradient_norm = g_norm;
  return result;
}

}  // namespace nadmm::solvers
