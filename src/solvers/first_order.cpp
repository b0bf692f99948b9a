#include "solvers/first_order.hpp"

#include <cmath>

#include "la/vector_ops.hpp"
#include "support/check.hpp"

namespace nadmm::solvers {

FirstOrderRule first_order_rule_from_string(const std::string& name) {
  if (name == "gd") return FirstOrderRule::kGradientDescent;
  if (name == "momentum") return FirstOrderRule::kMomentum;
  if (name == "adagrad") return FirstOrderRule::kAdagrad;
  if (name == "adam") return FirstOrderRule::kAdam;
  throw InvalidArgument("unknown first-order rule '" + name +
                        "' (expected gd|momentum|adagrad|adam)");
}

FirstOrderResult first_order_minimize(model::Objective& objective,
                                      std::vector<double> x0,
                                      const FirstOrderOptions& options) {
  NADMM_CHECK(x0.size() == objective.dim(), "first_order: x0 size mismatch");
  NADMM_CHECK(options.step_size > 0.0, "first_order: step size must be > 0");
  NADMM_CHECK(options.max_iterations >= 1, "first_order: bad max_iterations");

  const std::size_t dim = objective.dim();
  FirstOrderResult result;
  result.x = std::move(x0);
  std::vector<double> g(dim), velocity(dim, 0.0), accum(dim, 0.0),
      moment1(dim, 0.0), moment2(dim, 0.0);

  // The convergence test leaves ∇F(x) in g; the next step reuses it.
  bool fresh = false;
  for (int k = 0; k < options.max_iterations; ++k) {
    if (!fresh) objective.gradient(result.x, g);

    switch (options.rule) {
      case FirstOrderRule::kGradientDescent:
        la::axpy(-options.step_size, g, result.x);
        break;
      case FirstOrderRule::kMomentum:
        // Heavy-ball: v ← µv − ηg; x ← x + v.
        for (std::size_t i = 0; i < dim; ++i) {
          velocity[i] = options.momentum * velocity[i] -
                        options.step_size * g[i];
          result.x[i] += velocity[i];
        }
        break;
      case FirstOrderRule::kAdagrad:
        for (std::size_t i = 0; i < dim; ++i) {
          accum[i] += g[i] * g[i];
          result.x[i] -= options.step_size * g[i] /
                         (std::sqrt(accum[i]) + options.epsilon);
        }
        break;
      case FirstOrderRule::kAdam: {
        const double t = static_cast<double>(k + 1);
        const double bc1 = 1.0 - std::pow(options.beta1, t);
        const double bc2 = 1.0 - std::pow(options.beta2, t);
        for (std::size_t i = 0; i < dim; ++i) {
          moment1[i] = options.beta1 * moment1[i] + (1.0 - options.beta1) * g[i];
          moment2[i] =
              options.beta2 * moment2[i] + (1.0 - options.beta2) * g[i] * g[i];
          const double m_hat = moment1[i] / bc1;
          const double v_hat = moment2[i] / bc2;
          result.x[i] -=
              options.step_size * m_hat / (std::sqrt(v_hat) + options.epsilon);
        }
        break;
      }
    }
    result.iterations = k + 1;
    if (options.on_iteration) options.on_iteration(k + 1, result.x);
    fresh = options.gradient_tol > 0.0;
    if (fresh) {
      objective.gradient(result.x, g);
      if (la::nrm2(g) < options.gradient_tol) {
        result.converged = true;
        break;
      }
    }
  }
  if (!fresh) objective.gradient(result.x, g);
  result.final_gradient_norm = la::nrm2(g);
  if (options.gradient_tol > 0.0 &&
      result.final_gradient_norm < options.gradient_tol) {
    result.converged = true;
  }
  result.final_value = objective.value(result.x);
  return result;
}

}  // namespace nadmm::solvers
