// Objective-function interface for the Hessian-free solvers.
//
// Solvers see an objective only through value / gradient / Hessian-vector
// product — no Hessian is ever materialized (the paper's "Hessian-free"
// property that lets the method scale to d = (C−1)·p in the hundreds of
// thousands). Implementations may cache forward passes, so the methods
// are non-const.
#pragma once

#include <cstddef>
#include <span>

namespace nadmm::model {

class Objective {
 public:
  virtual ~Objective() = default;

  /// Number of parameters.
  [[nodiscard]] virtual std::size_t dim() const = 0;

  /// Number of samples behind this objective (0 for pure penalties).
  [[nodiscard]] virtual std::size_t num_samples() const = 0;

  /// F(x).
  virtual double value(std::span<const double> x) = 0;

  /// g = ∇F(x).
  virtual void gradient(std::span<const double> x, std::span<double> g) = 0;

  /// Fused F(x) and ∇F(x): gradient first, so an objective that caches
  /// its forward pass serves value from the cache.
  virtual double value_and_gradient(std::span<const double> x,
                                    std::span<double> g) {
    gradient(x, g);
    return value(x);
  }

  /// hv = ∇²F(x)·v. Implementations cache the forward pass at `x`, so
  /// repeated products at the same point (the CG inner loop) cost one
  /// GEMM pair each, not a fresh forward pass.
  virtual void hessian_vec(std::span<const double> x, std::span<const double> v,
                           std::span<double> hv) = 0;
};

}  // namespace nadmm::model
