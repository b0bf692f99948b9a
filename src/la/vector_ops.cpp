#include "la/vector_ops.hpp"

#include <algorithm>
#include <cmath>

#include "la/flops.hpp"
#include "support/check.hpp"

namespace nadmm::la {

// Every loop here is serial: each result has one fixed chain, so it does
// not depend on the OpenMP team size.

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  NADMM_CHECK(x.size() == y.size(), "axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
  flops::add(2 * x.size());
}

void axpby(double alpha, std::span<const double> x, double beta,
           std::span<double> y) {
  NADMM_CHECK(x.size() == y.size(), "axpby: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] = alpha * x[i] + beta * y[i];
  }
  flops::add(3 * x.size());
}

double dot(std::span<const double> x, std::span<const double> y) {
  NADMM_CHECK(x.size() == y.size(), "dot: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
  flops::add(2 * x.size());
  return acc;
}

double nrm2_sq(std::span<const double> x) { return dot(x, x); }

double nrm2(std::span<const double> x) { return std::sqrt(nrm2_sq(x)); }

void scal(double alpha, std::span<double> x) {
  for (double& v : x) v *= alpha;
  flops::add(x.size());
}

void copy(std::span<const double> x, std::span<double> y) {
  NADMM_CHECK(x.size() == y.size(), "copy: size mismatch");
  std::copy(x.begin(), x.end(), y.begin());
}

void fill(std::span<double> x, double value) {
  std::fill(x.begin(), x.end(), value);
}

double dist2(std::span<const double> x, std::span<const double> y) {
  NADMM_CHECK(x.size() == y.size(), "dist2: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - y[i];
    acc += d * d;
  }
  flops::add(3 * x.size());
  return std::sqrt(acc);
}

}  // namespace nadmm::la
