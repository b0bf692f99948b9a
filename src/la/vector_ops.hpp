// BLAS-1 style vector kernels over std::span<double>.
//
// These are the building blocks of conjugate gradient and the ADMM
// updates. All kernels credit their flop counts (see flops.hpp). Kernels
// use OpenMP above a size threshold; below it the loop overhead dominates.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace nadmm::la {

/// Vectors in this library are plain std::vector<double>; kernels take
/// spans so callers can pass sub-ranges without copies.
using Vec = std::vector<double>;

/// y += alpha * x
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// y = alpha * x + beta * y
void axpby(double alpha, std::span<const double> x, double beta,
           std::span<double> y);

/// dot product <x, y>
[[nodiscard]] double dot(std::span<const double> x, std::span<const double> y);

/// Euclidean norm ||x||_2
[[nodiscard]] double nrm2(std::span<const double> x);

/// Squared Euclidean norm ||x||_2^2
[[nodiscard]] double nrm2_sq(std::span<const double> x);

/// x *= alpha
void scal(double alpha, std::span<double> x);

/// y = x
void copy(std::span<const double> x, std::span<double> y);

/// x = value for every element
void fill(std::span<double> x, double value);

/// ||x - y||_2
[[nodiscard]] double dist2(std::span<const double> x, std::span<const double> y);

}  // namespace nadmm::la
