// Header-only helpers shared by the test binaries: finite-difference
// derivative checks for objectives and a seeded byte mutator for the
// decoder fuzzers.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "la/vector_ops.hpp"
#include "model/objective.hpp"
#include "support/rng.hpp"

namespace nadmm::test {

inline std::vector<double> random_unit(std::size_t dim, Rng& rng) {
  std::vector<double> v(dim);
  for (double& e : v) e = rng.normal();
  const double norm = la::nrm2(v);
  if (norm > 0) la::scal(1.0 / norm, v);
  return v;
}

/// Max relative error between analytic directional derivatives ⟨g, v⟩ and
/// central finite differences of the value, over `trials` random
/// directions at point `x`.
inline double gradient_fd_error(model::Objective& obj,
                                std::span<const double> x, int trials = 5,
                                double eps = 1e-6, std::uint64_t seed = 42) {
  Rng rng(seed);
  const std::size_t dim = obj.dim();
  std::vector<double> g(dim);
  obj.gradient(x, g);
  std::vector<double> xp(x.begin(), x.end());
  double worst = 0.0;
  for (int t = 0; t < trials; ++t) {
    const auto v = random_unit(dim, rng);
    const double analytic = la::dot(g, v);
    std::copy(x.begin(), x.end(), xp.begin());
    la::axpy(eps, v, xp);
    const double fp = obj.value(xp);
    std::copy(x.begin(), x.end(), xp.begin());
    la::axpy(-eps, v, xp);
    const double fm = obj.value(xp);
    const double fd = (fp - fm) / (2.0 * eps);
    const double denom = std::max({std::abs(analytic), std::abs(fd), 1e-8});
    worst = std::max(worst, std::abs(analytic - fd) / denom);
  }
  return worst;
}

/// Max relative error between H·v and the central finite difference of
/// the gradient, over `trials` random directions.
inline double hessian_fd_error(model::Objective& obj,
                               std::span<const double> x, int trials = 5,
                               double eps = 1e-5, std::uint64_t seed = 42) {
  Rng rng(seed);
  const std::size_t dim = obj.dim();
  std::vector<double> hv(dim), gp(dim), gm(dim), xp(x.begin(), x.end());
  double worst = 0.0;
  for (int t = 0; t < trials; ++t) {
    const auto v = random_unit(dim, rng);
    obj.hessian_vec(x, v, hv);
    std::copy(x.begin(), x.end(), xp.begin());
    la::axpy(eps, v, xp);
    obj.gradient(xp, gp);
    std::copy(x.begin(), x.end(), xp.begin());
    la::axpy(-eps, v, xp);
    obj.gradient(xp, gm);
    // fd = (g(x+εv) − g(x−εv)) / 2ε, compared to hv in norm.
    double diff_sq = 0.0, ref_sq = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      const double fd = (gp[i] - gm[i]) / (2.0 * eps);
      const double d = fd - hv[i];
      diff_sq += d * d;
      ref_sq += std::max(fd * fd, hv[i] * hv[i]);
    }
    worst = std::max(worst, std::sqrt(diff_sq / std::max(ref_sq, 1e-16)));
  }
  return worst;
}

/// A seeded mutation of `bytes`: 1–4 bit flips, inserts (half of them a
/// character of the format's `alphabet`, half an arbitrary byte), short
/// deletes or truncations. A pure function of its arguments, so a
/// failing seed replays exactly.
inline std::string mutate(std::string bytes, std::uint64_t seed,
                          std::string_view alphabet) {
  Rng rng(seed);
  const std::uint64_t edits = 1 + rng.uniform_index(4);
  for (std::uint64_t k = 0; k < edits && !bytes.empty(); ++k) {
    const std::size_t at = rng.uniform_index(bytes.size());
    switch (rng.uniform_index(4)) {
      case 0:  // flip one bit
        bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.uniform_index(8)));
        break;
      case 1: {  // insert a grammar character or an arbitrary byte
        const char c = rng.uniform_index(2) == 0
                           ? alphabet[rng.uniform_index(alphabet.size())]
                           : static_cast<char>(rng.uniform_index(256));
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at), c);
        break;
      }
      case 2:  // delete a short run
        bytes.erase(at, 1 + rng.uniform_index(3));
        break;
      default:  // truncate
        bytes.resize(at);
        break;
    }
  }
  return bytes;
}

}  // namespace nadmm::test
