#include "core/penalty.hpp"

#include <algorithm>
#include <cmath>

#include "la/vector_ops.hpp"
#include "support/check.hpp"

namespace nadmm::core {

PenaltyRule penalty_rule_from_string(const std::string& name) {
  if (name == "fixed") return PenaltyRule::kFixed;
  if (name == "rb") return PenaltyRule::kResidualBalancing;
  if (name == "sps") return PenaltyRule::kSpectral;
  throw InvalidArgument("unknown penalty rule '" + name +
                        "' (expected fixed|rb|sps)");
}

PenaltyController::PenaltyController(const PenaltyOptions& options,
                                     std::size_t dim)
    : options_(options), rho_(options.rho0) {
  NADMM_CHECK(options.rho0 > 0.0, "penalty: rho0 must be positive");
  NADMM_CHECK(options.sps_period >= 1, "penalty: sps_period must be >= 1");
  x0_.assign(dim, 0.0);
  yhat0_.assign(dim, 0.0);
  z0_.assign(dim, 0.0);
  y0_.assign(dim, 0.0);
}

namespace {
constexpr std::uint16_t kPenaltySnapshotVersion = 1;
}  // namespace

void PenaltyController::save(binio::ByteWriter& w) const {
  w.put_u16(kPenaltySnapshotVersion);
  w.put_f64(rho_);
  w.put_u8(has_memory_ ? 1 : 0);
  w.put_f64_span(x0_);
  w.put_f64_span(yhat0_);
  w.put_f64_span(z0_);
  w.put_f64_span(y0_);
}

void PenaltyController::restore(binio::ByteReader& r) {
  const std::uint16_t version = r.get_u16();
  NADMM_CHECK(version == kPenaltySnapshotVersion,
              "penalty snapshot: unsupported version " +
                  std::to_string(version));
  const std::size_t dim = x0_.size();
  rho_ = r.get_f64();
  has_memory_ = r.get_u8() != 0;
  x0_ = r.get_f64_vector();
  yhat0_ = r.get_f64_vector();
  z0_ = r.get_f64_vector();
  y0_ = r.get_f64_vector();
  NADMM_CHECK(x0_.size() == dim && yhat0_.size() == dim &&
                  z0_.size() == dim && y0_.size() == dim,
              "penalty snapshot: dimension mismatch");
}

void PenaltyController::observe(int k, std::span<const double> x,
                                std::span<const double> z,
                                std::span<const double> z_prev,
                                std::span<const double> y,
                                std::span<const double> y_hat) {
  switch (options_.rule) {
    case PenaltyRule::kFixed:
      return;
    case PenaltyRule::kResidualBalancing:
      observe_residual_balancing(x, z, z_prev);
      return;
    case PenaltyRule::kSpectral:
      observe_spectral(k, x, z, y, y_hat);
      return;
  }
}

void PenaltyController::observe_residual_balancing(
    std::span<const double> x, std::span<const double> z,
    std::span<const double> z_prev) {
  // r = ‖x_i − z‖ (primal), s = ρ‖z − z_prev‖ (dual, per node).
  const double r = la::dist2(x, z);
  const double s = rho_ * la::dist2(z, z_prev);
  if (r > options_.rb_threshold * s) {
    rho_ = std::min(rho_ * options_.rb_factor, options_.rho_max);
  } else if (s > options_.rb_threshold * r) {
    rho_ = std::max(rho_ / options_.rb_factor, options_.rho_min);
  }
}

std::pair<double, double> PenaltyController::spectral_stepsize(
    std::span<const double> d_dual, std::span<const double> d_primal) {
  const double dd = la::dot(d_dual, d_dual);
  const double dp = la::dot(d_dual, d_primal);
  const double pp = la::dot(d_primal, d_primal);
  if (dd <= 0.0 || pp <= 0.0) return {-1.0, 0.0};
  const double correlation = dp / std::sqrt(dd * pp);
  if (dp <= 0.0) return {-1.0, correlation};
  const double alpha_sd = dd / dp;  // steepest descent stepsize
  const double alpha_mg = dp / pp;  // minimum gradient stepsize
  // Hybrid rule of Zhou–Gao–Dai, as used by adaptive consensus ADMM.
  const double alpha =
      (2.0 * alpha_mg > alpha_sd) ? alpha_mg : (alpha_sd - 0.5 * alpha_mg);
  return {alpha, correlation};
}

void PenaltyController::observe_spectral(int k, std::span<const double> x,
                                         std::span<const double> z,
                                         std::span<const double> y,
                                         std::span<const double> y_hat) {
  const bool adapt = has_memory_ && ((k + 1) % options_.sps_period == 0);
  if (adapt) {
    const std::size_t dim = x.size();
    std::vector<double> d_yhat(dim), d_x(dim), d_y(dim), d_z(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      d_yhat[j] = y_hat[j] - yhat0_[j];
      d_x[j] = x[j] - x0_[j];
      d_y[j] = y[j] - y0_[j];
      d_z[j] = z[j] - z0_[j];
    }
    // Curvature of the local term f_i from (Δĥ, Δx); ĥ plays ∇f_i(x).
    const auto [alpha, alpha_cor] = spectral_stepsize(d_yhat, d_x);
    // Curvature of the consensus/regularizer term from (Δy, Δz).
    const auto [beta, beta_cor] = spectral_stepsize(d_y, d_z);

    const bool alpha_ok = alpha > 0.0 && alpha_cor > options_.sps_eps_cor;
    const bool beta_ok = beta > 0.0 && beta_cor > options_.sps_eps_cor;
    if (alpha_ok && beta_ok) {
      clamp_and_safeguard(std::sqrt(alpha * beta), k);
    } else if (alpha_ok) {
      clamp_and_safeguard(alpha, k);
    } else if (beta_ok) {
      clamp_and_safeguard(beta, k);
    }
    // else: keep rho unchanged (uncorrelated secant pairs).
  }
  if (adapt || !has_memory_) {
    std::copy(x.begin(), x.end(), x0_.begin());
    std::copy(y_hat.begin(), y_hat.end(), yhat0_.begin());
    std::copy(y.begin(), y.end(), y0_.begin());
    std::copy(z.begin(), z.end(), z0_.begin());
    has_memory_ = true;
  }
}

void PenaltyController::clamp_and_safeguard(double proposed, int k) {
  // Convergence safeguard: bound the relative change by 1 + C/k².
  const double bound = 1.0 + options_.sps_safeguard /
                                 (static_cast<double>(k + 1) * (k + 1));
  proposed = std::min(proposed, rho_ * bound);
  proposed = std::max(proposed, rho_ / bound);
  rho_ = std::clamp(proposed, options_.rho_min, options_.rho_max);
}

}  // namespace nadmm::core
