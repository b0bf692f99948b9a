// ADMM penalty-parameter policies (paper §2.2).
//
// * Fixed ρ — the classical baseline.
// * Residual Balancing (He et al.; Boyd §3.4.1) — the "most common"
//   adaptive rule the paper contrasts against.
// * Spectral Penalty Selection (Xu et al., Adaptive Consensus ADMM) — the
//   policy the paper adopts: per-node Barzilai–Borwein curvature
//   estimates of the local term (from Δĥ, Δx) and the consensus term
//   (from Δy, Δz), combined through a hybrid stepsize rule with
//   correlation safeguards.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "support/binio.hpp"

namespace nadmm::core {

enum class PenaltyRule { kFixed, kResidualBalancing, kSpectral };

/// "fixed" | "rb" | "sps"; throws InvalidArgument otherwise. The one
/// parser of the penalty rule: --penalty, the penalties axis and
/// runner::admm_options all call it.
PenaltyRule penalty_rule_from_string(const std::string& name);

struct PenaltyOptions {
  PenaltyRule rule = PenaltyRule::kSpectral;
  double rho0 = 1.0;          ///< initial penalty on every node
  // Residual balancing (μ, τ in Boyd's notation):
  double rb_threshold = 10.0;
  double rb_factor = 2.0;
  // Spectral penalty selection:
  int sps_period = 2;         ///< T_f: adapt every T_f iterations
  double sps_eps_cor = 0.2;   ///< correlation threshold ε_cor
  double sps_safeguard = 1e6; ///< C_cg: bounds relative change by 1 + C/k²
  double rho_min = 1e-8;
  double rho_max = 1e8;
};

/// Per-node penalty state machine. The solver feeds it the iterates after
/// every ADMM round; `rho()` is the penalty to use for the next round.
class PenaltyController {
 public:
  PenaltyController(const PenaltyOptions& options, std::size_t dim);

  [[nodiscard]] double rho() const { return rho_; }

  /// Called once per ADMM iteration after the z / y updates.
  ///   k        — iteration index (0-based)
  ///   x        — this node's x_i^{k+1}
  ///   z        — new consensus z^{k+1}
  ///   z_prev   — previous consensus z^k
  ///   y        — this node's new dual y_i^{k+1}
  ///   y_hat    — intermediate dual ĥ_i^{k+1} = y_i^k + ρ_i(z^k − x_i^{k+1})
  void observe(int k, std::span<const double> x, std::span<const double> z,
               std::span<const double> z_prev, std::span<const double> y,
               std::span<const double> y_hat);

  /// Versioned binary snapshot of the adaptive state (ρ and the spectral
  /// secant memory). Options are not serialized — a restored controller
  /// must be constructed from the same configuration.
  void save(binio::ByteWriter& w) const;
  void restore(binio::ByteReader& r);

 private:
  void observe_residual_balancing(std::span<const double> x,
                                  std::span<const double> z,
                                  std::span<const double> z_prev);
  void observe_spectral(int k, std::span<const double> x,
                        std::span<const double> z, std::span<const double> y,
                        std::span<const double> y_hat);

  /// Hybrid Barzilai–Borwein stepsize from the secant pair (Δdual, Δprimal).
  /// Returns {stepsize, correlation}; stepsize ≤ 0 means "unusable pair".
  static std::pair<double, double> spectral_stepsize(
      std::span<const double> d_dual, std::span<const double> d_primal);

  void clamp_and_safeguard(double proposed, int k);

  PenaltyOptions options_;
  double rho_;
  // Spectral memory from the last adaptation point k0.
  bool has_memory_ = false;
  std::vector<double> x0_, yhat0_, z0_, y0_;
};

}  // namespace nadmm::core
