// Multiclass softmax / cross-entropy objective (paper §5) with the
// Log-Sum-Exp stabilization of §6.
//
// Parameters are x = [x_1; …; x_{C−1}] ∈ R^{(C−1)p} (class C is the
// implicit reference with score 0). The objective is the paper's eq. (8)
// — a *sum* over samples — plus an optional ℓ2 term (λ/2)‖x‖²:
//
//   F(x) = Σ_i [ log(1 + Σ_c e^{⟨a_i, x_c⟩}) − ⟨a_i, x_{b_i}⟩ ] + λ/2 ‖x‖².
//
// All heavy work is GEMM-shaped (scores S = A·X, gradient Aᵀ(P−Y),
// Hessian-vector product AᵀW) and runs over dense or CSR features.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "la/dense_matrix.hpp"
#include "model/objective.hpp"

namespace nadmm::model {

/// The class a score row predicts. The row holds the C−1 explicit class
/// scores; the implicit last class, index scores.size(), scores 0. An
/// explicit class must score above 0 to win, and the first of equal
/// maxima wins. Inline: serving calls it once per request.
[[nodiscard]] inline std::int32_t predict_class(
    std::span<const double> scores) {
  double best = 0.0;  // implicit reference class
  auto pred = static_cast<std::int32_t>(scores.size());
  for (std::size_t j = 0; j < scores.size(); ++j) {
    if (scores[j] > best) {
      best = scores[j];
      pred = static_cast<std::int32_t>(j);
    }
  }
  return pred;
}

class SoftmaxObjective final : public Objective {
 public:
  /// `shard` must outlive the objective. `l2_lambda` ≥ 0 adds the ridge
  /// term (use 0 for ADMM local objectives — the consensus z-update owns
  /// the regularizer, eq. 7).
  SoftmaxObjective(const data::Dataset& shard, double l2_lambda);

  [[nodiscard]] std::size_t dim() const override { return dim_; }
  [[nodiscard]] std::size_t num_samples() const override {
    return shard_->num_samples();
  }
  [[nodiscard]] int num_classes() const { return shard_->num_classes(); }

  double value(std::span<const double> x) override;
  /// F(x), bit-identical to value(x), leaving the forward cache as it
  /// is: a hit returns the cached loss, a miss runs the pass in scratch.
  /// Epoch scoring uses it, so a solver's next step pays as if unscored.
  [[nodiscard]] double value(std::span<const double> x) const;
  void gradient(std::span<const double> x, std::span<double> g) override;
  void hessian_vec(std::span<const double> x, std::span<const double> v,
                   std::span<double> hv) override;

  /// predict_class of every shard row's scores at `x` (a parameter
  /// vector of dim()).
  [[nodiscard]] std::vector<std::int32_t> predict(std::span<const double> x);

  /// Classification accuracy of `x` on this objective's shard.
  [[nodiscard]] double accuracy(std::span<const double> x);

 private:
  /// One forward pass: its buffers and the summed loss it returned.
  struct Forward {
    Forward(std::size_t n, std::size_t p, std::size_t c)
        : xm(p, c), scores(n, c), probs(n, c), lse(n) {}
    la::DenseMatrix xm;       // p × (C−1) parameter matrix
    la::DenseMatrix scores;   // n × (C−1)
    la::DenseMatrix probs;    // n × (C−1), P_ic
    std::vector<double> lse;  // per-sample log(1 + Σ e^{s})
    double loss = 0.0;
  };

  /// Scores, softmax forward and their flop/byte credits at `x`, into `f`.
  void forward(std::span<const double> x, Forward& f) const;
  [[nodiscard]] bool cached_at(std::span<const double> x) const {
    return std::ranges::equal(x, cached_x_);
  }
  /// Recompute the cached forward pass if `x` differs from its point.
  void ensure_forward(std::span<const double> x);

  const data::Dataset* shard_;
  double lambda_;
  std::size_t p_;
  std::size_t cm1_;  // C-1 score columns
  std::size_t dim_;

  // Cached forward pass at cached_x_ (empty until the first one).
  std::vector<double> cached_x_;
  Forward fwd_;

  // Scratch reused across calls.
  la::DenseMatrix panel_;   // n × (C−1) residual / W panel
  la::DenseMatrix vm_;      // p × (C−1) Hessian-vector direction
  la::DenseMatrix gm_;      // p × (C−1) gradient accumulator
};

}  // namespace nadmm::model
