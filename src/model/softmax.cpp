#include "model/softmax.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "la/flops.hpp"
#include "la/kernels.hpp"
#include "la/vector_ops.hpp"
#include "support/check.hpp"
#include "support/telemetry.hpp"

namespace nadmm::model {

namespace {
// Per-sample loops cost only a few flops per element; stay serial below
// this many elements (shared with the softmax forward in la/kernels.hpp).
constexpr std::size_t kParallelRows = la::kernels::kParallelRows;
}  // namespace

SoftmaxObjective::SoftmaxObjective(const data::Dataset& shard, double l2_lambda)
    : shard_(&shard),
      lambda_(l2_lambda),
      p_(shard.num_features()),
      cm1_(static_cast<std::size_t>(shard.num_classes()) - 1),
      dim_(p_ * cm1_),
      fwd_(shard.num_samples(), p_, cm1_),
      panel_(shard.num_samples(), cm1_),
      vm_(p_, cm1_),
      gm_(p_, cm1_) {
  NADMM_CHECK(l2_lambda >= 0.0, "l2 lambda must be nonnegative");
  NADMM_CHECK(shard.num_classes() >= 2, "softmax needs >= 2 classes");
}

void SoftmaxObjective::forward(std::span<const double> x, Forward& f) const {
  // Parameter vector -> p×(C−1) matrix (row-major by feature).
  std::copy(x.begin(), x.end(), f.xm.data().begin());
  shard_->scores(f.xm, f.scores);

  // Softmax forward (la/kernels.cpp): per row the max, then the shifted
  // exponentials and their sum, the paper's eq. (9)-(10) stabilization,
  // writing the probability panel P_ic = e^{s_ic − M_i} / α_i and the
  // per-sample LSE, and returning the summed cross-entropy loss.
  const std::size_t n = shard_->num_samples();
  TELEM_SPAN("kernel", "softmax_forward");
  f.loss = la::kernels::softmax_forward(f.scores, shard_->labels(), f.probs,
                                        f.lse);
  nadmm::flops::add(5 * n * cm1_ + 4 * n);
  nadmm::flops::add_bytes(8 * (2 * n * cm1_ + n) + 4 * n);
}

void SoftmaxObjective::ensure_forward(std::span<const double> x) {
  NADMM_CHECK(x.size() == dim_, "softmax: parameter size mismatch");
  if (cached_at(x)) return;
  cached_x_.assign(x.begin(), x.end());
  forward(x, fwd_);
}

double SoftmaxObjective::value(std::span<const double> x) const {
  NADMM_CHECK(x.size() == dim_, "softmax: parameter size mismatch");
  double f = fwd_.loss;
  if (!cached_at(x)) {
    Forward scratch(shard_->num_samples(), p_, cm1_);
    forward(x, scratch);
    f = scratch.loss;
  }
  if (lambda_ > 0.0) f += 0.5 * lambda_ * la::nrm2_sq(x);
  return f;
}

double SoftmaxObjective::value(std::span<const double> x) {
  ensure_forward(x);
  return std::as_const(*this).value(x);  // cache hit
}

void SoftmaxObjective::gradient(std::span<const double> x, std::span<double> g) {
  NADMM_CHECK(g.size() == dim_, "softmax: gradient size mismatch");
  ensure_forward(x);
  // Residual panel R = P − Y.
  const std::size_t n = shard_->num_samples();
  const auto labels = shard_->labels();
  [[maybe_unused]] const bool parallel = n * cm1_ >= kParallelRows;
#pragma omp parallel for schedule(static) if (parallel)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
    const auto prob = fwd_.probs.row(static_cast<std::size_t>(i));
    auto r = panel_.row(static_cast<std::size_t>(i));
    std::copy(prob.begin(), prob.end(), r.begin());
    const auto y = static_cast<std::size_t>(labels[static_cast<std::size_t>(i)]);
    if (y < cm1_) r[y] -= 1.0;
  }
  nadmm::flops::add(n * cm1_);
  shard_->accumulate_gradient(1.0, panel_, 0.0, gm_);
  std::copy(gm_.data().begin(), gm_.data().end(), g.begin());
  if (lambda_ > 0.0) la::axpy(lambda_, x, g);
}

void SoftmaxObjective::hessian_vec(std::span<const double> x,
                                   std::span<const double> v,
                                   std::span<double> hv) {
  NADMM_CHECK(v.size() == dim_ && hv.size() == dim_,
              "softmax: hessian_vec size mismatch");
  ensure_forward(x);
  // U = A · V  (per-sample directional scores).
  std::copy(v.begin(), v.end(), vm_.data().begin());
  shard_->scores(vm_, panel_);  // panel_ = U
  // W_ic = P_ic (U_ic − ⟨P_i, U_i⟩): the softmax Hessian acting on the
  // score perturbation (the implicit class has U = 0 and drops out).
  const std::size_t n = shard_->num_samples();
  [[maybe_unused]] const bool parallel = n * cm1_ >= kParallelRows;
#pragma omp parallel for schedule(static) if (parallel)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
    const auto prob = fwd_.probs.row(static_cast<std::size_t>(i));
    auto u = panel_.row(static_cast<std::size_t>(i));
    double mean = 0.0;
    for (std::size_t c = 0; c < cm1_; ++c) mean += prob[c] * u[c];
    for (std::size_t c = 0; c < cm1_; ++c) u[c] = prob[c] * (u[c] - mean);
  }
  nadmm::flops::add(4 * n * cm1_);
  shard_->accumulate_gradient(1.0, panel_, 0.0, gm_);
  std::copy(gm_.data().begin(), gm_.data().end(), hv.begin());
  if (lambda_ > 0.0) la::axpy(lambda_, v, hv);
}

std::vector<std::int32_t> SoftmaxObjective::predict(std::span<const double> x) {
  ensure_forward(x);
  const std::size_t n = shard_->num_samples();
  std::vector<std::int32_t> out(n);
  [[maybe_unused]] const bool parallel = n * cm1_ >= kParallelRows;
#pragma omp parallel for schedule(static) if (parallel)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
    const auto row = static_cast<std::size_t>(i);
    out[row] = predict_class(fwd_.scores.row(row));
  }
  return out;
}

double SoftmaxObjective::accuracy(std::span<const double> x) {
  const auto pred = predict(x);
  const auto labels = shard_->labels();
  std::size_t hits = 0;
  for (std::size_t i = 0; i < pred.size(); ++i) hits += (pred[i] == labels[i]);
  return pred.empty() ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(pred.size());
}

}  // namespace nadmm::model
