#include "model/softmax.hpp"

#include <algorithm>
#include <cmath>

#include "la/flops.hpp"
#include "la/kernels.hpp"
#include "la/vector_ops.hpp"
#include "support/check.hpp"
#include "support/telemetry.hpp"

namespace nadmm::model {

namespace {
// Per-sample loops cost only a few flops per element; stay serial below
// this many elements (shared with the fused forward in la/kernels.hpp).
constexpr std::size_t kParallelRows = la::kernels::kParallelRows;
}  // namespace

SoftmaxObjective::SoftmaxObjective(const data::Dataset& shard, double l2_lambda)
    : shard_(&shard),
      lambda_(l2_lambda),
      p_(shard.num_features()),
      cm1_(static_cast<std::size_t>(shard.num_classes()) - 1),
      dim_(p_ * cm1_),
      scores_(shard.num_samples(), cm1_),
      probs_(shard.num_samples(), cm1_),
      lse_(shard.num_samples()),
      panel_(shard.num_samples(), cm1_),
      xm_(p_, cm1_),
      vm_(p_, cm1_),
      gm_(p_, cm1_) {
  NADMM_CHECK(l2_lambda >= 0.0, "l2 lambda must be nonnegative");
  NADMM_CHECK(shard.num_classes() >= 2, "softmax needs >= 2 classes");
  cached_x_.assign(dim_, 0.0);
}

void SoftmaxObjective::ensure_forward(std::span<const double> x) {
  NADMM_CHECK(x.size() == dim_, "softmax: parameter size mismatch");
  if (cache_valid_ && std::equal(x.begin(), x.end(), cached_x_.begin())) {
    return;
  }
  std::copy(x.begin(), x.end(), cached_x_.begin());

  // Parameter vector -> p×(C−1) matrix (row-major by feature).
  std::copy(x.begin(), x.end(), xm_.data().begin());
  shard_->scores(xm_, scores_);

  // Fused single-sweep softmax forward (la/kernels.cpp): per-row online
  // max / exp / sum with the paper's eq. (9)-(10) stabilization, writing
  // the probability panel P_ic = e^{s_ic − M_i} / α_i and the per-sample
  // LSE, and returning the summed cross-entropy loss.
  const std::size_t n = shard_->num_samples();
  {
    TELEM_SPAN("kernel", "softmax_forward");
    loss_sum_ = la::kernels::softmax_forward(scores_, shard_->labels(), probs_,
                                             lse_);
    nadmm::flops::add(5 * n * cm1_ + 4 * n);
    nadmm::flops::add_bytes(8 * (2 * n * cm1_ + n) + 4 * n);
  }
  cache_valid_ = true;
}

double SoftmaxObjective::value(std::span<const double> x) {
  ensure_forward(x);
  double f = loss_sum_;
  if (lambda_ > 0.0) f += 0.5 * lambda_ * la::nrm2_sq(x);
  return f;
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
    const auto prob = probs_.row(static_cast<std::size_t>(i));
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

double SoftmaxObjective::value_and_gradient(std::span<const double> x,
                                            std::span<double> g) {
  gradient(x, g);   // shares the forward pass through the cache
  return value(x);  // cache hit: no recompute
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
    const auto prob = probs_.row(static_cast<std::size_t>(i));
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
    const auto s = scores_.row(static_cast<std::size_t>(i));
    double best = 0.0;  // implicit class score
    std::int32_t arg = static_cast<std::int32_t>(cm1_);
    for (std::size_t c = 0; c < cm1_; ++c) {
      if (s[c] > best) {
        best = s[c];
        arg = static_cast<std::int32_t>(c);
      }
    }
    out[static_cast<std::size_t>(i)] = arg;
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
