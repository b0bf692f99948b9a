#include "serve/quantile.hpp"

#include <cmath>

#include "support/check.hpp"

namespace nadmm::serve {

QuantileSketch::QuantileSketch(double relative_error, double floor)
    : floor_(floor) {
  NADMM_CHECK(relative_error > 0.0 && relative_error <= 0.5,
              "quantile sketch: relative error must be in (0, 0.5]");
  NADMM_CHECK(floor > 0.0, "quantile sketch: floor must be positive");
  growth_ = (1.0 + relative_error) * (1.0 + relative_error);
  inv_log_growth_ = 1.0 / std::log(growth_);
}

void QuantileSketch::add(double value) {
  NADMM_CHECK(std::isfinite(value) && value >= 0.0,
              "quantile sketch: values must be finite and non-negative");
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
  }
  ++count_;
  sum_ += value;
  std::size_t idx = 0;
  if (value > floor_) {
    idx = 1 + static_cast<std::size_t>(
                  std::floor(std::log(value / floor_) * inv_log_growth_));
  }
  if (idx >= buckets_.size()) buckets_.resize(idx + 1, 0);
  ++buckets_[idx];
}

double QuantileSketch::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double QuantileSketch::max() const {
  NADMM_CHECK(count_ > 0, "quantile sketch: max() of an empty sketch");
  return max_;
}

double QuantileSketch::quantile(double q) const {
  NADMM_CHECK(q >= 0.0 && q <= 1.0, "quantile sketch: q must be in [0, 1]");
  NADMM_CHECK(count_ > 0, "quantile sketch: quantile() of an empty sketch");
  // Nearest-rank on the bucket CDF: rank r ∈ [0, count) selects the
  // bucket holding the ⌈q·(count−1)⌉-th smallest value.
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_ - 1)));
  std::uint64_t cumulative = 0;
  std::size_t hit = buckets_.size() - 1;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i];
    if (cumulative > target) {
      hit = i;
      break;
    }
  }
  // Bucket 0 holds values <= floor; other buckets answer with their
  // geometric midpoint floor·g^(hit−1)·√g.
  double v = floor_;
  if (hit > 0) {
    v = floor_ * std::pow(growth_, static_cast<double>(hit) - 0.5);
  }
  if (v < min_) v = min_;
  if (v > max_) v = max_;
  return v;
}

}  // namespace nadmm::serve
