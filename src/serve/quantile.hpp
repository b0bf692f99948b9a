// Online quantile sketch for serving-latency percentiles.
//
// HDR-histogram-style log-bucketed counting: a value lands in the
// geometric bucket [floor·g^(i−1), floor·g^i) with growth g = (1 + ε)²,
// and a quantile query walks the cumulative counts and answers with the
// bucket's geometric midpoint, so the relative error is bounded by
// √g − 1 = ε. Inserts are O(1), queries O(buckets), and — unlike P² or
// t-digest — the state after n inserts depends only on the multiset of
// values, never on insertion order, which is what keeps serving reports
// byte-identical across sweep `--jobs` levels.
#pragma once

#include <cstdint>
#include <vector>

namespace nadmm::serve {

class QuantileSketch {
 public:
  /// `relative_error` ε ∈ (0, 0.5] bounds the quantile error; `floor` is
  /// the resolution limit — values at or below it share one exact-ish
  /// bucket (1 ns default, far below any simulated latency of interest).
  explicit QuantileSketch(double relative_error = 0.01, double floor = 1e-9);

  /// Insert one value (must be finite and >= 0).
  void add(double value);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const;
  /// Exact maximum (both extremes are tracked outside the buckets).
  [[nodiscard]] double max() const;

  /// Value at quantile q ∈ [0, 1] with relative error <= ε, clamped to
  /// the exact [min, max]. Throws InvalidArgument on an empty sketch.
  [[nodiscard]] double quantile(double q) const;

 private:
  double floor_;
  double growth_;          // bucket width ratio g = (1 + ε)²
  double inv_log_growth_;  // 1 / log g
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::vector<std::uint64_t> buckets_;  // grown on demand
};

}  // namespace nadmm::serve
