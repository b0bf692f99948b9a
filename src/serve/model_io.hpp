// Trained-model persistence: the bridge between `nadmm run` and
// `nadmm serve`.
//
// A SavedModel is the flat parameter vector a solver produced plus the
// shape metadata the serving plane needs to rebuild the p×c coefficient
// panel and validate it against a request pool. The on-disk format is a
// versioned line-oriented text file with %.17g coefficients, so a
// save/load round trip is bit-exact (the same convention the sweep
// journal uses) and the file diffs cleanly under git.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace nadmm::serve {

/// A softmax model: x is p×(C−1), the last class the implicit reference.
struct SavedModel {
  std::string solver;   ///< provenance: the solver that trained x
  std::string dataset;  ///< provenance: the training dataset spec
  /// Provenance of the training data beside `dataset`: the generator
  /// seed and the requested split sizes. `nadmm serve` and serving
  /// sweeps reject a request pool that differs in any of them
  /// (runner::check_model_pool).
  std::uint64_t seed = 0;
  std::size_t n_train = 0;
  std::size_t n_test = 0;
  std::size_t num_features = 0;
  int num_classes = 0;
  double lambda = 0.0;  ///< l2 regularization used in training
  std::vector<double> x;  ///< row-major p×(C−1) coefficient panel

  /// Coefficient columns: C−1.
  [[nodiscard]] std::size_t coef_cols() const;
};

/// Write `model` to `path`. Throws RuntimeError on I/O failure and
/// InvalidArgument when the model shape is inconsistent.
void save_model(const SavedModel& model, const std::string& path);

/// Read a model back; strict parse — throws InvalidArgument naming the
/// offending path/line on any malformed or truncated input, an objective
/// other than softmax, or a non-finite λ or coefficient.
SavedModel load_model(const std::string& path);

}  // namespace nadmm::serve
