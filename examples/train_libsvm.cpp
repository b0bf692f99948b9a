// Train on a real dataset from disk (LIBSVM format — the format the real
// HIGGS / MNIST / E18 distributions ship in). Demonstrates the loader,
// feature scaling, train/test splitting and any of the library's solvers.
//
//   ./examples/train_libsvm --data=path/to/data.libsvm --solver newton-admm
#include <cstdio>

#include "data/io.hpp"
#include "data/standardize.hpp"
#include "runner/harness.hpp"
#include "support/cli.hpp"

int main(int argc, char** argv) {
  using namespace nadmm;
  CliParser cli("Train a softmax classifier on a LIBSVM file");
  cli.add_string("data", "", "LIBSVM file to train on (required)");
  cli.add_string("solver", "newton-admm",
                 "any registered solver (see `nadmm list`)");
  cli.add_int("workers", 4, "simulated workers");
  cli.add_int("epochs", 50, "training epochs");
  cli.add_double("lambda", 1e-5, "l2 regularization");
  cli.add_double("test-fraction", 0.2, "held-out fraction");
  cli.add_flag("scale-features", "standardize features before training");
  if (!cli.parse(argc, argv)) return 0;
  if (cli.get_string("data").empty()) {
    std::fprintf(stderr,
                 "usage: train_libsvm --data=<file.libsvm> [options]\n");
    return 1;
  }

  auto full = data::load_libsvm(cli.get_string("data"));
  std::printf("loaded %zu samples, %zu features, %d classes (density %.3f)\n",
              full.num_samples(), full.num_features(), full.num_classes(),
              full.feature_density());

  const auto n_test = static_cast<std::size_t>(
      cli.get_double("test-fraction") * static_cast<double>(full.num_samples()));
  const std::size_t n_train = full.num_samples() - n_test;
  auto train = full.row_slice(0, n_train);
  auto test = full.row_slice(n_train, full.num_samples());

  if (cli.get_flag("scale-features")) {
    data::Standardizer scaler;
    scaler.fit(train);
    train = scaler.transform(train);
    test = scaler.transform(test);
  }

  runner::ExperimentConfig cfg;
  cfg.workers = static_cast<int>(cli.get_int("workers"));
  cfg.iterations = static_cast<int>(cli.get_int("epochs"));
  cfg.lambda = cli.get_double("lambda");
  auto cluster = runner::make_cluster(cfg);
  const auto result = runner::run_solver(cli.get_string("solver"), cluster,
      runner::shard_for_solver(cli.get_string("solver"), train, &test, cfg), cfg);
  runner::print_trace_summary(result);
  return 0;
}
