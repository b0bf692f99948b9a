// Synthetic dataset generators matching the paper's evaluation datasets.
//
// We do not have the real HIGGS / MNIST / CIFAR-10 / E18 data in this
// environment, so each generator reproduces the *axes the figures depend
// on* (DESIGN.md §2): class count, feature dimension, conditioning, and
// sparsity. Generation is deterministic (per-sample derived RNG streams,
// independent of thread count) so every experiment is reproducible.
#pragma once

#include <cstdint>
#include <string>

#include "data/dataset.hpp"

namespace nadmm::data {

// TrainTest lives in data/dataset.hpp (shared with the file loaders and
// the DatasetProvider).

/// Generic Gaussian-blob multiclass problem (workhorse for unit tests):
/// class prototypes ~ N(0, (sep²/p)·I), samples = prototype + noise·N(0,I).
TrainTest make_blobs(std::size_t n_train, std::size_t n_test, std::size_t p,
                     int classes, double separation, double noise,
                     std::uint64_t seed);

/// HIGGS-like: binary, p=28, well-conditioned. Features are isotropic
/// normals plus a few quadratic "derived" features (as in the physics
/// dataset); labels from a ground-truth logistic model, so the problem is
/// realizable and the Hessian well-conditioned — the regime where the
/// paper observes both Newton-ADMM and GIANT converging in ~1 iteration.
TrainTest make_higgs_like(std::size_t n_train, std::size_t n_test,
                          std::uint64_t seed);

/// MNIST-like: 10 classes, p=784 pixel-like features in [0,1] with ~75%
/// zeros. Each class has a smooth random stroke prototype on a 28×28
/// grid; samples modulate intensity and add clipped noise.
TrainTest make_mnist_like(std::size_t n_train, std::size_t n_test,
                          std::uint64_t seed);

/// CIFAR-like: 10 classes, p=3072, deliberately ill-conditioned: features
/// are a windowed moving average of a latent normal field (banded, highly
/// correlated covariance, like neighbouring pixels), and class means are
/// small relative to the noise. This is the regime where GIANT needs many
/// more iterations than Newton-ADMM in the paper's Figure 3.
TrainTest make_cifar_like(std::size_t n_train, std::size_t n_test,
                          std::uint64_t seed);

/// E18-like: 20 classes, high-dimensional sparse nonnegative counts
/// (single-cell RNA-seq profile): ~4% density, per-class marker genes
/// with elevated Poisson rates, log1p-transformed. `p` is configurable
/// because the real dataset's 27,998 genes are scaled down by default.
TrainTest make_e18_like(std::size_t n_train, std::size_t n_test, std::size_t p,
                        std::uint64_t seed);

/// A named generator: `n_train`/`n_test` scale the problem; `p` is
/// honoured for e18/blobs.
using Generator = TrainTest (*)(std::size_t n_train, std::size_t n_test,
                                std::size_t p, std::uint64_t seed);

/// A dataset spec, resolved.
struct DatasetSource {
  Generator generator = nullptr;  ///< the named generator, or
  std::string libsvm_path;        ///< the file of a `libsvm:<path>` source
};

/// "higgs" | "mnist" | "cifar" | "e18" | "blobs" | "libsvm:<path>";
/// throws InvalidArgument on an unknown name or an empty path. The one
/// parser of dataset specs: --dataset, the datasets axis and the data
/// plane (generate_dataset) all call it.
DatasetSource parse_dataset_source(const std::string& spec);

}  // namespace nadmm::data
