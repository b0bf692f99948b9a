#include "data/generators.hpp"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <utility>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace nadmm::data {

namespace {

/// Derive a deterministic per-sample RNG: independent of how samples are
/// distributed over threads.
Rng sample_rng(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  Rng r(seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
  r.next_u64();
  Rng derived(r.next_u64() ^ (index * 0xbf58476d1ce4e5b9ULL + 0x94d049bb133111ebULL));
  derived.next_u64();
  return derived;
}

constexpr std::uint64_t kTrainStream = 1;
constexpr std::uint64_t kTestStream = 2;
constexpr std::uint64_t kModelStream = 3;

}  // namespace

// ---------------------------------------------------------------------------
// blobs
// ---------------------------------------------------------------------------

namespace {

la::DenseMatrix blob_prototypes(std::size_t p, int classes, double separation,
                                std::uint64_t seed) {
  la::DenseMatrix mu(static_cast<std::size_t>(classes), p);
  Rng rng = sample_rng(seed, kModelStream, 0);
  const double scale = separation / std::sqrt(static_cast<double>(p));
  for (std::size_t c = 0; c < static_cast<std::size_t>(classes); ++c) {
    for (std::size_t j = 0; j < p; ++j) mu.at(c, j) = scale * rng.normal();
  }
  return mu;
}

Dataset blob_split(std::size_t n, std::size_t p, int classes,
                   const la::DenseMatrix& mu, double noise, std::uint64_t seed,
                   std::uint64_t stream) {
  la::DenseMatrix x(n, p);
  std::vector<std::int32_t> y(n);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
    Rng rng = sample_rng(seed, stream, static_cast<std::uint64_t>(i));
    const auto c = static_cast<std::int32_t>(
        rng.uniform_index(static_cast<std::uint64_t>(classes)));
    y[i] = c;
    auto row = x.row(static_cast<std::size_t>(i));
    const auto proto = mu.row(static_cast<std::size_t>(c));
    for (std::size_t j = 0; j < p; ++j) row[j] = proto[j] + noise * rng.normal();
  }
  return Dataset::dense(std::move(x), std::move(y), classes);
}

}  // namespace

TrainTest make_blobs(std::size_t n_train, std::size_t n_test, std::size_t p,
                     int classes, double separation, double noise,
                     std::uint64_t seed) {
  NADMM_CHECK(n_train > 0 && p > 0 && classes >= 2, "make_blobs: bad shape");
  const la::DenseMatrix mu = blob_prototypes(p, classes, separation, seed);
  TrainTest tt;
  tt.train = blob_split(n_train, p, classes, mu, noise, seed, kTrainStream);
  tt.test = blob_split(n_test, p, classes, mu, noise, seed, kTestStream);
  return tt;
}

// ---------------------------------------------------------------------------
// HIGGS-like
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kHiggsBase = 21;     // "low-level" features
constexpr std::size_t kHiggsDerived = 7;   // quadratic "high-level" features
constexpr std::size_t kHiggsP = kHiggsBase + kHiggsDerived;  // 28, as in HIGGS

Dataset higgs_split(std::size_t n, std::span<const double> w, double bias,
                    std::uint64_t seed, std::uint64_t stream) {
  la::DenseMatrix x(n, kHiggsP);
  std::vector<std::int32_t> y(n);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
    Rng rng = sample_rng(seed, stream, static_cast<std::uint64_t>(i));
    auto row = x.row(static_cast<std::size_t>(i));
    for (std::size_t j = 0; j < kHiggsBase; ++j) row[j] = rng.normal();
    // Derived features mimic the HIGGS "high-level" kinematic quantities:
    // bounded products of the low-level features.
    for (std::size_t j = 0; j < kHiggsDerived; ++j) {
      const double prod = row[2 * j] * row[2 * j + 1];
      row[kHiggsBase + j] = std::tanh(prod);
    }
    double score = bias;
    for (std::size_t j = 0; j < kHiggsP; ++j) score += w[j] * row[j];
    const double prob = 1.0 / (1.0 + std::exp(-score));
    y[i] = rng.bernoulli(prob) ? 1 : 0;
  }
  return Dataset::dense(std::move(x), std::move(y), 2);
}

}  // namespace

TrainTest make_higgs_like(std::size_t n_train, std::size_t n_test,
                          std::uint64_t seed) {
  // Ground-truth logistic model => realizable, well-conditioned problem.
  std::vector<double> w(kHiggsP);
  Rng rng = sample_rng(seed, kModelStream, 1);
  for (double& v : w) v = 1.5 * rng.normal() / std::sqrt(double(kHiggsP));
  const double bias = 0.1 * rng.normal();
  TrainTest tt;
  tt.train = higgs_split(n_train, w, bias, seed, kTrainStream);
  tt.test = higgs_split(n_test, w, bias, seed, kTestStream);
  return tt;
}

// ---------------------------------------------------------------------------
// MNIST-like
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kMnistSide = 28;
constexpr std::size_t kMnistP = kMnistSide * kMnistSide;
constexpr int kMnistClasses = 10;

/// One stroke prototype per class: a random walk on the 28×28 grid,
/// blurred so the pattern is smooth like handwriting.
la::DenseMatrix mnist_prototypes(std::uint64_t seed) {
  la::DenseMatrix proto(kMnistClasses, kMnistP);
  for (int c = 0; c < kMnistClasses; ++c) {
    Rng rng = sample_rng(seed, kModelStream, 100 + static_cast<std::uint64_t>(c));
    auto row = proto.row(static_cast<std::size_t>(c));
    // Random walk: ~120 steps starting near the centre.
    double px = 14.0 + 4.0 * rng.normal();
    double py = 14.0 + 4.0 * rng.normal();
    for (int s = 0; s < 120; ++s) {
      px = std::clamp(px + 1.4 * rng.normal(), 2.0, 25.0);
      py = std::clamp(py + 1.4 * rng.normal(), 2.0, 25.0);
      const auto cx = static_cast<std::size_t>(px);
      const auto cy = static_cast<std::size_t>(py);
      row[cy * kMnistSide + cx] = 1.0;
    }
    // 3x3 box blur, two passes.
    std::vector<double> tmp(kMnistP);
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t yy = 0; yy < kMnistSide; ++yy) {
        for (std::size_t xx = 0; xx < kMnistSide; ++xx) {
          double acc = 0.0;
          int cnt = 0;
          for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
              const auto nx = static_cast<std::ptrdiff_t>(xx) + dx;
              const auto ny = static_cast<std::ptrdiff_t>(yy) + dy;
              if (nx < 0 || ny < 0 || nx >= static_cast<std::ptrdiff_t>(kMnistSide) ||
                  ny >= static_cast<std::ptrdiff_t>(kMnistSide)) {
                continue;
              }
              acc += row[static_cast<std::size_t>(ny) * kMnistSide +
                         static_cast<std::size_t>(nx)];
              ++cnt;
            }
          }
          tmp[yy * kMnistSide + xx] = acc / cnt;
        }
      }
      std::copy(tmp.begin(), tmp.end(), row.begin());
    }
    // Normalize prototype to peak 1.
    double peak = 1e-12;
    for (double v : row) peak = std::max(peak, v);
    for (double& v : row) v /= peak;
  }
  return proto;
}

Dataset mnist_split(std::size_t n, const la::DenseMatrix& proto,
                    std::uint64_t seed, std::uint64_t stream) {
  la::DenseMatrix x(n, kMnistP);
  std::vector<std::int32_t> y(n);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
    Rng rng = sample_rng(seed, stream, static_cast<std::uint64_t>(i));
    const auto c = static_cast<std::int32_t>(rng.uniform_index(kMnistClasses));
    // ~2% label noise keeps Bayes accuracy below 1 (like real handwriting
    // ambiguity) so accuracy-vs-time curves carry information.
    y[i] = rng.bernoulli(0.02)
               ? static_cast<std::int32_t>(rng.uniform_index(kMnistClasses))
               : c;
    auto row = x.row(static_cast<std::size_t>(i));
    const auto pr = proto.row(static_cast<std::size_t>(c));
    const double intensity = 0.6 + 0.6 * rng.uniform();
    // Random translation of the stroke by up to ±2 pixels each way —
    // the within-class variability of handwriting.
    const int dx = static_cast<int>(rng.uniform_index(5)) - 2;
    const int dy = static_cast<int>(rng.uniform_index(5)) - 2;
    for (std::size_t yy = 0; yy < kMnistSide; ++yy) {
      for (std::size_t xx = 0; xx < kMnistSide; ++xx) {
        const auto sx = static_cast<std::ptrdiff_t>(xx) - dx;
        const auto sy = static_cast<std::ptrdiff_t>(yy) - dy;
        double v = 0.0;
        if (sx >= 0 && sy >= 0 && sx < static_cast<std::ptrdiff_t>(kMnistSide) &&
            sy < static_cast<std::ptrdiff_t>(kMnistSide)) {
          v = intensity * pr[static_cast<std::size_t>(sy) * kMnistSide +
                             static_cast<std::size_t>(sx)];
        }
        if (v > 0.02) v += 0.15 * rng.normal();  // ink jitter on the stroke
        v = std::clamp(v, 0.0, 1.0);
        if (v < 0.02) v = 0.0;  // background stays exactly zero
        row[yy * kMnistSide + xx] = v;
      }
    }
  }
  return Dataset::dense(std::move(x), std::move(y), kMnistClasses);
}

}  // namespace

TrainTest make_mnist_like(std::size_t n_train, std::size_t n_test,
                          std::uint64_t seed) {
  const la::DenseMatrix proto = mnist_prototypes(seed);
  TrainTest tt;
  tt.train = mnist_split(n_train, proto, seed, kTrainStream);
  tt.test = mnist_split(n_test, proto, seed, kTestStream);
  return tt;
}

// ---------------------------------------------------------------------------
// CIFAR-like
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kCifarP = 3072;
constexpr int kCifarClasses = 10;
constexpr std::size_t kCifarWindow = 32;  // moving-average width => banded cov

Dataset cifar_split(std::size_t n, const la::DenseMatrix& mu,
                    std::uint64_t seed, std::uint64_t stream) {
  la::DenseMatrix x(n, kCifarP);
  std::vector<std::int32_t> y(n);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
    Rng rng = sample_rng(seed, stream, static_cast<std::uint64_t>(i));
    const auto c = static_cast<std::int32_t>(rng.uniform_index(kCifarClasses));
    // ~5% label noise: natural-image classes genuinely overlap for a
    // linear model.
    y[i] = rng.bernoulli(0.05)
               ? static_cast<std::int32_t>(rng.uniform_index(kCifarClasses))
               : c;
    auto row = x.row(static_cast<std::size_t>(i));
    const auto proto = mu.row(static_cast<std::size_t>(c));
    // Latent field, then windowed moving average: neighbouring features are
    // strongly correlated (like neighbouring pixels) which makes the data
    // covariance — and hence the softmax Hessian — badly conditioned.
    std::vector<double> latent(kCifarP + kCifarWindow);
    for (double& v : latent) v = rng.normal();
    const double inv = 1.0 / std::sqrt(static_cast<double>(kCifarWindow));
    double acc = 0.0;
    for (std::size_t j = 0; j < kCifarWindow; ++j) acc += latent[j];
    for (std::size_t j = 0; j < kCifarP; ++j) {
      row[j] = proto[j] + inv * acc;
      acc += latent[j + kCifarWindow] - latent[j];
    }
  }
  return Dataset::dense(std::move(x), std::move(y), kCifarClasses);
}

}  // namespace

TrainTest make_cifar_like(std::size_t n_train, std::size_t n_test,
                          std::uint64_t seed) {
  // Small class separation relative to the (correlated) noise: a linear
  // model on raw CIFAR pixels tops out around 40% accuracy, so the class
  // means barely poke out of the banded noise.
  la::DenseMatrix mu(kCifarClasses, kCifarP);
  Rng rng = sample_rng(seed, kModelStream, 2);
  for (std::size_t c = 0; c < kCifarClasses; ++c) {
    for (std::size_t j = 0; j < kCifarP; ++j) {
      mu.at(c, j) = 0.13 * rng.normal() / std::sqrt(32.0);
    }
  }
  TrainTest tt;
  tt.train = cifar_split(n_train, mu, seed, kTrainStream);
  tt.test = cifar_split(n_test, mu, seed, kTestStream);
  return tt;
}

// ---------------------------------------------------------------------------
// E18-like (sparse scRNA-seq counts)
// ---------------------------------------------------------------------------

namespace {

constexpr int kE18Classes = 20;

Dataset e18_split(std::size_t n, std::size_t p, const la::DenseMatrix& rates,
                  std::uint64_t seed, std::uint64_t stream) {
  // Two passes: count nonzeros per row, then fill CSR directly; both passes
  // draw from per-sample RNGs so the result is thread-count independent.
  std::vector<std::vector<std::pair<std::int64_t, double>>> rows(n);
  std::vector<std::int32_t> y(n);
#pragma omp parallel for schedule(dynamic, 64)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
    Rng rng = sample_rng(seed, stream, static_cast<std::uint64_t>(i));
    const auto c = static_cast<std::int32_t>(rng.uniform_index(kE18Classes));
    // ~3% annotation noise (cell-type labels are themselves clustering
    // outputs in the real data).
    y[i] = rng.bernoulli(0.03)
               ? static_cast<std::int32_t>(rng.uniform_index(kE18Classes))
               : c;
    // Cell "size factor": total mRNA content varies per cell.
    const double size_factor = std::exp(0.35 * rng.normal());
    auto& entries = rows[static_cast<std::size_t>(i)];
    for (std::size_t g = 0; g < p; ++g) {
      const double lambda = size_factor * rates.at(static_cast<std::size_t>(c), g);
      if (lambda <= 1e-9) continue;
      // For tiny rates, short-circuit: P(count>0) ~= lambda.
      std::uint64_t count;
      if (lambda < 0.02) {
        count = rng.bernoulli(lambda) ? 1 : 0;
      } else {
        count = rng.poisson(lambda);
      }
      if (count > 0) {
        entries.emplace_back(static_cast<std::int64_t>(g),
                             std::log1p(static_cast<double>(count)));
      }
    }
  }
  std::vector<std::int64_t> row_ptr(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    row_ptr[i + 1] = row_ptr[i] + static_cast<std::int64_t>(rows[i].size());
  }
  std::vector<std::int64_t> col_idx(static_cast<std::size_t>(row_ptr[n]));
  std::vector<double> values(static_cast<std::size_t>(row_ptr[n]));
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t at = static_cast<std::size_t>(row_ptr[i]);
    for (const auto& [col, val] : rows[i]) {
      col_idx[at] = col;
      values[at] = val;
      ++at;
    }
  }
  la::CsrMatrix csr(n, p, std::move(row_ptr), std::move(col_idx),
                    std::move(values));
  return Dataset::sparse(std::move(csr), std::move(y), kE18Classes);
}

}  // namespace

TrainTest make_e18_like(std::size_t n_train, std::size_t n_test, std::size_t p,
                        std::uint64_t seed) {
  NADMM_CHECK(p >= 64, "e18_like: p must be at least 64");
  // Per-class expression rates: a shared low baseline plus ~4% marker genes
  // with strongly elevated rates — mirroring cell-type marker structure.
  la::DenseMatrix rates(kE18Classes, p);
  Rng rng = sample_rng(seed, kModelStream, 3);
  std::vector<double> baseline(p);
  for (std::size_t g = 0; g < p; ++g) {
    // Most genes barely expressed; a few housekeeping genes common to all.
    baseline[g] = rng.bernoulli(0.05) ? 0.6 * rng.uniform() : 0.02 * rng.uniform();
  }
  // Cell types come in related pairs (sibling types share a lineage):
  // siblings share most markers, so the classifier must rely on the few
  // type-specific ones — like real scRNA data, where closely related cell
  // types are the hard distinctions.
  la::DenseMatrix lineage(kE18Classes / 2, p);
  for (std::size_t l = 0; l < kE18Classes / 2; ++l) {
    for (std::size_t g = 0; g < p; ++g) {
      double r = baseline[g];
      if (rng.bernoulli(0.04)) r += 1.2 + 1.6 * rng.uniform();  // lineage marker
      lineage.at(l, g) = r;
    }
  }
  for (std::size_t c = 0; c < kE18Classes; ++c) {
    for (std::size_t g = 0; g < p; ++g) {
      double r = lineage.at(c / 2, g);
      if (rng.bernoulli(0.008)) r += 0.8 + 1.0 * rng.uniform();  // type marker
      rates.at(c, g) = r;
    }
  }
  TrainTest tt;
  tt.train = e18_split(n_train, p, rates, seed, kTrainStream);
  tt.test = e18_split(n_test, p, rates, seed, kTestStream);
  return tt;
}

DatasetSource parse_dataset_source(const std::string& spec) {
  using N = std::size_t;
  using S = std::uint64_t;
  static constexpr std::pair<const char*, Generator> kGenerators[] = {
      {"higgs", [](N n, N t, N, S s) { return make_higgs_like(n, t, s); }},
      {"mnist", [](N n, N t, N, S s) { return make_mnist_like(n, t, s); }},
      {"cifar", [](N n, N t, N, S s) { return make_cifar_like(n, t, s); }},
      {"e18", [](N n, N t, N p, S s) { return make_e18_like(n, t, p, s); }},
      {"blobs",
       [](N n, N t, N p, S s) { return make_blobs(n, t, p, 10, 3.0, 1.0, s); }},
  };
  constexpr std::string_view kLibsvm = "libsvm:";
  if (spec.rfind(kLibsvm, 0) == 0) {
    if (spec.size() == kLibsvm.size()) {
      throw InvalidArgument("dataset 'libsvm:' needs a path (libsvm:<path>)");
    }
    return {nullptr, spec.substr(kLibsvm.size())};
  }
  std::string names;
  for (const auto& [name, generator] : kGenerators) {
    if (spec == name) return {generator, {}};
    names += std::string(name) + '|';
  }
  throw InvalidArgument("unknown dataset '" + spec + "' (expected " + names +
                        "libsvm:<path>)");
}

}  // namespace nadmm::data
