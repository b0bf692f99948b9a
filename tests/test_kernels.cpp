// Kernel-engine tests: parity of every rewired kernel against the seed
// reference implementations (kernels::reference) and an independent naive
// oracle, across degenerate shapes and the alpha/beta grid; dense-vs-CSR
// dispatch parity; bit-identity of every product and the softmax forward
// at any thread count; the softmax forward against a long-double oracle;
// and the bytes-moved accounting feeding the device roofline.
#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <cmath>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "la/dense_matrix.hpp"
#include "la/flops.hpp"
#include "la/kernels.hpp"
#include "la/sparse_matrix.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace nadmm::la {
namespace {

DenseMatrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  DenseMatrix m(r, c);
  for (double& e : m.data()) e = rng.normal();
  return m;
}

CsrMatrix random_csr(std::size_t r, std::size_t c, double density, Rng& rng) {
  std::vector<Triplet> t;
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      if (rng.bernoulli(density)) t.push_back({i, j, rng.normal()});
    }
  }
  return CsrMatrix(r, c, std::move(t));
}

void expect_matrices_near(const DenseMatrix& got, const DenseMatrix& want,
                          double tol, const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      const double scale = std::abs(want.at(i, j)) + 1.0;
      EXPECT_NEAR(got.at(i, j), want.at(i, j), tol * scale)
          << what << " at (" << i << "," << j << ")";
    }
  }
}

/// Temporarily pin the OpenMP thread count (no-op without OpenMP).
class ThreadGuard {
 public:
  explicit ThreadGuard(int threads) {
#ifdef _OPENMP
    prev_ = omp_get_max_threads();
    omp_set_num_threads(threads);
#else
    static_cast<void>(threads);
#endif
  }
  ~ThreadGuard() {
#ifdef _OPENMP
    omp_set_num_threads(prev_);
#endif
  }

 private:
  int prev_ = 1;
};

constexpr double kAlphas[] = {0.0, 1.0, 0.75};
constexpr double kBetas[] = {0.0, 1.0, -0.5};

// ---------------------------------------------------------- dense parity

TEST(KernelEngine, GemmNnMatchesReferenceAcrossShapesAndAlphaBeta) {
  Rng rng(11);
  // Row tails (m mod 4), strip tails (n mod 8), 1×N / N×1, tall and wide.
  // m × k × n. Class counts off the lane multiples run their leftover
  // columns across rows (transposed A tiles); m not a multiple of 4/8
  // leaves rows for the scalar loop, k not a multiple of 8 a k tail.
  const std::size_t shapes[][3] = {
      {1, 1, 1},    {5, 7, 3},   {64, 129, 9},   {1, 300, 1}, {257, 2, 8},
      {4, 8, 8},    {6, 5, 16},  {7, 3, 17},     {3, 200, 23}, {100, 1, 9},
      {13, 129, 9}, {37, 784, 9}, {1000, 32, 9}, {9, 17, 1},  {8, 5, 3}};
  for (const auto& sh : shapes) {
    const std::size_t m = sh[0], k = sh[1], n = sh[2];
    const auto a = random_matrix(m, k, rng);
    const auto b = random_matrix(k, n, rng);
    const auto c0 = random_matrix(m, n, rng);
    for (double alpha : kAlphas) {
      for (double beta : kBetas) {
        DenseMatrix c = c0, c_ref = c0;
        gemm_nn(alpha, a, b, beta, c);
        kernels::reference::gemm_nn(alpha, a, b, beta, c_ref);
        expect_matrices_near(c, c_ref, 1e-12, "gemm_nn");
      }
    }
  }
}

TEST(KernelEngine, GemmTnMatchesReferenceAcrossShapesAndAlphaBeta) {
  Rng rng(12);
  // k × m × n. Feature counts off the lane multiples leave a scalar
  // feature tail after the vectorized features.
  const std::size_t shapes[][3] = {
      {1, 1, 1},   {6, 4, 3},   {200, 33, 9}, {1, 5, 2},   {513, 7, 1},
      {3, 1, 19},  {50, 64, 8}, {200, 785, 9}, {37, 3, 9}, {1, 9, 17}};
  for (const auto& sh : shapes) {
    const std::size_t k = sh[0], m = sh[1], n = sh[2];
    const auto a = random_matrix(k, m, rng);  // used transposed
    const auto b = random_matrix(k, n, rng);
    const auto c0 = random_matrix(m, n, rng);
    for (double alpha : kAlphas) {
      for (double beta : kBetas) {
        DenseMatrix c = c0, c_ref = c0;
        gemm_tn(alpha, a, b, beta, c);
        kernels::reference::gemm_tn(alpha, a, b, beta, c_ref);
        expect_matrices_near(c, c_ref, 1e-12, "gemm_tn");
      }
    }
  }
}

TEST(KernelEngine, DegenerateShapesMatchBetaScaling) {
  Rng rng(14);
  // k = 0: C must become beta·C without reading any A/B data.
  const DenseMatrix a0(0, 4), b0(0, 3);
  const auto c0 = random_matrix(4, 3, rng);
  for (double beta : kBetas) {
    DenseMatrix c = c0;
    gemm_tn(0.5, a0, b0, beta, c);
    for (std::size_t i = 0; i < 4; ++i) {
      for (std::size_t j = 0; j < 3; ++j) {
        EXPECT_DOUBLE_EQ(c.at(i, j), beta * c0.at(i, j));
      }
    }
  }
  // m = 0 / n = 0 outputs: must not touch anything (empty buffers).
  DenseMatrix c_empty(0, 5);
  gemm_nn(1.0, DenseMatrix(0, 7), DenseMatrix(7, 5), 0.0, c_empty);
  DenseMatrix c_nocols(5, 0);
  gemm_nn(1.0, DenseMatrix(5, 7), DenseMatrix(7, 0), 1.0, c_nocols);
  // Empty CSR: C = beta·C.
  const CsrMatrix empty(6, 4, {});
  const auto cs0 = random_matrix(4, 2, rng);
  DenseMatrix cs = cs0;
  spmm_tn(2.0, empty, DenseMatrix(6, 2), -0.5, cs);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_DOUBLE_EQ(cs.at(i, j), -0.5 * cs0.at(i, j));
    }
  }
}

// ---------------------------------------------------------- sparse parity

TEST(KernelEngine, SpmmTnMatchesReferenceIncludingSkewedRows) {
  Rng rng(15);
  std::vector<CsrMatrix> mats;
  mats.push_back(random_csr(50, 20, 0.15, rng));
  mats.push_back(random_csr(100, 40, 0.02, rng));  // many empty rows
  // Wide output (cols ≫ nnz): trailing empty columns only see the beta
  // scaling.
  mats.push_back(random_csr(60, 800, 0.01, rng));
  {
    // Heavily skewed: one dense row dominates the nonzero count.
    std::vector<Triplet> t;
    for (std::size_t j = 0; j < 30; ++j) t.push_back({0, j, rng.normal()});
    for (std::size_t i = 10; i < 40; ++i) t.push_back({i, i % 30, rng.normal()});
    mats.push_back(CsrMatrix(40, 30, std::move(t)));
  }
  for (const auto& a : mats) {
    const auto b = random_matrix(a.rows(), 5, rng);
    const auto c0 = random_matrix(a.cols(), 5, rng);
    for (double alpha : kAlphas) {
      for (double beta : kBetas) {
        DenseMatrix c = c0, c_ref = c0;
        spmm_tn(alpha, a, b, beta, c);
        kernels::reference::spmm_tn(alpha, a, b, beta, c_ref);
        expect_matrices_near(c, c_ref, 1e-12, "spmm_tn");
      }
    }
  }
}

TEST(KernelEngine, DenseAndCsrDispatchAgree) {
  Rng rng(16);
  const auto sp = random_csr(60, 25, 0.2, rng);
  const auto dn = sp.to_dense();
  std::vector<std::int32_t> labels(60);
  for (auto& y : labels) y = static_cast<std::int32_t>(rng.uniform_index(3));
  const auto ds_dense = data::Dataset::dense(dn, labels, 3);
  const auto ds_sparse = data::Dataset::sparse(sp, labels, 3);

  const auto x = random_matrix(25, 2, rng);
  DenseMatrix s_dense(60, 2), s_sparse(60, 2);
  ds_dense.scores(x, s_dense);
  ds_sparse.scores(x, s_sparse);
  expect_matrices_near(s_sparse, s_dense, 1e-11, "scores dispatch");

  const auto w = random_matrix(60, 2, rng);
  DenseMatrix g_dense(25, 2), g_sparse(25, 2);
  ds_dense.accumulate_gradient(1.0, w, 0.0, g_dense);
  ds_sparse.accumulate_gradient(1.0, w, 0.0, g_sparse);
  expect_matrices_near(g_sparse, g_dense, 1e-11, "gradient dispatch");
}

// ---------------------------------------------------------- determinism

/// `run` returns the bits a kernel call writes. At each of 2/3/8 threads
/// they must equal its bits at one thread; 3 runs twice, so a fixed count
/// is also checked run to run.
template <class Run>
void expect_thread_count_invariant(const Run& run, const std::string& what) {
  std::vector<double> want;
  {
    ThreadGuard guard(1);
    want = run();
  }
  for (const int threads : {2, 3, 3, 8}) {
    ThreadGuard guard(threads);
    const std::vector<double> got = run();
    ASSERT_EQ(got.size(), want.size()) << what;
    ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                             got.size() * sizeof(double)))
        << what << " t=" << threads;
  }
}

/// The outputs of one call, end to end.
std::vector<double> bits(std::initializer_list<std::span<const double>> parts) {
  std::vector<double> out;
  for (const auto part : parts) out.insert(out.end(), part.begin(), part.end());
  return out;
}

std::string alpha_beta(double alpha, double beta) {
  return " alpha=" + std::to_string(alpha) + " beta=" + std::to_string(beta);
}

TEST(KernelEngine, ProductsIgnoreThreadCount) {
  // Every output element of every product, and the softmax loss, is
  // summed by one thread in an order fixed by the shape alone, so any
  // team size gives the bits of one thread.
  Rng rng(18);
  // Dense products, above the parallel threshold (2·k·m·n ≥ 2^18):
  // feature counts with line tails, one below team × lanes (m = 3), and
  // a shard view.
  struct DenseCase {
    std::size_t k, m, n;
  };
  for (const DenseCase dc : {DenseCase{5000, 3, 9}, DenseCase{2000, 33, 9},
                             DenseCase{700, 785, 9}, DenseCase{900, 20, 19}}) {
    const auto full = random_matrix(dc.k + 40, dc.m, rng);
    for (const DenseView a : {DenseView(full), full.view(17, dc.k + 17)}) {
      const auto b = random_matrix(a.rows(), dc.n, rng);
      const auto x = random_matrix(dc.m, dc.n, rng);
      const auto g0 = random_matrix(dc.m, dc.n, rng);
      const auto s0 = random_matrix(a.rows(), dc.n, rng);
      for (double alpha : kAlphas) {
        for (double beta : kBetas) {
          expect_thread_count_invariant(
              [&] {
                DenseMatrix g = g0, s = s0;
                gemm_tn(alpha, a, b, beta, g);
                gemm_nn(alpha, a, x, beta, s);
                return bits({g.data(), s.data()});
              },
              "gemm_tn/gemm_nn " + std::to_string(a.rows()) + "x" +
                  std::to_string(dc.m) + " n=" + std::to_string(dc.n) +
                  alpha_beta(alpha, beta));
        }
      }
    }
  }

  // Sparse products: whole matrices and shard views, narrow and wide
  // outputs, class counts on and off the lane multiples.
  std::vector<CsrMatrix> mats;
  mats.push_back(random_csr(50, 20, 0.15, rng));
  mats.push_back(random_csr(500, 300, 0.05, rng));
  mats.push_back(random_csr(60, 800, 0.01, rng));
  mats.push_back(random_csr(300, 2000, 0.01, rng));
  for (const auto& sp : mats) {
    const std::size_t lo = sp.rows() / 4, hi = sp.rows() - 3;
    for (const CsrView a : {CsrView(sp), sp.view(lo, hi)}) {
      for (const std::size_t n : {1, 3, 8, 9, 19, 33}) {
        const auto b = random_matrix(a.rows(), n, rng);
        const auto x = random_matrix(a.cols(), n, rng);
        const auto c0 = random_matrix(a.cols(), n, rng);
        const auto s0 = random_matrix(a.rows(), n, rng);
        for (double alpha : kAlphas) {
          for (double beta : kBetas) {
            expect_thread_count_invariant(
                [&] {
                  DenseMatrix c = c0, s = s0;
                  spmm_tn(alpha, a, b, beta, c);
                  spmm_nn(alpha, a, x, beta, s);
                  return bits({c.data(), s.data()});
                },
                "spmm_tn/spmm_nn " + std::to_string(sp.rows()) + "x" +
                    std::to_string(sp.cols()) + " view " +
                    std::to_string(a.row_begin()) + "+" +
                    std::to_string(a.rows()) + " n=" + std::to_string(n) +
                    alpha_beta(alpha, beta));
          }
        }
      }
    }
  }

  // Softmax forward above the parallel-row threshold (n·c ≥ 2^14): the
  // loss, P and the per-row LSE.
  for (const std::size_t c : {1, 9}) {
    const std::size_t n = 20000 / c;
    const auto scores = random_matrix(n, c, rng);
    std::vector<std::int32_t> labels(n);
    for (auto& y : labels) {
      y = static_cast<std::int32_t>(rng.uniform_index(c + 1));
    }
    expect_thread_count_invariant(
        [&] {
          DenseMatrix p(n, c);
          std::vector<double> lse(n);
          const double loss = kernels::softmax_forward(scores, labels, p, lse);
          return bits({std::span<const double>(&loss, 1), p.data(), lse});
        },
        "softmax_forward c=" + std::to_string(c));
  }
}

// ---------------------------------------------------------- softmax

/// Independent high-precision oracle for one softmax row.
void softmax_row_oracle(std::span<const double> s, std::vector<double>& p,
                        double& lse) {
  long double m = 0.0L;
  for (double v : s) m = std::max(m, static_cast<long double>(v));
  long double alpha = std::exp(-m);
  p.assign(s.size(), 0.0);
  for (std::size_t j = 0; j < s.size(); ++j) {
    const long double e = std::exp(static_cast<long double>(s[j]) - m);
    p[j] = static_cast<double>(e);
    alpha += e;
  }
  for (std::size_t j = 0; j < s.size(); ++j) {
    p[j] = static_cast<double>(p[j] / static_cast<double>(alpha));
  }
  lse = static_cast<double>(m + std::log(alpha));
}

TEST(KernelEngine, SoftmaxForwardMatchesOracle) {
  const std::size_t c = 9;
  // Ascending, descending, all-negative (implicit class wins) and huge
  // magnitudes (stabilization), plus random rows.
  std::vector<std::vector<double>> rows;
  rows.push_back({1, 2, 3, 4, 5, 6, 7, 8, 9});
  rows.push_back({9, 8, 7, 6, 5, 4, 3, 2, 1});
  rows.push_back({-5, -4, -3, -2, -1, -9, -8, -7, -6});
  rows.push_back({400, -400, 0, 1, -1, 200, -200, 0.5, -0.5});
  Rng rng(18);
  for (int i = 0; i < 40; ++i) {
    std::vector<double> r(c);
    for (double& v : r) v = 10.0 * rng.normal();
    rows.push_back(std::move(r));
  }

  const std::size_t n = rows.size();
  DenseMatrix scores(n, c);
  std::vector<std::int32_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::copy(rows[i].begin(), rows[i].end(), scores.row(i).begin());
    // Cycle through all labels including the implicit class c.
    labels[i] = static_cast<std::int32_t>(i % (c + 1));
  }

  DenseMatrix probs(n, c);
  std::vector<double> lse(n);
  const double loss = kernels::softmax_forward(scores, labels, probs, lse);

  double loss_oracle = 0.0;
  std::vector<double> p_oracle;
  for (std::size_t i = 0; i < n; ++i) {
    double lse_o = 0.0;
    softmax_row_oracle(scores.row(i), p_oracle, lse_o);
    EXPECT_NEAR(lse[i], lse_o, 1e-11 * (std::abs(lse_o) + 1.0)) << "row " << i;
    for (std::size_t j = 0; j < c; ++j) {
      EXPECT_NEAR(probs.at(i, j), p_oracle[j], 1e-12) << i << "," << j;
    }
    const auto y = static_cast<std::size_t>(labels[i]);
    loss_oracle += lse_o - (y < c ? scores.at(i, y) : 0.0);
  }
  EXPECT_NEAR(loss, loss_oracle, 1e-9 * (std::abs(loss_oracle) + 1.0));
}

// ---------------------------------------------------------- bytes/roofline

TEST(KernelEngine, KernelsCreditBytesMoved) {
  flops::reset();
  DenseMatrix a(4, 5), b(5, 6), c(4, 6);
  gemm_nn(1.0, a, b, 0.0, c);
  // Compulsory traffic: A + B read once, C written once (beta = 0).
  EXPECT_EQ(flops::read_bytes(), 8u * (4 * 5 + 5 * 6 + 4 * 6));
  flops::reset();
  gemm_nn(1.0, a, b, 1.0, c);  // beta != 0: C is read and written
  EXPECT_EQ(flops::read_bytes(), 8u * (4 * 5 + 5 * 6 + 2 * 4 * 6));
  flops::reset();
  const CsrMatrix sp(2, 3, {{0, 1, 1.0}, {1, 2, 2.0}});
  DenseMatrix bs(2, 4), cs(3, 4);
  spmm_tn(1.0, sp, bs, 0.0, cs);
  EXPECT_EQ(flops::read_bytes(), 16u * 2 + 8u * 3 + 8u * (2 * 4 + 3 * 4));
  EXPECT_GT(flops::read(), 0u);
}

TEST(KernelEngine, FlopsScopeTracksBytes) {
  flops::reset();
  flops::Scope scope;
  flops::add_bytes(123);
  flops::add(7);
  EXPECT_EQ(scope.elapsed_bytes(), 123u);
  EXPECT_EQ(scope.elapsed(), 7u);
  flops::reset();
  EXPECT_EQ(flops::read_bytes(), 0u);
}

// --------------------------------------------------- row-range shard views
//
// The shard-native data plane runs every rank on a zero-copy row-range
// view of the parent matrix. These tests pin the contract the solvers
// rely on: a view's products are BIT-identical to running on a copied
// shard, at every thread count the engine supports.

TEST(ShardViews, DenseViewProductsMatchCopiedShardBitwise) {
  Rng rng(41);
  const std::size_t k = 300, m = 17, n = 5;  // samples × features × classes
  const auto full = random_matrix(k, m, rng);
  const auto b = random_matrix(k, n, rng);
  const auto bx = random_matrix(m, n, rng);
  // An interior shard with awkward boundaries.
  const std::size_t lo = 37, hi = 221;
  DenseMatrix copy(hi - lo, m);
  for (std::size_t r = lo; r < hi; ++r) {
    const auto row = full.row(r);
    std::copy(row.begin(), row.end(), copy.row(r - lo).begin());
  }
  DenseMatrix b_sub(hi - lo, n);
  for (std::size_t r = lo; r < hi; ++r) {
    const auto row = b.row(r);
    std::copy(row.begin(), row.end(), b_sub.row(r - lo).begin());
  }

  for (const int threads : {1, 2, 3, 4, 8}) {
    ThreadGuard guard(threads);
    // gemm_tn: view of A against the same panel as the copy.
    DenseMatrix g_view(m, n), g_copy(m, n);
    kernels::gemm_tn(1.0, full.view(lo, hi), b_sub, 0.0, g_view);
    kernels::gemm_tn(1.0, copy, b_sub, 0.0, g_copy);
    for (std::size_t e = 0; e < g_view.size(); ++e) {
      ASSERT_EQ(g_view.data()[e], g_copy.data()[e]) << "gemm_tn t=" << threads;
    }
    // gemm_nn (scores shape).
    DenseMatrix s_view(hi - lo, n), s_copy(hi - lo, n);
    kernels::gemm_nn(1.0, full.view(lo, hi), bx, 0.0, s_view);
    kernels::gemm_nn(1.0, copy, bx, 0.0, s_copy);
    for (std::size_t e = 0; e < s_view.size(); ++e) {
      ASSERT_EQ(s_view.data()[e], s_copy.data()[e]) << "gemm_nn t=" << threads;
    }
  }
}

TEST(ShardViews, CsrViewProductsMatchCopiedShardBitwise) {
  Rng rng(43);
  // Narrow and wide outputs.
  const struct {
    std::size_t rows, cols, n;
    double density;
  } cases[] = {{240, 12, 4, 0.3}, {120, 600, 9, 0.02}};
  for (const auto& tc : cases) {
    const auto full = random_csr(tc.rows, tc.cols, tc.density, rng);
    const auto b = random_matrix(tc.rows, tc.n, rng);
    const std::size_t lo = tc.rows / 5, hi = (4 * tc.rows) / 5 + 1;
    const auto copy = full.row_slice(lo, hi);
    DenseMatrix b_sub(hi - lo, tc.n);
    for (std::size_t r = lo; r < hi; ++r) {
      const auto row = b.row(r);
      std::copy(row.begin(), row.end(), b_sub.row(r - lo).begin());
    }
    const auto xb = random_matrix(tc.cols, tc.n, rng);
    for (const int threads : {1, 2, 4, 8}) {
      ThreadGuard guard(threads);
      DenseMatrix g_view(tc.cols, tc.n), g_copy(tc.cols, tc.n);
      kernels::spmm_tn(1.0, full.view(lo, hi), b_sub, 0.0, g_view);
      kernels::spmm_tn(1.0, copy, b_sub, 0.0, g_copy);
      for (std::size_t e = 0; e < g_view.size(); ++e) {
        ASSERT_EQ(g_view.data()[e], g_copy.data()[e])
            << "spmm_tn rows=" << tc.rows << " t=" << threads;
      }
      DenseMatrix s_view(hi - lo, tc.n), s_copy(hi - lo, tc.n);
      spmm_nn(1.0, full.view(lo, hi), xb, 0.0, s_view);
      spmm_nn(1.0, copy, xb, 0.0, s_copy);
      for (std::size_t e = 0; e < s_view.size(); ++e) {
        ASSERT_EQ(s_view.data()[e], s_copy.data()[e])
            << "spmm_nn rows=" << tc.rows << " t=" << threads;
      }
    }
  }
}

TEST(ShardViews, CsrWideGatherIsThreadCountInvariantOnViews) {
  Rng rng(47);
  // A shard view's gather must give the same bits at EVERY thread count
  // (the full-matrix guarantee extends to views via the per-column
  // subrange restriction).
  const auto full = random_csr(90, 800, 0.015, rng);
  const auto b = random_matrix(40, 7, rng);
  DenseMatrix base(800, 7);
  {
    ThreadGuard guard(1);
    kernels::spmm_tn(1.0, full.view(25, 65), b, 0.0, base);
  }
  for (const int threads : {2, 3, 8}) {
    ThreadGuard guard(threads);
    DenseMatrix c(800, 7);
    kernels::spmm_tn(1.0, full.view(25, 65), b, 0.0, c);
    for (std::size_t e = 0; e < c.size(); ++e) {
      ASSERT_EQ(c.data()[e], base.data()[e]) << "t=" << threads;
    }
  }
}

TEST(ShardViews, DefaultConstructedMatricesStayWellDefinedNoOps) {
  // A default CsrMatrix carries the canonical one-element row_ptr {0},
  // so its implicit CsrView (and every product on it) is a well-defined
  // no-op — pinned here because the view conversion now sits on every
  // kernel call path.
  const CsrMatrix empty;
  const CsrView view(empty);
  EXPECT_EQ(view.rows(), 0u);
  EXPECT_EQ(view.nnz(), 0u);
  EXPECT_TRUE(view.covers_parent());
  DenseMatrix b(0, 3), c(0, 3);
  EXPECT_NO_THROW(spmm_nn(1.0, empty, b, 0.0, c));
  DenseMatrix ct(0, 3);
  EXPECT_NO_THROW(kernels::spmm_tn(1.0, empty, b, 0.0, ct));
  const CsrView unbound;  // no parent at all
  EXPECT_EQ(unbound.rows(), 0u);
  EXPECT_EQ(unbound.nnz(), 0u);
  EXPECT_FALSE(unbound.covers_parent());
}

TEST(ShardViews, EmptyAndFullRangeViewsBehave) {
  Rng rng(53);
  const auto full = random_csr(30, 20, 0.2, rng);
  EXPECT_EQ(full.view(0, 30).nnz(), full.nnz());
  EXPECT_TRUE(full.view(0, 30).covers_parent());
  EXPECT_EQ(full.view(10, 10).nnz(), 0u);
  EXPECT_EQ(full.view(10, 10).rows(), 0u);
  const auto dense = random_matrix(8, 3, rng);
  EXPECT_EQ(dense.view(8, 8).rows(), 0u);
  EXPECT_EQ(dense.view(0, 8).data().size(), dense.size());
  EXPECT_THROW(static_cast<void>(dense.view(3, 2)), InvalidArgument);
  EXPECT_THROW(static_cast<void>(full.view(0, 31)), InvalidArgument);
}

// ------------------------------------------------------ ISA dispatch parity
//
// The engine's SIMD contract (la/simd.hpp): lanes only span independent
// output elements and every term of a product chain is one fused
// multiply-add, rounded once, so every rung this CPU can run — avx512,
// avx2 — must be BIT-identical to the scalar rung at every thread
// count. Every build compiles all rungs of its target, so one run covers
// each rung the host supports.

/// The host's rungs above the scalar oracle.
std::vector<const kernels::Rung*> vector_rungs() {
  const auto all = kernels::host_rungs();
  return {all.begin() + 1, all.end()};
}

const kernels::Rung& oracle() { return kernels::scalar::rung(); }

TEST(IsaDispatch, ActiveIsaNameIsOnTheLadder) {
  // The ladder is exactly scalar, then each wider rung whose -m flags
  // (CMakeLists.txt) the CPU reports, asked here directly.
  std::vector<std::string> expected{"scalar"};
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    expected.push_back("avx2");
  }
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("avx512bw")) {
    expected.push_back("avx512");
  }
#endif
  const auto rungs = kernels::host_rungs();
  std::vector<std::string> names;
  for (const kernels::Rung* rung : rungs) names.emplace_back(rung->name);
  ASSERT_EQ(names, expected);
  EXPECT_EQ(rungs.front(), &kernels::scalar::rung());
  EXPECT_EQ(rungs.back(), &kernels::active_rung());
  EXPECT_EQ(std::string(kernels::active_isa()), expected.back());
  for (std::size_t r = 1; r < rungs.size(); ++r) {
    EXPECT_LT(rungs[r - 1]->lanes, rungs[r]->lanes) << rungs[r]->name;
  }
}

TEST(IsaDispatch, GemmNnEveryRungMatchesScalarBitwise) {
  // m × k × n. Class counts off the lane multiples run their leftover
  // columns across rows (transposed A tiles); m not a multiple of 4/8
  // leaves rows for the scalar loop, k not a multiple of 8 a k tail.
  const std::size_t shapes[][3] = {
      {1, 1, 1},    {5, 7, 3},   {64, 129, 9},   {1, 300, 1}, {257, 2, 8},
      {4, 8, 8},    {6, 5, 16},  {7, 3, 17},     {3, 200, 23}, {100, 1, 9},
      {13, 129, 9}, {37, 784, 9}, {1000, 32, 9}, {9, 17, 1},  {8, 5, 3}};
  for (const kernels::Rung* rung : vector_rungs()) {
    Rng rng(61);
    for (const int threads : {1, 2, 3, 8}) {
      ThreadGuard guard(threads);
      for (const auto& sh : shapes) {
        const std::size_t m = sh[0], k = sh[1], n = sh[2];
        const auto a = random_matrix(m, k, rng);
        const auto b = random_matrix(k, n, rng);
        const auto c0 = random_matrix(m, n, rng);
        for (double alpha : kAlphas) {
          for (double beta : kBetas) {
            DenseMatrix c = c0, c_sc = c0;
            kernels::gemm_nn(alpha, a, b, beta, c, *rung);
            kernels::gemm_nn(alpha, a, b, beta, c_sc, oracle());
            for (std::size_t e = 0; e < c.size(); ++e) {
              ASSERT_EQ(c.data()[e], c_sc.data()[e])
                  << rung->name << " m=" << m << " k=" << k << " n=" << n
                  << " t=" << threads;
            }
          }
        }
      }
    }
  }
}

TEST(IsaDispatch, GemmTnEveryRungMatchesScalarBitwise) {
  // k × m × n. Feature counts off the lane multiples leave a scalar
  // feature tail after the vectorized features.
  const std::size_t shapes[][3] = {
      {1, 1, 1},   {6, 4, 3},   {200, 33, 9}, {1, 5, 2},   {513, 7, 1},
      {3, 1, 19},  {50, 64, 8}, {200, 785, 9}, {37, 3, 9}, {1, 9, 17}};
  for (const kernels::Rung* rung : vector_rungs()) {
    Rng rng(62);
    for (const int threads : {1, 2, 3, 8}) {
      ThreadGuard guard(threads);
      for (const auto& sh : shapes) {
        const std::size_t k = sh[0], m = sh[1], n = sh[2];
        const auto a = random_matrix(k, m, rng);
        const auto b = random_matrix(k, n, rng);
        const auto c0 = random_matrix(m, n, rng);
        for (double alpha : kAlphas) {
          for (double beta : kBetas) {
            DenseMatrix c = c0, c_sc = c0;
            kernels::gemm_tn(alpha, a, b, beta, c, *rung);
            kernels::gemm_tn(alpha, a, b, beta, c_sc, oracle());
            for (std::size_t e = 0; e < c.size(); ++e) {
              ASSERT_EQ(c.data()[e], c_sc.data()[e])
                  << rung->name << " gemm_tn t=" << threads;
            }
          }
        }
      }
    }
  }
}

/// Same bits, element for element: NaN payloads and the sign of zero
/// included.
void expect_same_bits(const DenseMatrix& got, const DenseMatrix& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t e = 0; e < got.size(); ++e) {
    ASSERT_EQ(std::memcmp(&got.data()[e], &want.data()[e], sizeof(double)), 0)
        << what << " element " << e << ": " << got.data()[e] << " vs "
        << want.data()[e];
  }
}

TEST(IsaDispatch, DenseProductsKeepZeroSignsInfAndNanBitwise) {
  // An all −0.0 row (gemm_nn) / column (gemm_tn) of A makes every product
  // of its chains a signed zero (−0.0 against a positive B), so its
  // outputs are +0.0 only because each chain starts from +0.0;
  // an Inf and a NaN land in a transposed tile, the k tail and the
  // scalar leftover rows. Lanes mixed up by a transpose or a class-major
  // partial would move them to other outputs.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const kernels::Rung* rung : vector_rungs()) {
    Rng rng(65);
    for (const int threads : {1, 2, 3, 8}) {
      ThreadGuard guard(threads);
      auto a = random_matrix(13, 19, rng);
      for (std::size_t j = 0; j < a.cols(); ++j) a.at(3, j) = -0.0;
      a.at(5, 4) = inf;
      a.at(6, 17) = nan;
      a.at(10, 2) = -inf;
      const auto b = random_matrix(19, 9, rng);
      const auto c0 = random_matrix(13, 9, rng);
      auto at = random_matrix(37, 11, rng);
      for (std::size_t i = 0; i < at.rows(); ++i) at.at(i, 9) = -0.0;
      at.at(4, 2) = inf;
      at.at(33, 10) = nan;
      const auto bt = random_matrix(37, 9, rng);
      const auto ct0 = random_matrix(11, 9, rng);
      for (double alpha : kAlphas) {
        for (double beta : kBetas) {
          const std::string what = std::string(rung->name) + " t=" +
                                   std::to_string(threads) + " alpha=" +
                                   std::to_string(alpha) + " beta=" +
                                   std::to_string(beta);
          DenseMatrix c = c0, c_sc = c0;
          kernels::gemm_nn(alpha, a, b, beta, c, *rung);
          kernels::gemm_nn(alpha, a, b, beta, c_sc, oracle());
          expect_same_bits(c, c_sc, "gemm_nn " + what);
          DenseMatrix ct = ct0, ct_sc = ct0;
          kernels::gemm_tn(alpha, at, bt, beta, ct, *rung);
          kernels::gemm_tn(alpha, at, bt, beta, ct_sc, oracle());
          expect_same_bits(ct, ct_sc, "gemm_tn " + what);
        }
      }
      // The chains of the −0.0 row / column start from +0.0.
      DenseMatrix c(13, 9), ct(11, 9);
      kernels::gemm_nn(1.0, a, b, 0.0, c, *rung);
      kernels::gemm_tn(1.0, at, bt, 0.0, ct, *rung);
      for (std::size_t j = 0; j < 9; ++j) {
        EXPECT_FALSE(std::signbit(c.at(3, j))) << rung->name;
        EXPECT_FALSE(std::signbit(ct.at(9, j))) << rung->name;
        EXPECT_TRUE(std::isnan(c.at(6, j))) << rung->name;
        EXPECT_TRUE(std::isnan(ct.at(10, j))) << rung->name;
      }
    }
  }
}

TEST(IsaDispatch, SparseProductsEveryRungMatchScalarBitwise) {
  Rng rng(63);
  // spmm_tn (CSC gather) and spmm_nn on narrow and wide outputs, the
  // latter on the whole matrix and on a shard view. The class counts put
  // every lane count of every rung into a row's last, partial vector, and
  // 17/19/33 span several vectors (and, on the narrow rungs, chunks).
  std::vector<CsrMatrix> mats;
  mats.push_back(random_csr(50, 20, 0.15, rng));
  mats.push_back(random_csr(500, 300, 0.05, rng));
  mats.push_back(random_csr(60, 800, 0.01, rng));
  mats.push_back(random_csr(300, 2000, 0.01, rng));  // wide, many columns
  for (const kernels::Rung* rung : vector_rungs()) {
    for (const int threads : {1, 2, 3, 8}) {
      ThreadGuard guard(threads);
      for (const auto& sp : mats) {
        for (const std::size_t n : {1, 2, 3, 5, 8, 9, 17, 19, 33}) {
          const auto b = random_matrix(sp.rows(), n, rng);
          const auto c0 = random_matrix(sp.cols(), n, rng);
          const auto x = random_matrix(sp.cols(), n, rng);
          const auto s0 = random_matrix(sp.rows(), n, rng);
          const std::size_t lo = sp.rows() / 4, hi = sp.rows() - 3;
          for (double alpha : kAlphas) {
            for (double beta : kBetas) {
              DenseMatrix c = c0, c_sc = c0;
              kernels::spmm_tn(alpha, sp, b, beta, c, *rung);
              kernels::spmm_tn(alpha, sp, b, beta, c_sc, oracle());
              for (std::size_t e = 0; e < c.size(); ++e) {
                ASSERT_EQ(c.data()[e], c_sc.data()[e])
                    << rung->name << " spmm_tn " << sp.rows() << "x"
                    << sp.cols() << " n=" << n << " t=" << threads;
              }
              DenseMatrix s = s0, s_sc = s0;
              kernels::spmm_nn(alpha, sp, x, beta, s, *rung);
              kernels::spmm_nn(alpha, sp, x, beta, s_sc, oracle());
              for (std::size_t e = 0; e < s.size(); ++e) {
                ASSERT_EQ(s.data()[e], s_sc.data()[e])
                    << rung->name << " spmm_nn " << sp.rows() << "x"
                    << sp.cols() << " n=" << n << " t=" << threads;
              }
              DenseMatrix v(hi - lo, n), v_sc(hi - lo, n);
              kernels::spmm_nn(alpha, sp.view(lo, hi), x, 0.0, v, *rung);
              kernels::spmm_nn(alpha, sp.view(lo, hi), x, 0.0, v_sc, oracle());
              for (std::size_t e = 0; e < v.size(); ++e) {
                ASSERT_EQ(v.data()[e], v_sc.data()[e])
                    << rung->name << " spmm_nn view t=" << threads;
              }
            }
          }
        }
      }
    }
  }
}

TEST(IsaDispatch, SparseProductsKeepZeroSignsInfAndNanBitwise) {
  // The sparse sibling of the dense case above: −0.0, ±Inf and NaN in the
  // CSR values and in B. Row 3 (spmm_nn) and column 9 (spmm_tn) of A hold
  // only −0.0, so their finite outputs are +0.0 only because each chain
  // starts from +0.0. The Inf at (7, 8) turns the zero-loaded lanes past
  // a partial vector's end into NaN (Inf·0) in S's row 7 and C's row 8;
  // the rows after them (S's empty rows 8 and 9, C's empty row 10) must
  // keep their bits, and the Inf in A's last row must write nothing past
  // S's end.
  //
  // Here several NaNs meet in one chain. Which operand's payload an add
  // or mul of two NaNs keeps is the compiler's choice (it may commute
  // them), so the NaN planted is the one the hardware's own Inf·0 makes:
  // every NaN in these chains then has the same bits.
  const double inf = std::numeric_limits<double>::infinity();
  volatile double zero = 0.0;
  const double nan = inf * zero;
  Rng rng(66);
  std::vector<Triplet> t;
  for (std::size_t i = 0; i < 23; ++i) {
    if (i == 8 || i == 9) continue;
    for (std::size_t j = 0; j < 8; ++j) {
      if (i != 3 && rng.bernoulli(0.4)) t.push_back({i, j, rng.normal()});
    }
    t.push_back({i, 9, -0.0});
  }
  for (std::size_t j = 0; j < 9; ++j) t.push_back({3, j, -0.0});
  t.push_back({7, 8, inf});
  t.push_back({12, 2, nan});
  t.push_back({17, 6, -inf});
  t.push_back({22, 1, inf});
  const CsrMatrix a(23, 11, std::move(t));
  for (const kernels::Rung* rung : vector_rungs()) {
    for (const int threads : {1, 2, 3, 8}) {
      ThreadGuard guard(threads);
      for (const std::size_t n : {1, 3, 5, 9, 19}) {
        auto x = random_matrix(11, n, rng);  // spmm_nn's B
        auto w = random_matrix(23, n, rng);  // spmm_tn's B
        x.at(0, n - 1) = inf;
        x.at(5, 0) = -0.0;
        w.at(20, n / 2) = nan;
        w.at(21, 0) = -inf;
        w.at(22, n - 1) = -0.0;
        const auto s0 = random_matrix(23, n, rng);
        const auto c0 = random_matrix(11, n, rng);
        for (double alpha : kAlphas) {
          for (double beta : kBetas) {
            const std::string what =
                std::string(rung->name) + " n=" + std::to_string(n) +
                " t=" + std::to_string(threads) + " alpha=" +
                std::to_string(alpha) + " beta=" + std::to_string(beta);
            DenseMatrix s = s0, s_sc = s0;
            kernels::spmm_nn(alpha, a, x, beta, s, *rung);
            kernels::spmm_nn(alpha, a, x, beta, s_sc, oracle());
            expect_same_bits(s, s_sc, "spmm_nn " + what);
            DenseMatrix c = c0, c_sc = c0;
            kernels::spmm_tn(alpha, a, w, beta, c, *rung);
            kernels::spmm_tn(alpha, a, w, beta, c_sc, oracle());
            expect_same_bits(c, c_sc, "spmm_tn " + what);
          }
        }
        const auto same_row = [n](const DenseMatrix& got,
                                  const DenseMatrix& want, std::size_t r) {
          return std::memcmp(got.row(r).data(), want.row(r).data(),
                             n * sizeof(double)) == 0;
        };
        DenseMatrix s = s0, c = c0;
        kernels::spmm_nn(1.0, a, x, 1.0, s, *rung);
        kernels::spmm_tn(1.0, a, w, 1.0, c, *rung);
        EXPECT_TRUE(same_row(s, s0, 8) && same_row(s, s0, 9))
            << rung->name << " spmm_nn n=" << n;
        EXPECT_TRUE(same_row(c, c0, 10)) << rung->name << " spmm_tn n=" << n;
        // Row 3 meets x's Inf in class n − 1 (−0.0·Inf is NaN); column 9
        // meets w's NaN and −Inf in classes n / 2 and 0.
        s = DenseMatrix(23, n);
        c = DenseMatrix(11, n);
        kernels::spmm_nn(1.0, a, x, 0.0, s, *rung);
        kernels::spmm_tn(1.0, a, w, 0.0, c, *rung);
        for (std::size_t j = 0; j < n; ++j) {
          const double sv = s.at(3, j), cv = c.at(9, j);
          if (j == n - 1) {
            EXPECT_TRUE(std::isnan(sv)) << rung->name << " n=" << n;
          } else {
            EXPECT_TRUE(sv == 0.0 && !std::signbit(sv))
                << rung->name << " spmm_nn n=" << n << " j=" << j << ": " << sv;
          }
          if (j == 0 || j == n / 2) {
            EXPECT_TRUE(std::isnan(cv)) << rung->name << " n=" << n;
          } else {
            EXPECT_TRUE(cv == 0.0 && !std::signbit(cv))
                << rung->name << " spmm_tn n=" << n << " j=" << j << ": " << cv;
          }
        }
      }
    }
  }
}

TEST(IsaDispatch, ProductsFuseEachMultiplyAdd) {
  // Two-term chains whose fused and unfused sums differ: with e = 2⁻³⁰,
  // −1·1 + (1+e)·(1−e) is exactly −e² = −2⁻⁶⁰ when the second term fuses
  // into the running sum, and 0 when (1+e)·(1−e) = 1 − 2⁻⁶⁰ is rounded
  // to 1 first. Zero terms around the pair leave the chain alone, so each
  // dense placement (k, p) puts the pair at k positions p, p + 1 of a
  // different loop: gemm_nn's transposed tiles or its k tail, gemm_tn's
  // 8-, 4- or 2-sample blocks. 4001 rows leave a scalar leftover row on
  // every vector rung, 19 classes a strip and leftover columns, and every
  // product is above the parallel threshold, so 3 threads split it.
  const double e = std::ldexp(1.0, -30);
  const double want = -std::ldexp(1.0, -60);
  const std::size_t rows = 4001, n = 19;
  const auto expect_all = [&](const DenseMatrix& c, const std::string& what) {
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_EQ(c.data()[i], want) << what << " element " << i;
    }
  };
  // The pair's B rows at p, p + 1 of a k×n operand.
  const auto pair_b = [&](std::size_t k, std::size_t p) {
    DenseMatrix b(k, n);
    for (std::size_t j = 0; j < n; ++j) {
      b.at(p, j) = 1.0;
      b.at(p + 1, j) = 1.0 - e;
    }
    return b;
  };
  std::vector<Triplet> nn, tn;
  for (std::size_t i = 0; i < rows; ++i) {
    nn.push_back({i, 0, -1.0});
    nn.push_back({i, 1, 1.0 + e});
    tn.push_back({0, i, -1.0});
    tn.push_back({1, i, 1.0 + e});
  }
  const CsrMatrix sp_nn(rows, 2, std::move(nn));
  const CsrMatrix sp_tn(2, rows, std::move(tn));
  const DenseMatrix b2 = pair_b(2, 0);
  const std::size_t placements[][2] = {{2, 0}, {12, 8}, {19, 8}, {19, 16}};
  for (const kernels::Rung* rung : kernels::host_rungs()) {
    for (const int threads : {1, 3}) {
      ThreadGuard guard(threads);
      const std::string on =
          std::string(" on ") + rung->name + " t=" + std::to_string(threads);
      for (const auto& pl : placements) {
        const std::size_t k = pl[0], p = pl[1];
        DenseMatrix a(rows, k), at(k, rows);
        for (std::size_t i = 0; i < rows; ++i) {
          a.at(i, p) = at.at(p, i) = -1.0;
          a.at(i, p + 1) = at.at(p + 1, i) = 1.0 + e;
        }
        const DenseMatrix b = pair_b(k, p);
        const std::string where =
            " k=" + std::to_string(k) + " p=" + std::to_string(p) + on;
        DenseMatrix c(rows, n), ct(rows, n);
        kernels::gemm_nn(1.0, a, b, 0.0, c, *rung);
        expect_all(c, "gemm_nn" + where);
        kernels::gemm_tn(1.0, at, b, 0.0, ct, *rung);
        expect_all(ct, "gemm_tn" + where);
      }
      DenseMatrix s(rows, n), g(rows, n);
      kernels::spmm_nn(1.0, sp_nn, b2, 0.0, s, *rung);
      expect_all(s, "spmm_nn" + on);
      kernels::spmm_tn(1.0, sp_tn, b2, 0.0, g, *rung);
      expect_all(g, "spmm_tn" + on);
    }
  }
}

}  // namespace
}  // namespace nadmm::la
