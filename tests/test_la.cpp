// Unit + property tests for src/la: vector kernels, dense GEMM variants,
// CSR sparse kernels, flop accounting, device model.
#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <cmath>

#include "la/dense_matrix.hpp"
#include "la/device.hpp"
#include "la/flops.hpp"
#include "la/sparse_matrix.hpp"
#include "la/vector_ops.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace nadmm::la {
namespace {

std::vector<double> random_vec(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& e : v) e = rng.normal();
  return v;
}

DenseMatrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  DenseMatrix m(r, c);
  for (double& e : m.data()) e = rng.normal();
  return m;
}

/// Naive O(mnk) reference GEMM.
DenseMatrix ref_gemm(const DenseMatrix& a, const DenseMatrix& b,
                     bool transpose_a) {
  const std::size_t m = transpose_a ? a.cols() : a.rows();
  const std::size_t k = transpose_a ? a.rows() : a.cols();
  DenseMatrix c(m, b.cols());
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t t = 0; t < k; ++t) {
        acc += (transpose_a ? a.at(t, i) : a.at(i, t)) * b.at(t, j);
      }
      c.at(i, j) = acc;
    }
  }
  return c;
}

// ------------------------------------------------------------ vector ops

TEST(VectorOps, AxpyMatchesManual) {
  std::vector<double> x{1, 2, 3}, y{4, 5, 6};
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 9.0);
  EXPECT_DOUBLE_EQ(y[2], 12.0);
}

TEST(VectorOps, AxpbyMatchesManual) {
  std::vector<double> x{1, 2}, y{10, 20};
  axpby(3.0, x, 0.5, y);
  EXPECT_DOUBLE_EQ(y[0], 8.0);
  EXPECT_DOUBLE_EQ(y[1], 16.0);
}

TEST(VectorOps, DotAndNorms) {
  std::vector<double> x{3, 4};
  EXPECT_DOUBLE_EQ(dot(x, x), 25.0);
  EXPECT_DOUBLE_EQ(nrm2(x), 5.0);
  EXPECT_DOUBLE_EQ(nrm2_sq(x), 25.0);
}

TEST(VectorOps, ScalCopyFill) {
  std::vector<double> x{1, 2, 3}, y(3);
  scal(-2.0, x);
  EXPECT_DOUBLE_EQ(x[1], -4.0);
  copy(x, y);
  EXPECT_EQ(x, y);
  fill(y, 7.0);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[2], 7.0);
}

TEST(VectorOps, Dist2) {
  std::vector<double> x{1, 1}, y{4, 5};
  EXPECT_DOUBLE_EQ(dist2(x, y), 5.0);
}

TEST(VectorOps, SizeMismatchThrows) {
  std::vector<double> x{1, 2}, y{1};
  EXPECT_THROW(axpy(1.0, x, y), InvalidArgument);
  EXPECT_THROW(static_cast<void>(dot(x, y)), InvalidArgument);
  EXPECT_THROW(static_cast<void>(dist2(x, y)), InvalidArgument);
}

/// Pin the OpenMP thread count for a scope (no-op without OpenMP).
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

TEST(VectorOps, LargeReductionsIgnoreThreadCount) {
  // Every reduction is one serial chain, so a long vector gives the bits
  // of the plain loop at any OpenMP thread count.
  const std::size_t n = (1 << 16) + 3;
  Rng rng(1);
  auto x = random_vec(n, rng);
  auto y = random_vec(n, rng);
  double expect_dot = 0.0, expect_d2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    expect_dot += x[i] * y[i];
    const double d = x[i] - y[i];
    expect_d2 += d * d;
  }
  for (const int threads : {1, 4}) {
    ThreadGuard guard(threads);
    EXPECT_EQ(dot(x, y), expect_dot) << "t=" << threads;
    EXPECT_EQ(dist2(x, y), std::sqrt(expect_d2)) << "t=" << threads;
  }

  auto y2 = y;
  for (std::size_t i = 0; i < n; ++i) y2[i] += 1.5 * x[i];
  axpy(1.5, x, y);
  for (std::size_t i = 0; i < n; i += 999) EXPECT_DOUBLE_EQ(y[i], y2[i]);
}

// ------------------------------------------------------------ dense

TEST(DenseMatrix, ConstructionAndAccess) {
  DenseMatrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m.at(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m.at(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m.row(1)[2], 5.0);
  m.fill(2.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 2.0);
}

TEST(DenseMatrix, AdoptBufferValidatesSize) {
  EXPECT_NO_THROW(DenseMatrix(2, 2, {1, 2, 3, 4}));
  EXPECT_THROW(DenseMatrix(2, 2, {1, 2, 3}), InvalidArgument);
}

TEST(Gemm, NnMatchesReference) {
  Rng rng(2);
  for (auto [m, k, n] : {std::array<std::size_t, 3>{5, 7, 3},
                         {64, 129, 9}, {1, 300, 1}, {257, 2, 8}}) {
    const auto a = random_matrix(m, k, rng);
    const auto b = random_matrix(k, n, rng);
    DenseMatrix c(m, n);
    gemm_nn(1.0, a, b, 0.0, c);
    const auto ref = ref_gemm(a, b, false);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_NEAR(c.at(i, j), ref.at(i, j), 1e-9) << m << "x" << k << "x" << n;
      }
    }
  }
}

TEST(Gemm, TnMatchesReference) {
  Rng rng(3);
  for (auto [k, m, n] : {std::array<std::size_t, 3>{6, 4, 3},
                         {200, 33, 9}, {1, 5, 2}}) {
    const auto a = random_matrix(k, m, rng);  // k×m, used transposed
    const auto b = random_matrix(k, n, rng);
    DenseMatrix c(m, n);
    gemm_tn(1.0, a, b, 0.0, c);
    const auto ref = ref_gemm(a, b, true);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_NEAR(c.at(i, j), ref.at(i, j), 1e-9);
      }
    }
  }
}

TEST(Gemm, AlphaBetaScaling) {
  Rng rng(4);
  const auto a = random_matrix(8, 6, rng);
  const auto b = random_matrix(6, 4, rng);
  DenseMatrix c(8, 4);
  c.fill(1.0);
  gemm_nn(2.0, a, b, 0.5, c);
  const auto ref = ref_gemm(a, b, false);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(c.at(i, j), 2.0 * ref.at(i, j) + 0.5, 1e-9);
    }
  }
}

TEST(Gemm, ShapeMismatchThrows) {
  DenseMatrix a(2, 3), b(4, 2), c(2, 2);
  EXPECT_THROW(gemm_nn(1.0, a, b, 0.0, c), InvalidArgument);
  EXPECT_THROW(gemm_tn(1.0, a, b, 0.0, c), InvalidArgument);
}

// ------------------------------------------------------------ sparse

TEST(Csr, TripletConstructionSortsAndMergesDuplicates) {
  CsrMatrix m(3, 4, {{2, 1, 5.0}, {0, 3, 1.0}, {0, 3, 2.0}, {1, 0, -1.0}});
  EXPECT_EQ(m.nnz(), 3u);
  const auto d = m.to_dense();
  EXPECT_DOUBLE_EQ(d.at(0, 3), 3.0);  // merged duplicate
  EXPECT_DOUBLE_EQ(d.at(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(d.at(2, 1), 5.0);
  EXPECT_DOUBLE_EQ(d.at(0, 0), 0.0);
}

TEST(Csr, OutOfRangeTripletThrows) {
  EXPECT_THROW(CsrMatrix(2, 2, {{2, 0, 1.0}}), InvalidArgument);
  EXPECT_THROW(CsrMatrix(2, 2, {{0, 2, 1.0}}), InvalidArgument);
}

TEST(Csr, RawConstructionValidation) {
  EXPECT_NO_THROW(CsrMatrix(2, 3, {0, 1, 2}, {1, 2}, {5.0, 6.0}));
  // row_ptr wrong length
  EXPECT_THROW(CsrMatrix(2, 3, {0, 1}, {1}, {5.0}), InvalidArgument);
  // non-monotone row_ptr
  EXPECT_THROW(CsrMatrix(2, 3, {0, 2, 1}, {0, 1}, {1.0, 2.0}),
               InvalidArgument);
  // column out of range
  EXPECT_THROW(CsrMatrix(2, 3, {0, 1, 2}, {1, 3}, {5.0, 6.0}),
               InvalidArgument);
}

TEST(Csr, RowSlicePreservesContent) {
  CsrMatrix m(4, 3, {{0, 0, 1.0}, {1, 1, 2.0}, {2, 2, 3.0}, {3, 0, 4.0}});
  const auto s = m.row_slice(1, 3);
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_EQ(s.cols(), 3u);
  const auto d = s.to_dense();
  EXPECT_DOUBLE_EQ(d.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(d.at(1, 2), 3.0);
  EXPECT_THROW(m.row_slice(3, 2), InvalidArgument);
}

/// Random sparse matrix with ~density fraction of nonzeros.
CsrMatrix random_csr(std::size_t r, std::size_t c, double density, Rng& rng) {
  std::vector<Triplet> t;
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      if (rng.bernoulli(density)) t.push_back({i, j, rng.normal()});
    }
  }
  return CsrMatrix(r, c, std::move(t));
}

TEST(Csr, SpmmNnMatchesDense) {
  Rng rng(6);
  const auto a = random_csr(40, 30, 0.1, rng);
  const auto b = random_matrix(30, 7, rng);
  DenseMatrix c(40, 7), c_ref(40, 7);
  spmm_nn(1.0, a, b, 0.0, c);
  gemm_nn(1.0, a.to_dense(), b, 0.0, c_ref);
  for (std::size_t i = 0; i < 40; ++i) {
    for (std::size_t j = 0; j < 7; ++j) {
      EXPECT_NEAR(c.at(i, j), c_ref.at(i, j), 1e-10);
    }
  }
}

TEST(Csr, SpmmTnMatchesDense) {
  Rng rng(7);
  const auto a = random_csr(50, 20, 0.15, rng);
  const auto b = random_matrix(50, 5, rng);
  DenseMatrix c(20, 5), c_ref(20, 5);
  spmm_tn(1.0, a, b, 0.0, c);
  gemm_tn(1.0, a.to_dense(), b, 0.0, c_ref);
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_NEAR(c.at(i, j), c_ref.at(i, j), 1e-10);
    }
  }
}

TEST(Csr, SpmmBetaAccumulates) {
  Rng rng(8);
  const auto a = random_csr(10, 10, 0.3, rng);
  const auto b = random_matrix(10, 3, rng);
  DenseMatrix c(10, 3), base(10, 3);
  base.fill(2.0);
  c.fill(2.0);
  spmm_nn(1.5, a, b, 1.0, c);
  DenseMatrix expected(10, 3);
  gemm_nn(1.5, a.to_dense(), b, 0.0, expected);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(c.at(i, j), expected.at(i, j) + 2.0, 1e-10);
    }
  }
}

// ------------------------------------------------- transposed (CSC) view

TEST(Csr, ParallelTransposeBuildMatchesSequentialBytes) {
  Rng rng(77);
  std::vector<CsrMatrix> mats;
  mats.emplace_back();                                 // empty, no rows
  mats.emplace_back(CsrMatrix(5, 400, {}));            // empty, wide
  mats.push_back(random_csr(60, 800, 0.01, rng));      // wide shard shape
  mats.push_back(random_csr(400, 3000, 0.04, rng));    // E18-shaped
  mats.push_back(random_csr(500, 40, 0.3, rng));       // tall, denser
  {
    // Skewed: a few heavy rows so nnz-balanced blocks cut unevenly.
    std::vector<Triplet> t;
    for (std::size_t j = 0; j < 200; ++j) t.push_back({0, j, rng.normal()});
    for (std::size_t j = 0; j < 200; ++j) t.push_back({63, j, rng.normal()});
    for (std::size_t i = 0; i < 64; ++i) t.push_back({i, i, 1.0 + double(i)});
    mats.emplace_back(64, 200, std::move(t));
  }
  for (const auto& m : mats) {
    const auto seq = detail::build_transposed(m.rows(), m.cols(), m.row_ptr(),
                                              m.col_idx(), m.values(), false);
    for (const int threads : {1, 2, 3, 8}) {
      ThreadGuard guard(threads);
      const auto par = detail::build_transposed(
          m.rows(), m.cols(), m.row_ptr(), m.col_idx(), m.values(), true);
      ASSERT_EQ(par.col_ptr, seq.col_ptr) << m.rows() << "x" << m.cols()
                                          << " t=" << threads;
      ASSERT_EQ(par.row_idx, seq.row_idx) << m.rows() << "x" << m.cols()
                                          << " t=" << threads;
      ASSERT_EQ(par.values.size(), seq.values.size());
      for (std::size_t e = 0; e < par.values.size(); ++e) {
        ASSERT_EQ(par.values[e], seq.values[e]) << "t=" << threads;
      }
    }
  }
}

// ------------------------------------------------------------ flops/device

TEST(Flops, KernelsCreditExpectedCounts) {
  flops::reset();
  std::vector<double> x(100, 1.0), y(100, 2.0);
  axpy(1.0, x, y);
  EXPECT_EQ(flops::read(), 200u);
  (void)dot(x, y);
  EXPECT_EQ(flops::read(), 400u);
  flops::Scope scope;
  (void)dot(x, y);
  EXPECT_EQ(scope.elapsed(), 200u);
}

TEST(Flops, GemmCountsTwoMNK) {
  flops::reset();
  DenseMatrix a(4, 5), b(5, 6), c(4, 6);
  gemm_nn(1.0, a, b, 0.0, c);
  EXPECT_EQ(flops::read(), 2u * 4 * 5 * 6);
}

TEST(Device, ConvertsFlopsToSeconds) {
  const DeviceModel d{"x", 10.0};  // 10 GF/s
  EXPECT_DOUBLE_EQ(d.seconds_for_flops(10'000'000'000ULL), 1.0);
  EXPECT_DOUBLE_EQ(d.seconds_for_flops(0), 0.0);
}

TEST(Device, RooflineTakesSlowerOfFlopAndByteTerms) {
  const DeviceModel d{"x", 10.0, 2.0};  // 10 GF/s, 2 GB/s
  // Flop-bound: 1 s of flops vs 0.5 s of traffic.
  EXPECT_DOUBLE_EQ(d.seconds_for(10'000'000'000ULL, 1'000'000'000ULL), 1.0);
  // Bandwidth-bound: 0.1 s of flops vs 5 s of traffic.
  EXPECT_DOUBLE_EQ(d.seconds_for(1'000'000'000ULL, 10'000'000'000ULL), 5.0);
  EXPECT_DOUBLE_EQ(d.balance(), 5.0);  // flops/byte
  // No bandwidth rating: flop-only pricing, balance undefined (0).
  const DeviceModel flat{"x", 10.0};
  EXPECT_DOUBLE_EQ(flat.seconds_for(1'000'000'000ULL, 1ULL << 40), 0.1);
  EXPECT_DOUBLE_EQ(flat.balance(), 0.0);
}

TEST(Device, PresetsAndParsing) {
  EXPECT_EQ(device_from_string("p100").name, "p100");
  EXPECT_EQ(device_from_string("cpu").name, "cpu");
  EXPECT_GT(device_from_string("p100").gbytes_per_s, 0.0);
  EXPECT_DOUBLE_EQ(device_from_string("123.5").gflops, 123.5);
  EXPECT_DOUBLE_EQ(device_from_string("123.5").gbytes_per_s, 0.0);
  const auto custom = device_from_string("3000:550");
  EXPECT_DOUBLE_EQ(custom.gflops, 3000.0);
  EXPECT_DOUBLE_EQ(custom.gbytes_per_s, 550.0);
  EXPECT_THROW(device_from_string("bogus"), InvalidArgument);
  EXPECT_THROW(device_from_string("-3"), InvalidArgument);
  EXPECT_THROW(device_from_string("100:"), InvalidArgument);
  EXPECT_THROW(device_from_string("100:-5"), InvalidArgument);
  EXPECT_THROW(device_from_string("100x5"), InvalidArgument);
}

TEST(Device, RatingsMustBeWholeFiniteNumbersAboveZero) {
  // strtod priced these: infinite GF/s (0 simulated seconds) and hex 16.
  for (const char* spec : {"inf", "1e400", "0x10", "nan", "0", "100:inf",
                           "100:1e400", "100:0x10", "+100", "100:"}) {
    try {
      static_cast<void>(device_from_string(spec));
      ADD_FAILURE() << "accepted device spec " << spec;
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("device spec"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_DOUBLE_EQ(device_from_string("1e3:2.5").gflops, 1000.0);
  EXPECT_DOUBLE_EQ(device_from_string("1e3:2.5").gbytes_per_s, 2.5);
}

}  // namespace
}  // namespace nadmm::la
