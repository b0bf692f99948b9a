// Property-based sweeps across randomized instances: invariants that
// must hold for *every* shape/seed, exercised with parameterized suites.
#include <gtest/gtest.h>

#include <cmath>

#include "comm/cluster.hpp"
#include "data/generators.hpp"
#include "data/partition.hpp"
#include "la/dense_matrix.hpp"
#include "la/vector_ops.hpp"
#include "model/softmax.hpp"
#include "solvers/cg.hpp"
#include "support/rng.hpp"

namespace nadmm {
namespace {

// ---------------------------------------------------------------- GEMM

struct GemmShape {
  std::size_t m, k, n;
};

class GemmProperty : public testing::TestWithParam<GemmShape> {};

TEST_P(GemmProperty, TransposeIdentity) {
  // (Aᵀ B)ᵀ computed via gemm_tn must match B ᵀ A computed via gemm_tn
  // with roles swapped: C1 = AᵀB and C2 = BᵀA satisfy C1 = C2ᵀ.
  const auto [m, k, n] = GetParam();
  Rng rng(m * 73 + k * 7 + n);
  la::DenseMatrix a(k, m), b(k, n);
  for (double& v : a.data()) v = rng.normal();
  for (double& v : b.data()) v = rng.normal();
  la::DenseMatrix c1(m, n), c2(n, m);
  la::gemm_tn(1.0, a, b, 0.0, c1);
  la::gemm_tn(1.0, b, a, 0.0, c2);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(c1.at(i, j), c2.at(j, i), 1e-9);
    }
  }
}

TEST_P(GemmProperty, LinearityInInput) {
  const auto [m, k, n] = GetParam();
  Rng rng(m + k * 31 + n * 17);
  la::DenseMatrix a(m, k), b1(k, n), b2(k, n), bsum(k, n);
  for (double& v : a.data()) v = rng.normal();
  for (std::size_t e = 0; e < b1.size(); ++e) {
    b1.data()[e] = rng.normal();
    b2.data()[e] = rng.normal();
    bsum.data()[e] = 2.0 * b1.data()[e] - 0.5 * b2.data()[e];
  }
  la::DenseMatrix c1(m, n), c2(m, n), cs(m, n);
  la::gemm_nn(1.0, a, b1, 0.0, c1);
  la::gemm_nn(1.0, a, b2, 0.0, c2);
  la::gemm_nn(1.0, a, bsum, 0.0, cs);
  for (std::size_t e = 0; e < cs.size(); ++e) {
    EXPECT_NEAR(cs.data()[e], 2.0 * c1.data()[e] - 0.5 * c2.data()[e], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmProperty,
                         testing::Values(GemmShape{3, 4, 5},
                                         GemmShape{17, 33, 9},
                                         GemmShape{64, 128, 19},
                                         GemmShape{1, 300, 2},
                                         GemmShape{301, 2, 1}));

// ---------------------------------------------------------------- softmax

class SoftmaxProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(SoftmaxProperty, ProbabilitiesImplyConvexLowerBound) {
  // Convexity: F(y) >= F(x) + <g(x), y-x> for random pairs.
  auto tt = data::make_blobs(40, 5, 6, 4, 3.0, 1.0, GetParam());
  model::SoftmaxObjective obj(tt.train, 1e-3);
  Rng rng(GetParam() * 1000 + 1);
  std::vector<double> x(obj.dim()), y(obj.dim()), g(obj.dim());
  for (int trial = 0; trial < 5; ++trial) {
    for (std::size_t i = 0; i < obj.dim(); ++i) {
      x[i] = 0.5 * rng.normal();
      y[i] = 0.5 * rng.normal();
    }
    const double fx = obj.value_and_gradient(x, g);
    double linear = fx;
    for (std::size_t i = 0; i < obj.dim(); ++i) linear += g[i] * (y[i] - x[i]);
    EXPECT_GE(obj.value(y), linear - 1e-8 * (1.0 + std::abs(linear)));
  }
}

TEST_P(SoftmaxProperty, GradientNormZeroOnlyNearStationarity) {
  // ‖g‖ = 0 would require P = Y exactly; at random points it is > 0.
  auto tt = data::make_blobs(30, 5, 5, 3, 3.0, 1.0, GetParam());
  model::SoftmaxObjective obj(tt.train, 0.0);
  Rng rng(GetParam() * 997 + 3);
  std::vector<double> x(obj.dim()), g(obj.dim());
  for (double& v : x) v = rng.normal();
  obj.gradient(x, g);
  EXPECT_GT(la::nrm2(g), 1e-6);
}

TEST_P(SoftmaxProperty, ShardValueAdditivity) {
  // Σ_shards f_shard(x) == f_full(x): the identity distributed solvers
  // rely on when they allreduce local values/gradients.
  auto tt = data::make_blobs(57, 5, 6, 4, 3.0, 1.0, GetParam());
  model::SoftmaxObjective full(tt.train, 0.0);
  Rng rng(GetParam() * 31 + 5);
  std::vector<double> x(full.dim());
  for (double& v : x) v = 0.3 * rng.normal();
  double sum = 0.0;
  std::vector<double> g_sum(full.dim(), 0.0), g_part(full.dim());
  for (int r = 0; r < 3; ++r) {
    const auto shard = data::shard_contiguous(tt.train, 3, r);
    model::SoftmaxObjective part(shard, 0.0);
    sum += part.value_and_gradient(x, g_part);
    la::axpy(1.0, g_part, g_sum);
  }
  std::vector<double> g_full(full.dim());
  const double f_full = full.value_and_gradient(x, g_full);
  EXPECT_NEAR(sum, f_full, 1e-8 * (1.0 + std::abs(f_full)));
  for (std::size_t i = 0; i < full.dim(); i += 5) {
    EXPECT_NEAR(g_sum[i], g_full[i], 1e-8 * (1.0 + std::abs(g_full[i])));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoftmaxProperty,
                         testing::Values(11u, 22u, 33u, 44u));

// ---------------------------------------------------------------- CG

class CgProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(CgProperty, ErrorEnergyNormDecreasesWithBudget) {
  // The classical CG guarantee: the A-norm of the error ‖p_k − p*‖_A is
  // monotonically non-increasing in the iteration count. (The plain
  // 2-norm residual is NOT monotone — a classic CG gotcha.)
  Rng rng(GetParam());
  const std::size_t n = 12;
  la::DenseMatrix a(n, n);
  // A = MᵀM + I (SPD).
  la::DenseMatrix mfac(n, n);
  for (double& v : mfac.data()) v = rng.normal();
  la::gemm_tn(1.0, mfac, mfac, 0.0, a);
  for (std::size_t i = 0; i < n; ++i) a.at(i, i) += 1.0;
  std::vector<double> g(n);
  for (double& v : g) v = rng.normal();
  const auto hvp = [&](std::span<const double> v, std::span<double> out) {
    for (std::size_t i = 0; i < n; ++i) out[i] = la::dot(a.row(i), v);
  };
  // Reference solution from a full-budget run.
  std::vector<double> p_star(n);
  solvers::CgOptions exact;
  exact.max_iterations = static_cast<int>(n) + 4;
  exact.rel_tol = 1e-14;
  solvers::conjugate_gradient(hvp, g, p_star, exact);

  std::vector<double> err(n), aerr(n);
  double previous = 1e100;
  for (int budget : {1, 2, 4, 8, 12}) {
    std::vector<double> p(n);
    solvers::CgOptions opts;
    opts.max_iterations = budget;
    opts.rel_tol = 1e-14;
    solvers::conjugate_gradient(hvp, g, p, opts);
    for (std::size_t i = 0; i < n; ++i) err[i] = p[i] - p_star[i];
    hvp(err, aerr);
    const double energy = la::dot(err, aerr);
    EXPECT_LE(energy, previous * (1.0 + 1e-9) + 1e-12) << "budget=" << budget;
    previous = energy;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CgProperty, testing::Values(1u, 2u, 3u, 4u));

// ---------------------------------------------------------------- comm

class CollectiveProperty : public testing::TestWithParam<int> {};

TEST_P(CollectiveProperty, GatherBroadcastRoundTrip) {
  // broadcast(gather(x)) must hand every rank its own contribution back
  // at its rank's offset.
  const int n = GetParam();
  comm::SimCluster cluster(n, la::DeviceModel{"t", 1.0},
                           comm::ideal_network());
  cluster.run([&](comm::RankCtx& ctx) {
    std::vector<double> mine(13);
    Rng rng(static_cast<std::uint64_t>(ctx.rank()) + 100);
    for (double& v : mine) v = rng.normal();
    const std::vector<double> original = mine;
    std::vector<double> all(13 * static_cast<std::size_t>(n));
    ctx.gather(mine, all, 0);
    ctx.broadcast(all, 0);
    const std::size_t offset = 13 * static_cast<std::size_t>(ctx.rank());
    for (std::size_t i = 0; i < mine.size(); ++i) {
      EXPECT_DOUBLE_EQ(all[offset + i], original[i]);
    }
  });
}

TEST_P(CollectiveProperty, AllreduceLinearity) {
  // allreduce(αx + βy) == α·allreduce(x) + β·allreduce(y).
  const int n = GetParam();
  comm::SimCluster cluster(n, la::DeviceModel{"t", 1.0},
                           comm::ideal_network());
  cluster.run([&](comm::RankCtx& ctx) {
    Rng rng(static_cast<std::uint64_t>(ctx.rank()) + 7);
    std::vector<double> x(9), y(9), combo(9);
    for (std::size_t i = 0; i < 9; ++i) {
      x[i] = rng.normal();
      y[i] = rng.normal();
      combo[i] = 2.0 * x[i] - 3.0 * y[i];
    }
    ctx.allreduce_sum(x);
    ctx.allreduce_sum(y);
    ctx.allreduce_sum(combo);
    for (std::size_t i = 0; i < 9; ++i) {
      EXPECT_NEAR(combo[i], 2.0 * x[i] - 3.0 * y[i], 1e-9);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, CollectiveProperty, testing::Values(2, 3, 5, 8));

// ---------------------------------------------------------------- data

TEST(DataProperty, EveryGeneratorIsSeedDeterministic) {
  for (const char* name : {"higgs", "mnist", "cifar", "e18", "blobs"}) {
    const auto generate = data::parse_dataset_source(name).generator;
    auto a = generate(40, 10, 128, 77);
    auto b = generate(40, 10, 128, 77);
    ASSERT_EQ(a.train.num_samples(), b.train.num_samples()) << name;
    EXPECT_TRUE(std::equal(a.train.labels().begin(), a.train.labels().end(),
                           b.train.labels().begin()))
        << name;
    if (a.train.is_sparse()) {
      EXPECT_TRUE(std::equal(a.train.sparse_features().values().begin(),
                             a.train.sparse_features().values().end(),
                             b.train.sparse_features().values().begin()))
          << name;
    } else {
      EXPECT_TRUE(std::equal(a.train.dense_features().data().begin(),
                             a.train.dense_features().data().end(),
                             b.train.dense_features().data().begin()))
          << name;
    }
  }
}

TEST(DataProperty, ShardingPreservesEveryLabelOnce) {
  auto tt = data::make_blobs(83, 10, 5, 4, 3.0, 1.0, 9);
  for (int parts : {1, 2, 3, 7}) {
    std::vector<std::int32_t> collected;
    for (int r = 0; r < parts; ++r) {
      const auto s = data::shard_contiguous(tt.train, parts, r);
      collected.insert(collected.end(), s.labels().begin(), s.labels().end());
    }
    ASSERT_EQ(collected.size(), tt.train.num_samples());
    EXPECT_TRUE(std::equal(collected.begin(), collected.end(),
                           tt.train.labels().begin()))
        << "parts=" << parts;
  }
}

}  // namespace
}  // namespace nadmm
