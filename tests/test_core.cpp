// Tests for src/core: penalty policies, the Newton-ADMM driver
// (consensus convergence to the single-node optimum, fixed-point
// invariants, trace integrity — parameterized over rank counts and
// penalty rules), and the high-precision reference solver.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "comm/cluster.hpp"
#include "core/admm_worker.hpp"
#include "core/newton_admm.hpp"
#include "core/penalty.hpp"
#include "core/reference.hpp"
#include "core/trace.hpp"
#include "data/generators.hpp"
#include "la/flops.hpp"
#include "la/vector_ops.hpp"
#include "model/softmax.hpp"
#include "support/binio.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace nadmm::core {
namespace {

/// Contiguous zero-copy shards sized to the cluster (the paper's data
/// layout: one contiguous row block per rank).
nadmm::data::ShardedDataset shards(const nadmm::comm::SimCluster& cluster,
                                   const nadmm::data::Dataset& train,
                                   const nadmm::data::Dataset* test) {
  nadmm::data::ShardPlan plan;
  plan.parts = cluster.size();
  return nadmm::data::make_sharded(train, test, plan);
}

comm::SimCluster test_cluster(int n) {
  return comm::SimCluster(n, la::DeviceModel{"test", 100.0},
                          comm::infiniband_100g());
}

// ------------------------------------------------------------ penalty

TEST(Penalty, RuleParsingRoundTrip) {
  EXPECT_EQ(penalty_rule_from_string("fixed"), PenaltyRule::kFixed);
  EXPECT_EQ(penalty_rule_from_string("rb"), PenaltyRule::kResidualBalancing);
  EXPECT_EQ(penalty_rule_from_string("sps"), PenaltyRule::kSpectral);
  EXPECT_THROW(penalty_rule_from_string("spectral"), InvalidArgument);
  EXPECT_THROW(penalty_rule_from_string("??"), InvalidArgument);
}

TEST(Penalty, FixedNeverChanges) {
  PenaltyOptions opts;
  opts.rule = PenaltyRule::kFixed;
  opts.rho0 = 2.0;
  PenaltyController pc(opts, 4);
  std::vector<double> a(4, 1.0), b(4, 2.0), c(4, 0.5), d(4, 0.0);
  for (int k = 0; k < 10; ++k) pc.observe(k, a, b, c, d, d);
  EXPECT_DOUBLE_EQ(pc.rho(), 2.0);
}

TEST(Penalty, ResidualBalancingIncreasesRhoOnLargePrimal) {
  PenaltyOptions opts;
  opts.rule = PenaltyRule::kResidualBalancing;
  opts.rho0 = 1.0;
  PenaltyController pc(opts, 3);
  // x far from z (huge primal residual), z static (zero dual residual).
  std::vector<double> x(3, 100.0), z(3, 0.0), z_prev(3, 0.0), y(3, 0.0);
  pc.observe(0, x, z, z_prev, y, y);
  EXPECT_DOUBLE_EQ(pc.rho(), 2.0);  // ×rb_factor
  pc.observe(1, x, z, z_prev, y, y);
  EXPECT_DOUBLE_EQ(pc.rho(), 4.0);
}

TEST(Penalty, ResidualBalancingDecreasesRhoOnLargeDual) {
  PenaltyOptions opts;
  opts.rule = PenaltyRule::kResidualBalancing;
  opts.rho0 = 8.0;
  PenaltyController pc(opts, 3);
  // x equals z (zero primal), z moved a lot (large dual residual).
  std::vector<double> x(3, 5.0), z(3, 5.0), z_prev(3, 0.0), y(3, 0.0);
  pc.observe(0, x, z, z_prev, y, y);
  EXPECT_DOUBLE_EQ(pc.rho(), 4.0);
}

TEST(Penalty, ResidualBalancingRespectsBounds) {
  PenaltyOptions opts;
  opts.rule = PenaltyRule::kResidualBalancing;
  opts.rho0 = 1.0;
  opts.rho_max = 4.0;
  PenaltyController pc(opts, 2);
  std::vector<double> x(2, 100.0), z(2, 0.0), zp(2, 0.0), y(2, 0.0);
  for (int k = 0; k < 10; ++k) pc.observe(k, x, z, zp, y, y);
  EXPECT_LE(pc.rho(), 4.0);
}

TEST(Penalty, SpectralEstimatesQuadraticCurvature) {
  // For f(x) = (a/2)‖x‖², the dual ĥ tracks ∇f(x) = a·x, so the spectral
  // stepsize from (Δĥ, Δx) should recover ≈ a.
  PenaltyOptions opts;
  opts.rule = PenaltyRule::kSpectral;
  opts.rho0 = 1.0;
  opts.sps_period = 1;
  PenaltyController pc(opts, 4);
  const double a = 3.0;
  Rng rng(5);
  std::vector<double> x(4), yhat(4), z(4), y(4);
  for (int k = 0; k < 12; ++k) {
    for (std::size_t j = 0; j < 4; ++j) {
      x[j] = rng.normal();
      yhat[j] = a * x[j];      // ∇f(x) for the quadratic
      z[j] = rng.normal();
      y[j] = a * z[j];         // consensus side with the same curvature
    }
    pc.observe(k, x, z, z, y, yhat);
  }
  EXPECT_NEAR(pc.rho(), a, 0.5);
}

TEST(Penalty, SpectralKeepsRhoFiniteOnUncorrelatedPairs) {
  PenaltyOptions opts;
  opts.rule = PenaltyRule::kSpectral;
  opts.rho0 = 1.5;
  opts.sps_period = 1;
  PenaltyController pc(opts, 8);
  Rng rng(6);
  std::vector<double> x(8), yhat(8), z(8), y(8);
  // Pure noise: correlations hover near zero, so rho stays positive and
  // finite (it may move when noise correlates above eps_cor by chance).
  for (int k = 0; k < 5; ++k) {
    for (std::size_t j = 0; j < 8; ++j) {
      x[j] = rng.normal();
      yhat[j] = rng.normal();
      z[j] = rng.normal();
      y[j] = rng.normal();
    }
    pc.observe(k, x, z, z, y, yhat);
  }
  EXPECT_GT(pc.rho(), 0.0);
  EXPECT_TRUE(std::isfinite(pc.rho()));
}

TEST(Penalty, ValidatesOptions) {
  PenaltyOptions opts;
  opts.rho0 = 0.0;
  EXPECT_THROW(PenaltyController(opts, 3), InvalidArgument);
  opts = PenaltyOptions{};
  opts.sps_period = 0;
  EXPECT_THROW(PenaltyController(opts, 3), InvalidArgument);
}

// ------------------------------------------------------------ reference

TEST(Reference, ReachesTightGradientNorm) {
  auto tt = data::make_blobs(200, 50, 8, 4, 3.0, 1.0, 7);
  const auto ref = solve_reference(tt.train, 1e-3);
  EXPECT_TRUE(ref.converged);
  model::SoftmaxObjective obj(tt.train, 1e-3);
  std::vector<double> g(obj.dim());
  obj.gradient(ref.x, g);
  EXPECT_LT(la::nrm2(g), 1e-8);
}

// ------------------------------------------------------------ newton-admm

struct AdmmCase {
  int ranks;
  PenaltyRule rule;
};

class AdmmSweep : public testing::TestWithParam<AdmmCase> {};

TEST_P(AdmmSweep, ConvergesToSingleNodeOptimum) {
  const auto c = GetParam();
  auto tt = data::make_blobs(600, 150, 10, 4, 3.0, 1.0, 8);
  const double lambda = 1e-3;
  const auto ref = solve_reference(tt.train, lambda);

  auto cluster = test_cluster(c.ranks);
  NewtonAdmmOptions opts;
  opts.max_iterations = 60;
  opts.lambda = lambda;
  opts.penalty.rule = c.rule;
  const auto result = newton_admm(cluster, shards(cluster, tt.train, &tt.test), opts);

  // Paper Fig. 3 criterion: relative objective θ < 0.05.
  const double theta =
      (result.final_objective - ref.objective) / std::abs(ref.objective);
  EXPECT_LT(theta, 0.05) << "ranks=" << c.ranks
                         << " rule=" << static_cast<int>(c.rule);
  EXPECT_EQ(result.solver, "newton-admm");
  EXPECT_EQ(static_cast<int>(result.trace.size()), result.iterations);
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndRules, AdmmSweep,
    testing::Values(AdmmCase{1, PenaltyRule::kSpectral},
                    AdmmCase{2, PenaltyRule::kSpectral},
                    AdmmCase{4, PenaltyRule::kSpectral},
                    AdmmCase{8, PenaltyRule::kSpectral},
                    AdmmCase{4, PenaltyRule::kFixed},
                    AdmmCase{4, PenaltyRule::kResidualBalancing}));

TEST(AdmmWorker, SnapshotLengthWhoseByteCountWrapsIsTruncated) {
  // A vector length of 2^61 makes length · 8 wrap to 0 in 64 bits; the
  // reader must still report the missing bytes instead of allocating.
  auto tt = data::make_blobs(40, 10, 4, 3, 3.0, 1.0, 11);
  const std::size_t dim = 4 * 2;
  AdmmWorker worker(tt.train, NewtonAdmmOptions{}, dim);
  binio::ByteWriter w;
  worker.save_checkpoint(w);
  std::vector<std::uint8_t> bytes = w.take();
  // Layout: u16 version, u64 dim, then x's u64 length (little-endian).
  const std::uint64_t huge = std::uint64_t{1} << 61;
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[10 + i] = static_cast<std::uint8_t>(huge >> (8 * i));
  }
  binio::ByteReader r(bytes, "worker snapshot");
  try {
    worker.restore_checkpoint(r);
    FAIL() << "a 2^61-element vector was accepted";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

TEST(EpochRecorder, ScoringLeavesTheSolversForwardCacheInPlace) {
  // A solver warm at x scores the epoch iterate z through the recorder;
  // its next gradient at x must still hit the cache and charge no
  // forward pass.
  auto tt = data::make_blobs(60, 20, 5, 3, 3.0, 1.0, 19);
  auto cluster = test_cluster(1);
  const auto sharded = shards(cluster, tt.train, &tt.test);
  RunResult result;
  std::uint64_t charged = 0, warm_charged = 0;
  double fresh_f = 0.0;
  cluster.run([&](comm::RankCtx& ctx) {
    const data::Dataset& train = sharded.ranks.front().train;
    model::SoftmaxObjective local(train, 0.0), warm(train, 0.0);
    EpochRecorder recorder(ctx, local, /*lambda=*/0.5, sharded,
                           /*evaluate_accuracy=*/true, result);
    Rng rng(20);
    std::vector<double> x(local.dim()), z(local.dim()), g(local.dim());
    for (double& v : x) v = 0.2 * rng.normal();
    for (double& v : z) v = 0.2 * rng.normal();
    static_cast<void>(local.value(x));
    static_cast<void>(warm.value(x));
    recorder.record(1, z);
    const flops::Scope scope;
    local.gradient(x, g);
    charged = scope.elapsed();
    const flops::Scope warm_scope;
    warm.gradient(x, g);
    warm_charged = warm_scope.elapsed();
    fresh_f = model::SoftmaxObjective(train, 0.0).value(z) +
              0.25 * la::nrm2_sq(z);
  });
  EXPECT_EQ(charged, warm_charged);
  ASSERT_EQ(result.trace.size(), 1u);
  EXPECT_EQ(result.trace.front().objective, fresh_f);
}

TEST(NewtonAdmm, PrimalResidualShrinks) {
  auto tt = data::make_blobs(400, 100, 8, 3, 3.0, 1.0, 9);
  auto cluster = test_cluster(4);
  NewtonAdmmOptions opts;
  opts.max_iterations = 50;
  opts.lambda = 1e-3;
  const auto r = newton_admm(cluster, shards(cluster, tt.train, nullptr), opts);
  ASSERT_GE(r.trace.size(), 10u);
  const double early = r.trace[2].primal_residual;
  const double late = r.trace.back().primal_residual;
  EXPECT_LT(late, 0.2 * early);
}

TEST(NewtonAdmm, ConsensusSatisfiesGlobalStationarity) {
  // Fixed-point invariant (DESIGN.md §5): Σ∇f_i(z) + λz ≈ 0 at the end.
  auto tt = data::make_blobs(500, 50, 8, 4, 3.0, 1.0, 10);
  auto cluster = test_cluster(4);
  NewtonAdmmOptions opts;
  opts.max_iterations = 120;
  opts.lambda = 1e-2;
  const auto r = newton_admm(cluster, shards(cluster, tt.train, nullptr), opts);
  model::SoftmaxObjective full(tt.train, 1e-2);
  std::vector<double> g(full.dim());
  full.gradient(r.x, g);
  // Compare to the gradient magnitude at the start (z = 0).
  std::vector<double> g0(full.dim());
  full.gradient(std::vector<double>(full.dim(), 0.0), g0);
  EXPECT_LT(la::nrm2(g), 1e-3 * la::nrm2(g0));
}

TEST(NewtonAdmm, TraceTimingFieldsAreSane) {
  auto tt = data::make_blobs(300, 60, 6, 3, 3.0, 1.0, 11);
  auto cluster = test_cluster(4);
  NewtonAdmmOptions opts;
  opts.max_iterations = 12;
  const auto r = newton_admm(cluster, shards(cluster, tt.train, &tt.test), opts);
  ASSERT_EQ(r.trace.size(), 12u);
  double prev = 0.0;
  for (const auto& it : r.trace) {
    EXPECT_GT(it.epoch_sim_seconds, 0.0);
    EXPECT_GT(it.sim_seconds, prev);
    EXPECT_GE(it.test_accuracy, 0.0);
    EXPECT_LE(it.test_accuracy, 1.0);
    EXPECT_GT(it.rho_mean, 0.0);
    prev = it.sim_seconds;
  }
  EXPECT_NEAR(r.avg_epoch_sim_seconds, r.total_sim_seconds / 12.0, 1e-12);
  EXPECT_GT(r.trace.back().comm_sim_seconds, 0.0);
}

TEST(NewtonAdmm, NoTestSetReportsMinusOneAccuracy) {
  auto tt = data::make_blobs(200, 10, 5, 3, 3.0, 1.0, 12);
  auto cluster = test_cluster(2);
  NewtonAdmmOptions opts;
  opts.max_iterations = 5;
  const auto r = newton_admm(cluster, shards(cluster, tt.train, nullptr), opts);
  EXPECT_DOUBLE_EQ(r.final_test_accuracy, -1.0);
  for (const auto& it : r.trace) EXPECT_DOUBLE_EQ(it.test_accuracy, -1.0);
}

TEST(NewtonAdmm, ResidualToleranceStopsEarly) {
  auto tt = data::make_blobs(300, 10, 6, 3, 5.0, 0.8, 13);
  auto cluster = test_cluster(4);
  NewtonAdmmOptions opts;
  opts.max_iterations = 200;
  opts.lambda = 1e-2;
  opts.primal_tol = 1e-2;
  opts.dual_tol = 1e-2;
  const auto r = newton_admm(cluster, shards(cluster, tt.train, nullptr), opts);
  EXPECT_LT(r.iterations, 200);
  EXPECT_LE(r.trace.back().primal_residual, 1e-2);
}

TEST(NewtonAdmm, WorksOnSparseE18LikeData) {
  auto tt = data::make_e18_like(400, 100, 256, 14);
  auto cluster = test_cluster(4);
  NewtonAdmmOptions opts;
  opts.max_iterations = 30;
  opts.lambda = 1e-3;
  const auto r = newton_admm(cluster, shards(cluster, tt.train, &tt.test), opts);
  ASSERT_FALSE(r.trace.empty());
  EXPECT_LT(r.final_objective, r.trace.front().objective);
  EXPECT_GT(r.final_test_accuracy, 1.5 / 20.0);  // well above chance
}

TEST(NewtonAdmm, MultipleLocalNewtonStepsAccelerateConsensus) {
  auto tt = data::make_blobs(400, 50, 8, 3, 3.0, 1.0, 15);
  NewtonAdmmOptions one;
  one.max_iterations = 10;
  one.lambda = 1e-3;
  NewtonAdmmOptions three = one;
  three.local_newton_steps = 3;
  auto c1 = test_cluster(4);
  auto c3 = test_cluster(4);
  const auto r1 = newton_admm(c1, shards(c1, tt.train, nullptr), one);
  const auto r3 = newton_admm(c3, shards(c3, tt.train, nullptr), three);
  EXPECT_LE(r3.final_objective, r1.final_objective * 1.05);
  // More local work must cost more simulated compute per epoch.
  EXPECT_GT(r3.avg_epoch_sim_seconds, r1.avg_epoch_sim_seconds);
}

TEST(NewtonAdmm, SingleRankMatchesNewtonTrajectory) {
  // With N=1 and λ handled by the z-update, ADMM should still reach the
  // regularized optimum.
  auto tt = data::make_blobs(300, 30, 6, 3, 3.0, 1.0, 16);
  auto cluster = test_cluster(1);
  NewtonAdmmOptions opts;
  opts.max_iterations = 80;
  opts.lambda = 1e-2;
  const auto r = newton_admm(cluster, shards(cluster, tt.train, nullptr), opts);
  const auto ref = solve_reference(tt.train, 1e-2);
  EXPECT_NEAR(r.final_objective, ref.objective,
              0.02 * std::abs(ref.objective));
}

TEST(NewtonAdmm, ValidatesOptions) {
  auto tt = data::make_blobs(50, 10, 4, 3, 3.0, 1.0, 17);
  auto cluster = test_cluster(2);
  NewtonAdmmOptions bad;
  bad.max_iterations = 0;
  EXPECT_THROW(newton_admm(cluster, shards(cluster, tt.train, nullptr), bad), InvalidArgument);
  bad = NewtonAdmmOptions{};
  bad.lambda = -1.0;
  EXPECT_THROW(newton_admm(cluster, shards(cluster, tt.train, nullptr), bad), InvalidArgument);
  bad = NewtonAdmmOptions{};
  bad.local_newton_steps = 0;
  EXPECT_THROW(newton_admm(cluster, shards(cluster, tt.train, nullptr), bad), InvalidArgument);
}

TEST(NewtonAdmm, ReproducibleAcrossRuns) {
  // Data generation, the algorithm and every kernel are deterministic,
  // so two runs agree bit for bit.
  auto tt = data::make_blobs(200, 20, 5, 3, 3.0, 1.0, 18);
  NewtonAdmmOptions opts;
  opts.max_iterations = 10;
  auto c1 = test_cluster(4);
  auto c2 = test_cluster(4);
  const auto r1 = newton_admm(c1, shards(c1, tt.train, nullptr), opts);
  const auto r2 = newton_admm(c2, shards(c2, tt.train, nullptr), opts);
  ASSERT_EQ(r1.x.size(), r2.x.size());
  for (std::size_t i = 0; i < r1.x.size(); ++i) {
    EXPECT_EQ(r1.x[i], r2.x[i]) << i;
  }
  EXPECT_EQ(r1.total_sim_seconds, r2.total_sim_seconds);
  EXPECT_EQ(r1.final_objective, r2.final_objective);
}

}  // namespace
}  // namespace nadmm::core
