// Tests for src/baselines: GIANT, Synchronous SGD, InexactDANE, AIDE and
// DiSCO all decrease the objective and (where the algorithm promises it)
// converge to the single-node reference optimum.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "baselines/dane.hpp"
#include "baselines/disco.hpp"
#include "baselines/giant.hpp"
#include "baselines/sync_sgd.hpp"
#include "comm/cluster.hpp"
#include "core/reference.hpp"
#include "data/generators.hpp"
#include "la/flops.hpp"
#include "model/softmax.hpp"
#include "support/check.hpp"

namespace nadmm::baselines {
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

data::TrainTest easy_problem(std::uint64_t seed) {
  return data::make_blobs(600, 150, 10, 4, 3.0, 1.0, seed);
}

// ------------------------------------------------------------ GIANT

class GiantRanks : public testing::TestWithParam<int> {};

TEST_P(GiantRanks, ConvergesToReferenceOptimum) {
  auto tt = easy_problem(31);
  const double lambda = 1e-3;
  const auto ref = core::solve_reference(tt.train, lambda);
  auto cluster = test_cluster(GetParam());
  GiantOptions opts;
  opts.max_iterations = 60;
  opts.lambda = lambda;
  const auto r = giant(cluster, shards(cluster, tt.train, &tt.test), opts);
  const double theta =
      (r.final_objective - ref.objective) / std::abs(ref.objective);
  EXPECT_LT(theta, 0.05) << "ranks=" << GetParam();
  EXPECT_EQ(r.solver, "giant");
}

INSTANTIATE_TEST_SUITE_P(Ranks, GiantRanks, testing::Values(1, 2, 4, 8));

TEST(Giant, ObjectiveDecreasesMonotonically) {
  auto tt = easy_problem(32);
  auto cluster = test_cluster(4);
  GiantOptions opts;
  opts.max_iterations = 25;
  opts.lambda = 1e-3;
  const auto r = giant(cluster, shards(cluster, tt.train, nullptr), opts);
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_LE(r.trace[i].objective, r.trace[i - 1].objective + 1e-9);
  }
}

TEST(Giant, TraceAndAccuracyPopulated) {
  auto tt = easy_problem(33);
  auto cluster = test_cluster(4);
  GiantOptions opts;
  opts.max_iterations = 10;
  const auto r = giant(cluster, shards(cluster, tt.train, &tt.test), opts);
  ASSERT_EQ(r.trace.size(), 10u);
  EXPECT_GT(r.final_test_accuracy, 0.4);
  EXPECT_GT(r.trace.back().comm_sim_seconds, 0.0);
  EXPECT_GT(r.avg_epoch_sim_seconds, 0.0);
}

TEST(Giant, ReportsStragglerWaitPerRank) {
  // straggler=1:4 on 2 ranks: rank 1's device runs at a quarter speed,
  // so rank 0 idles at every barrier and rank 1 never waits.
  auto tt = easy_problem(36);
  comm::SimCluster cluster(
      {la::DeviceModel{"test", 100.0}, la::DeviceModel{"test/4", 25.0}},
      comm::infiniband_100g());
  GiantOptions opts;
  opts.max_iterations = 5;
  const auto r = giant(cluster, shards(cluster, tt.train, nullptr), opts);
  ASSERT_EQ(r.rank_wait_seconds.size(), 2u);
  EXPECT_GT(r.rank_wait_seconds[0], 0.0);
  EXPECT_EQ(r.rank_wait_seconds[1], 0.0);
  EXPECT_EQ(r.max_wait_seconds(), *std::max_element(r.rank_wait_seconds.begin(),
                                                    r.rank_wait_seconds.end()));
}

TEST(Giant, ValidatesOptions) {
  auto tt = easy_problem(34);
  auto cluster = test_cluster(2);
  GiantOptions bad;
  bad.max_iterations = 0;
  EXPECT_THROW(giant(cluster, shards(cluster, tt.train, nullptr), bad), InvalidArgument);
}

TEST(Giant, ChargesEachForwardPassOnce) {
  // One rank on a flop-only 1 GF/s device, so compute seconds are flops.
  // CG runs exactly 3 products per solve (a tolerance it cannot reach),
  // and both line searches accept the full step. The charged work is
  // then one forward pass at w = 0 plus, per iteration, the backward
  // half of the gradient, 3 Hessian-vector products and the n_steps
  // trial passes: f(w), the recorder and the next gradient reuse cached
  // passes. Vector updates stay far below half a forward pass.
  auto tt = easy_problem(35);
  comm::SimCluster cluster(1, la::DeviceModel{"flops", 1.0},
                           comm::infiniband_100g());
  GiantOptions opts;
  opts.max_iterations = 2;
  opts.line_search_steps = 3;
  opts.cg.max_iterations = 3;
  opts.cg.rel_tol = 1e-300;
  opts.evaluate_accuracy = false;
  const auto r = giant(cluster, shards(cluster, tt.train, nullptr), opts);
  ASSERT_EQ(r.trace.size(), 2u);
  const double charged =
      (r.total_sim_seconds - r.trace.back().comm_sim_seconds) * 1e9;

  model::SoftmaxObjective obj(tt.train, 0.0);
  std::vector<double> x(obj.dim(), 0.1), g(obj.dim()), hv(obj.dim());
  const flops::Scope fwd_scope;
  (void)obj.value(x);
  const auto fwd = static_cast<double>(fwd_scope.elapsed());
  const flops::Scope bwd_scope;
  obj.gradient(x, g);
  const auto bwd = static_cast<double>(bwd_scope.elapsed());
  const flops::Scope hvp_scope;
  obj.hessian_vec(x, g, hv);
  const auto hvp = static_cast<double>(hvp_scope.elapsed());

  const double n_steps = opts.line_search_steps + 1;
  const double expected = fwd + 2.0 * (bwd + 3.0 * hvp + n_steps * fwd);
  EXPECT_NEAR(charged, expected, 0.5 * fwd)
      << "forward passes beyond the minimum: " << (charged - expected) / fwd;
}

// ------------------------------------------------------------ SGD

TEST(SyncSgd, DecreasesObjectiveAndImprovesAccuracy) {
  auto tt = easy_problem(35);
  auto cluster = test_cluster(4);
  SyncSgdOptions opts;
  opts.epochs = 30;
  opts.batch_size = 32;
  opts.step_size = 0.5;
  opts.lambda = 1e-3;
  const auto r = sync_sgd(cluster, shards(cluster, tt.train, &tt.test), opts);
  ASSERT_EQ(r.trace.size(), 30u);
  EXPECT_LT(r.final_objective, r.trace.front().objective);
  EXPECT_GT(r.final_test_accuracy, 0.5);
  EXPECT_EQ(r.solver, "sync-sgd");
}

TEST(SyncSgd, ManyCommRoundsPerEpoch) {
  // SGD must pay ~steps-per-epoch allreduces; with 600 samples, 4 ranks
  // and batch 32, that is ~4–5 rounds per epoch, so its per-epoch comm
  // time exceeds a single allreduce by that factor.
  auto tt = easy_problem(36);
  auto cluster = test_cluster(4);
  SyncSgdOptions opts;
  opts.epochs = 5;
  opts.batch_size = 32;
  opts.step_size = 0.1;
  const auto r = sync_sgd(cluster, shards(cluster, tt.train, nullptr), opts);
  const double per_epoch_comm =
      r.trace.back().comm_sim_seconds / static_cast<double>(r.iterations);
  const double one_round = cluster.network().allreduce(
      (tt.train.num_features() * 3 + 1) * sizeof(double), 4);
  EXPECT_GT(per_epoch_comm, 3.0 * one_round);
}

TEST(SyncSgd, ValidatesOptions) {
  auto tt = easy_problem(37);
  auto cluster = test_cluster(2);
  SyncSgdOptions bad;
  bad.step_size = 0.0;
  EXPECT_THROW(sync_sgd(cluster, shards(cluster, tt.train, nullptr), bad), InvalidArgument);
}

// ------------------------------------------------------------ DANE / AIDE

TEST(InexactDane, DecreasesObjective) {
  auto tt = easy_problem(38);
  auto cluster = test_cluster(4);
  DaneOptions opts;
  opts.max_iterations = 4;
  opts.lambda = 1e-3;
  opts.svrg.max_outer = 3;
  opts.svrg.step_size = 2e-4;
  const auto r = inexact_dane(cluster, shards(cluster, tt.train, &tt.test), opts);
  ASSERT_EQ(r.trace.size(), 4u);
  EXPECT_LT(r.final_objective, r.trace.front().objective * 1.2);
  EXPECT_LT(r.final_objective,
            600.0 * std::log(4.0));  // below the x = 0 value
  EXPECT_EQ(r.solver, "inexact-dane");
}

TEST(InexactDane, EpochsAreFarSlowerThanGiantEpochs) {
  // The Figure-1 phenomenon: SVRG inner loops make a DANE epoch orders of
  // magnitude more expensive in simulated compute time.
  auto tt = easy_problem(39);
  auto c1 = test_cluster(4);
  auto c2 = test_cluster(4);
  GiantOptions gopts;
  gopts.max_iterations = 5;
  DaneOptions dopts;
  dopts.max_iterations = 2;
  // Half the paper's inner budget (they use 100 SVRG outer iterations);
  // already enough to show the order-of-magnitude epoch gap.
  dopts.svrg.max_outer = 50;
  const auto g = giant(c1, shards(c1, tt.train, nullptr), gopts);
  const auto d = inexact_dane(c2, shards(c2, tt.train, nullptr), dopts);
  EXPECT_GT(d.avg_epoch_sim_seconds, 10.0 * g.avg_epoch_sim_seconds);
}

TEST(Aide, RunsAndDecreasesObjective) {
  auto tt = easy_problem(40);
  auto cluster = test_cluster(4);
  DaneOptions opts;
  opts.max_iterations = 4;
  opts.accelerate = true;
  opts.tau = 1.0;
  opts.lambda = 1e-3;
  opts.svrg.max_outer = 3;
  opts.svrg.step_size = 2e-4;
  const auto r = inexact_dane(cluster, shards(cluster, tt.train, nullptr), opts);
  EXPECT_EQ(r.solver, "aide");
  EXPECT_LT(r.final_objective, 600.0 * std::log(4.0));
}

TEST(Dane, ValidatesOptions) {
  auto tt = easy_problem(41);
  auto cluster = test_cluster(2);
  DaneOptions bad;
  bad.max_iterations = 0;
  EXPECT_THROW(inexact_dane(cluster, shards(cluster, tt.train, nullptr), bad), InvalidArgument);
  bad = DaneOptions{};
  bad.accelerate = true;
  bad.tau = 0.0;
  EXPECT_THROW(inexact_dane(cluster, shards(cluster, tt.train, nullptr), bad), InvalidArgument);
}

// ------------------------------------------------------------ DiSCO

TEST(Disco, ConvergesToReferenceOptimum) {
  auto tt = easy_problem(42);
  const double lambda = 1e-3;
  const auto ref = core::solve_reference(tt.train, lambda);
  auto cluster = test_cluster(4);
  DiscoOptions opts;
  opts.max_iterations = 60;
  opts.lambda = lambda;
  opts.cg.max_iterations = 20;
  const auto r = disco(cluster, shards(cluster, tt.train, nullptr), opts);
  const double theta =
      (r.final_objective - ref.objective) / std::abs(ref.objective);
  EXPECT_LT(theta, 0.05);
  EXPECT_EQ(r.solver, "disco");
}

TEST(Disco, PaysOneAllreducePerCgIteration) {
  // DiSCO's distributed CG means its per-epoch communication exceeds
  // GIANT's 3 rounds once CG budget > 3.
  auto tt = easy_problem(43);
  auto c1 = test_cluster(8);
  auto c2 = test_cluster(8);
  DiscoOptions dopts;
  dopts.max_iterations = 5;
  dopts.cg.max_iterations = 10;
  dopts.cg.rel_tol = 1e-12;  // force the full CG budget
  GiantOptions gopts;
  gopts.max_iterations = 5;
  gopts.cg.max_iterations = 10;
  const auto d = disco(c1, shards(c1, tt.train, nullptr), dopts);
  const auto g = giant(c2, shards(c2, tt.train, nullptr), gopts);
  const double d_comm = d.trace.back().comm_sim_seconds / d.iterations;
  const double g_comm = g.trace.back().comm_sim_seconds / g.iterations;
  EXPECT_GT(d_comm, 1.5 * g_comm);
}

}  // namespace
}  // namespace nadmm::baselines
