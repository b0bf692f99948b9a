// Stress and scale tests: the 16-rank paths the paper's E18 experiments
// use, heavy collective traffic, cluster reuse across many runs, and a
// larger end-to-end solve — slower than unit tests, still seconds.
#include <gtest/gtest.h>

#include <atomic>

#include "comm/cluster.hpp"
#include "core/newton_admm.hpp"
#include "data/generators.hpp"
#include "runner/harness.hpp"
#include "support/rng.hpp"

namespace nadmm {
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

TEST(Stress, SixteenRankCollectiveStorm) {
  comm::SimCluster cluster(16, la::DeviceModel{"t", 100.0},
                           comm::infiniband_100g());
  cluster.run([&](comm::RankCtx& ctx) {
    Rng rng(static_cast<std::uint64_t>(ctx.rank()));
    std::vector<double> v(257);
    std::vector<double> gathered(16 * 16);
    for (int round = 0; round < 200; ++round) {
      for (double& e : v) e = static_cast<double>(ctx.rank()) + e * 0.5;
      ctx.allreduce_sum(v);
      const double check = ctx.allreduce_max(v[0]);
      EXPECT_DOUBLE_EQ(check, v[0]);  // allreduce made v identical
      if (round % 10 == 0) {
        ctx.gather(std::span<const double>(v).subspan(0, 16), gathered, 0);
        ctx.broadcast(gathered, 0);
        ASSERT_EQ(gathered[16 * 15 + 3], v[3]);  // v is identical everywhere
      }
    }
  });
}

TEST(Stress, ClusterReuseAcrossManyRuns) {
  comm::SimCluster cluster(6, la::DeviceModel{"t", 100.0},
                           comm::ideal_network());
  std::atomic<int> total{0};
  for (int run = 0; run < 30; ++run) {
    cluster.run([&](comm::RankCtx& ctx) {
      const double s = ctx.allreduce_sum(1.0);
      EXPECT_DOUBLE_EQ(s, 6.0);
      ++total;
    });
  }
  EXPECT_EQ(total.load(), 180);
}

TEST(Stress, SixteenRankNewtonAdmmOnSparseData) {
  // The paper's Figure-5 configuration shape: 16 workers, sparse E18-like.
  auto tt = data::make_e18_like(800, 160, 256, 5);
  comm::SimCluster cluster(16, la::DeviceModel{"t", 100.0},
                           comm::infiniband_100g());
  core::NewtonAdmmOptions opts;
  opts.max_iterations = 15;
  opts.lambda = 1e-3;
  const auto r = core::newton_admm(cluster, shards(cluster, tt.train, &tt.test), opts);
  ASSERT_EQ(r.trace.size(), 15u);
  EXPECT_LT(r.final_objective, r.trace.front().objective);
  EXPECT_GT(r.final_test_accuracy, 1.0 / 20.0);  // above chance
}

TEST(Stress, UnevenShardSizesStillConverge) {
  // 7 ranks over 100 samples: shards of 15 and 14 rows; collectives must
  // stay consistent despite unequal local work.
  auto tt = data::make_blobs(100, 20, 6, 3, 4.0, 1.0, 8);
  comm::SimCluster cluster(7, la::DeviceModel{"t", 100.0},
                           comm::infiniband_100g());
  core::NewtonAdmmOptions opts;
  opts.max_iterations = 30;
  opts.lambda = 1e-2;
  const auto r = core::newton_admm(cluster, shards(cluster, tt.train, nullptr), opts);
  EXPECT_LT(r.final_objective, 100.0 * std::log(3.0));
}

TEST(Stress, MoreRanksThanInterestingWork) {
  // 12 ranks over 24 samples — two rows each; the degenerate-but-legal
  // configuration must not deadlock or corrupt the consensus.
  auto tt = data::make_blobs(24, 8, 4, 2, 4.0, 0.5, 9);
  comm::SimCluster cluster(12, la::DeviceModel{"t", 100.0},
                           comm::infiniband_100g());
  core::NewtonAdmmOptions opts;
  opts.max_iterations = 10;
  opts.lambda = 1e-2;
  const auto r = core::newton_admm(cluster, shards(cluster, tt.train, nullptr), opts);
  EXPECT_EQ(r.iterations, 10);
  EXPECT_TRUE(std::isfinite(r.final_objective));
}

TEST(Stress, RepeatedSolverRunsOnOneClusterViaHarness) {
  runner::ExperimentConfig c;
  c.dataset = "blobs";
  c.n_train = 200;
  c.n_test = 40;
  c.e18_features = 12;
  c.workers = 4;
  c.iterations = 5;
  const auto tt = runner::make_data(c);
  auto cluster = runner::make_cluster(c);
  // The same cluster object must serve several solver runs back to back.
  for (const char* solver : {"newton-admm", "giant", "sync-sgd", "disco"}) {
    const auto r = runner::run_solver(solver, cluster,
      runner::shard_for_solver(solver, tt.train, &tt.test, c), c);
    EXPECT_EQ(r.iterations, 5) << solver;
    EXPECT_TRUE(std::isfinite(r.final_objective)) << solver;
  }
}

}  // namespace
}  // namespace nadmm
