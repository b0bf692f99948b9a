// Cross-module integration tests: the full harness (dataset → cluster →
// solver), cross-solver agreement on the same problem, the paper's
// headline qualitative claims (communication profile, epoch-cost
// ordering), and CSV trace output.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "core/reference.hpp"
#include "data/io.hpp"
#include "runner/harness.hpp"
#include "support/check.hpp"

namespace nadmm::runner {
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

ExperimentConfig small_config() {
  ExperimentConfig c;
  c.dataset = "blobs";
  c.n_train = 600;
  c.n_test = 150;
  c.e18_features = 64;  // also used as blobs dimension
  c.workers = 4;
  c.iterations = 40;
  c.lambda = 1e-3;
  return c;
}

TEST(Harness, MakeDataDispatchesAllDatasets) {
  ExperimentConfig c = small_config();
  c.n_train = 60;
  c.n_test = 20;
  for (const char* name : {"higgs", "mnist", "blobs"}) {
    c.dataset = name;
    const auto tt = make_data(c);
    EXPECT_EQ(tt.train.num_samples(), 60u) << name;
    EXPECT_EQ(tt.test.num_samples(), 20u) << name;
  }
  c.dataset = "e18";
  EXPECT_TRUE(make_data(c).train.is_sparse());
}

TEST(Harness, RunSolverDispatchesEverySolver) {
  auto c = small_config();
  c.iterations = 3;
  const auto tt = make_data(c);
  for (const char* solver : {"newton-admm", "giant", "sync-sgd", "disco"}) {
    auto cluster = make_cluster(c);
    const auto r = run_solver(solver, cluster,
      shard_for_solver(solver, tt.train, &tt.test, c), c);
    EXPECT_EQ(r.solver, solver);
    EXPECT_EQ(r.iterations, 3) << solver;
    EXPECT_FALSE(r.trace.empty()) << solver;
  }
  // DANE variants run fewer, expensive epochs.
  for (const char* solver : {"inexact-dane", "aide"}) {
    auto cluster = make_cluster(c);
    const auto r = run_solver(solver, cluster,
      shard_for_solver(solver, tt.train, &tt.test, c), c);
    EXPECT_EQ(r.solver, solver);
    EXPECT_GE(r.iterations, 1) << solver;
  }
  auto cluster = make_cluster(c);
  EXPECT_THROW(run_solver("nope", cluster,
      shard_for_solver("nope", tt.train, nullptr, c), c),
               InvalidArgument);
}

TEST(Harness, TraceCsvHasHeaderAndAllRows) {
  auto c = small_config();
  c.iterations = 5;
  const auto tt = make_data(c);
  auto cluster = make_cluster(c);
  const auto r = run_solver("newton-admm", cluster,
      shard_for_solver("newton-admm", tt.train, &tt.test, c), c);
  const std::string path = testing::TempDir() + "/nadmm_trace.csv";
  write_trace_csv(r, path);
  std::ifstream in(path);
  std::string line;
  int rows = 0;
  std::getline(in, line);
  EXPECT_NE(line.find("objective"), std::string::npos);
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 5);
  std::filesystem::remove(path);
}

TEST(Integration, SecondOrderSolversAgreeOnTheOptimum) {
  auto c = small_config();
  // Consensus ADMM's tail is linear; ~120 epochs reach θ < 0.05 on this
  // near-separable 10-class problem (F* is tiny, making θ strict).
  c.iterations = 120;
  const auto tt = make_data(c);
  const auto ref = core::solve_reference(tt.train, c.lambda);

  auto c1 = make_cluster(c);
  auto c2 = make_cluster(c);
  auto c3 = make_cluster(c);
  const auto admm = run_solver("newton-admm", c1,
      shard_for_solver("newton-admm", tt.train, nullptr, c), c);
  const auto gnt = run_solver("giant", c2,
      shard_for_solver("giant", tt.train, nullptr, c), c);
  const auto dsc = run_solver("disco", c3,
      shard_for_solver("disco", tt.train, nullptr, c), c);
  for (const auto* r : {&admm, &gnt, &dsc}) {
    const double theta =
        (r->final_objective - ref.objective) / std::abs(ref.objective);
    EXPECT_LT(theta, 0.05) << r->solver;
  }
}

TEST(Integration, AdmmUsesLessCommThanGiantPerEpoch) {
  // The paper's Remark 1: one round versus three. On a slow network the
  // per-epoch communication gap must be visible in the simulated clock.
  auto c = small_config();
  c.network = "eth1";
  c.iterations = 10;
  const auto tt = make_data(c);
  auto c1 = make_cluster(c);
  auto c2 = make_cluster(c);
  const auto admm = run_solver("newton-admm", c1,
      shard_for_solver("newton-admm", tt.train, nullptr, c), c);
  const auto gnt = run_solver("giant", c2,
      shard_for_solver("giant", tt.train, nullptr, c), c);
  const double admm_comm =
      admm.trace.back().comm_sim_seconds / admm.iterations;
  const double giant_comm = gnt.trace.back().comm_sim_seconds / gnt.iterations;
  EXPECT_LT(admm_comm, giant_comm);
}

TEST(Integration, SlowNetworkAmplifiesAdmmAdvantage) {
  // §3: "performance improvements are amplified by slower interconnects".
  auto cfg = small_config();
  cfg.iterations = 10;
  const auto tt = make_data(cfg);

  auto total_epoch_time = [&](const std::string& network,
                              const std::string& solver) {
    auto c = cfg;
    c.network = network;
    auto cluster = make_cluster(c);
    const auto r = run_solver(solver, cluster,
      shard_for_solver(solver, tt.train, nullptr, c), c);
    return r.avg_epoch_sim_seconds;
  };
  const double admm_fast = total_epoch_time("ib100", "newton-admm");
  const double admm_slow = total_epoch_time("wan", "newton-admm");
  const double giant_fast = total_epoch_time("ib100", "giant");
  const double giant_slow = total_epoch_time("wan", "giant");
  // GIANT's epoch-time blowup on the slow network exceeds Newton-ADMM's.
  EXPECT_GT(giant_slow / giant_fast, admm_slow / admm_fast);
}

TEST(Integration, SgdNeedsMoreTimeThanAdmmToGoodObjective) {
  // Figure-4 shape: to reach a near-optimal objective, Newton-ADMM's
  // simulated time is below Synchronous SGD's.
  auto c = small_config();
  c.iterations = 120;
  const auto tt = make_data(c);
  const auto ref = core::solve_reference(tt.train, c.lambda);
  const double target = ref.objective * 1.15;

  auto c1 = make_cluster(c);
  const auto admm = run_solver("newton-admm", c1,
      shard_for_solver("newton-admm", tt.train, nullptr, c), c);

  auto sgd_opts = sgd_options(c);
  sgd_opts.step_size = 0.5;  // generous, pre-tuned step
  sgd_opts.batch_size = 32;
  auto c2 = make_cluster(c);
  const auto sgd = baselines::sync_sgd(c2, shards(c2, tt.train, nullptr), sgd_opts);

  const double t_admm = admm.sim_time_to_objective(target);
  const double t_sgd = sgd.sim_time_to_objective(target);
  ASSERT_GT(t_admm, 0.0);
  if (t_sgd > 0.0) {
    EXPECT_LT(t_admm, t_sgd);
  }  // SGD never reaching the target is also consistent with the paper.
}

TEST(Integration, SparsePipelineEndToEnd) {
  ExperimentConfig c;
  c.dataset = "e18";
  c.n_train = 400;
  c.n_test = 100;
  c.e18_features = 256;
  c.workers = 4;
  c.iterations = 15;
  c.lambda = 1e-3;
  const auto tt = make_data(c);
  ASSERT_TRUE(tt.train.is_sparse());
  auto c1 = make_cluster(c);
  auto c2 = make_cluster(c);
  const auto admm = run_solver("newton-admm", c1,
      shard_for_solver("newton-admm", tt.train, &tt.test, c), c);
  const auto gnt = run_solver("giant", c2,
      shard_for_solver("giant", tt.train, &tt.test, c), c);
  EXPECT_GT(admm.final_test_accuracy, 0.10);
  EXPECT_GT(gnt.final_test_accuracy, 0.10);
  EXPECT_LT(admm.final_objective, admm.trace.front().objective);
}

TEST(Integration, StreamedLibsvmShardsTrainIdenticallyToMaterialized) {
  // Build a libsvm file, then run the same scenario two ways: zero-copy
  // views over the materialized matrix, and per-rank shards streamed
  // straight from disk. The shards are bit-identical, so training is too.
  const std::string path = testing::TempDir() + "/nadmm_stream_equiv.libsvm";
  {
    const auto tt = data::make_e18_like(300, 60, 96, 21);
    std::ofstream probe(path);  // save_libsvm opens itself; just reserve
    probe.close();
    data::save_libsvm(tt.train, path);
    std::ofstream app(path, std::ios::app);
    // Append the test rows so one file carries both splits.
    const std::string tmp = path + ".test";
    data::save_libsvm(tt.test, tmp);
    std::ifstream in(tmp);
    app << in.rdbuf();
    in.close();
    std::filesystem::remove(tmp);
  }
  ExperimentConfig c = small_config();
  c.dataset = "libsvm:" + path;
  c.n_train = 300;
  c.n_test = 60;
  c.workers = 4;
  c.iterations = 6;
  c.omp_threads = 1;

  const data::DatasetKey key = dataset_key(c);
  const data::ShardPlan plan = shard_plan(c);
  const data::TrainTest full = data::generate_dataset(key);
  const data::ShardedDataset views = data::make_sharded(full.train, &full.test, plan);
  const data::ShardedDataset streamed = data::generate_sharded_dataset(key, plan);

  // Every solver scores its epochs on the rank shards, so the two runs
  // agree bitwise on every trace row: objective, accuracy (integer hit
  // counts) and simulated time — the coordinator of the stale variants
  // never touches a worker's forward cache, so streamed runs are priced
  // exactly like materialized ones.
  for (const char* solver : {"newton-admm", "async-admm", "stale-sync-admm"}) {
    auto cluster_a = make_cluster(c);
    auto cluster_b = make_cluster(c);
    const auto a = run_solver(solver, cluster_a, views, c);
    const auto b = run_solver(solver, cluster_b, streamed, c);
    ASSERT_EQ(a.trace.size(), b.trace.size()) << solver;
    for (std::size_t k = 0; k < a.trace.size(); ++k) {
      EXPECT_EQ(a.trace[k].objective, b.trace[k].objective)
          << solver << " epoch " << k;
      EXPECT_EQ(a.trace[k].test_accuracy, b.trace[k].test_accuracy)
          << solver << " epoch " << k;
      EXPECT_EQ(a.trace[k].sim_seconds, b.trace[k].sim_seconds)
          << solver << " epoch " << k;
    }
    EXPECT_EQ(a.final_objective, b.final_objective) << solver;
    ASSERT_EQ(a.x.size(), b.x.size());
    for (std::size_t j = 0; j < a.x.size(); ++j) {
      ASSERT_EQ(a.x[j], b.x[j]) << solver << " coeff " << j;
    }
  }
  std::filesystem::remove(path);
}

TEST(Integration, StrongScalingReducesEpochTime) {
  // Figure-2 shape: with the total problem fixed, more workers → smaller
  // average epoch time (compute dominates at these sizes).
  auto c = small_config();
  c.dataset = "mnist";
  c.n_train = 2000;
  c.n_test = 200;
  c.iterations = 5;
  const auto tt = make_data(c);
  double prev = 1e100;
  for (int workers : {1, 2, 4, 8}) {
    auto cc = c;
    cc.workers = workers;
    auto cluster = make_cluster(cc);
    const auto r = run_solver("newton-admm", cluster,
      shard_for_solver("newton-admm", tt.train, nullptr, cc), cc);
    EXPECT_LT(r.avg_epoch_sim_seconds, prev) << "workers=" << workers;
    prev = r.avg_epoch_sim_seconds;
  }
}

TEST(Integration, WeakScalingKeepsEpochTimeRoughlyConstant) {
  // Figure-2 weak-scaling shape: per-worker shard fixed → epoch time
  // roughly flat (within 2x here; the paper sees near-constant).
  auto base = small_config();
  base.dataset = "mnist";
  base.iterations = 5;
  double t1 = 0.0;
  for (int workers : {1, 4}) {
    auto c = base;
    c.workers = workers;
    c.n_train = 500 * static_cast<std::size_t>(workers);
    c.n_test = 100;
    const auto tt = make_data(c);
    auto cluster = make_cluster(c);
    const auto r = run_solver("newton-admm", cluster,
      shard_for_solver("newton-admm", tt.train, nullptr, c), c);
    if (workers == 1) {
      t1 = r.avg_epoch_sim_seconds;
    } else {
      // "Roughly constant": per-epoch local work is fixed, but line-search
      // and CG effort can vary with the (different) 4-worker dataset, so
      // allow a generous 3x band around the single-worker time.
      EXPECT_LT(r.avg_epoch_sim_seconds, 3.0 * t1);
      EXPECT_GT(r.avg_epoch_sim_seconds, t1 / 3.0);
    }
  }
}

}  // namespace
}  // namespace nadmm::runner
