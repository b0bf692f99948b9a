// Tests for the solver registry (src/runner/registry.*): every built-in
// name resolves, unknown names are rejected with a helpful message, and
// the uniform factory signature runs both solver families, and a run's
// trace does not depend on the OpenMP thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "runner/registry.hpp"
#include "support/check.hpp"

namespace nadmm::runner {
namespace {

ExperimentConfig tiny_config() {
  ExperimentConfig c;
  c.dataset = "blobs";
  c.n_train = 120;
  c.n_test = 40;
  c.e18_features = 8;
  c.workers = 2;
  c.iterations = 3;
  c.lambda = 1e-3;
  c.omp_threads = 1;
  return c;
}

TEST(SolverRegistry, ResolvesEveryBuiltinName) {
  const auto& registry = SolverRegistry::instance();
  for (const char* name :
       {"newton-admm", "async-admm", "stale-sync-admm", "giant", "sync-sgd",
        "inexact-dane", "aide", "disco", "newton-cg", "gd", "momentum",
        "adagrad", "adam"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
    EXPECT_EQ(registry.info(name).name, name);
  }
}

TEST(SolverRegistry, KindsAreClassified) {
  const auto& registry = SolverRegistry::instance();
  EXPECT_EQ(registry.info("newton-admm").kind, SolverKind::kDistributed);
  EXPECT_EQ(registry.info("disco").kind, SolverKind::kDistributed);
  EXPECT_EQ(registry.info("newton-cg").kind, SolverKind::kSingleNode);
  EXPECT_EQ(registry.info("adam").kind, SolverKind::kSingleNode);
  EXPECT_EQ(to_string(SolverKind::kDistributed), "distributed");
  EXPECT_EQ(to_string(SolverKind::kSingleNode), "single-node");
}

TEST(SolverRegistry, CommClassAndKnobsComeFromTheRegistry) {
  const auto& registry = SolverRegistry::instance();
  EXPECT_EQ(registry.info("newton-admm").comm_class, CommClass::kSynchronous);
  EXPECT_EQ(registry.info("async-admm").comm_class, CommClass::kAsynchronous);
  EXPECT_EQ(registry.info("stale-sync-admm").comm_class,
            CommClass::kAsynchronous);
  EXPECT_EQ(registry.info("adam").comm_class, CommClass::kNone);
  EXPECT_EQ(to_string(CommClass::kSynchronous), "sync");
  EXPECT_EQ(to_string(CommClass::kAsynchronous), "async");
  EXPECT_EQ(to_string(CommClass::kNone), "-");
  // Every distributed solver documents its knobs; the async pair names
  // its staleness/barrier controls so `nadmm list` cannot drift. The
  // --straggler knob applies to every distributed solver (make_cluster
  // builds each one's ranks), so each one must list it.
  const auto has = [](const SolverInfo& info, const std::string& knob) {
    const auto& k = info.knob_names;
    return std::find(k.begin(), k.end(), knob) != k.end();
  };
  for (const auto& info : registry.list()) {
    if (info.kind == SolverKind::kDistributed) {
      EXPECT_FALSE(info.knob_names.empty()) << info.name;
      EXPECT_TRUE(has(info, "straggler")) << info.name;
    }
  }
  EXPECT_TRUE(has(registry.info("async-admm"), "staleness"));
  EXPECT_TRUE(has(registry.info("stale-sync-admm"), "sync-every"));
}

TEST(SolverRegistry, KnobNamesResolveToTypedMetadata) {
  // Every registered knob name must resolve through the shared option
  // tables — knobs() throws if the registry references a flag that the
  // CLI does not actually define.
  const auto& registry = SolverRegistry::instance();
  for (const auto& info : registry.list()) {
    const auto knobs = info.knobs();
    ASSERT_EQ(knobs.size(), info.knob_names.size()) << info.name;
    for (const auto& k : knobs) {
      EXPECT_FALSE(k.default_value.empty()) << info.name << " --" << k.name;
      EXPECT_FALSE(k.help.empty()) << info.name << " --" << k.name;
    }
  }
  const auto staleness = describe_knob("staleness");
  EXPECT_EQ(to_string(staleness.type), "int");
  EXPECT_EQ(staleness.default_value, "4");
  EXPECT_THROW(static_cast<void>(describe_knob("no-such-knob")),
               InvalidArgument);
  EXPECT_EQ(registry.info("sync-sgd").knobs_csv(),
            "sgd-batch,sgd-step,device,straggler");
}

TEST(SolverRegistry, RegistryJsonListsEverySolverWithKnobs) {
  const std::string json = registry_json();
  for (const auto& info : SolverRegistry::instance().list()) {
    EXPECT_NE(json.find("\"name\": \"" + info.name + "\""), std::string::npos)
        << info.name;
  }
  // Typed knob metadata is embedded, not just the names.
  EXPECT_NE(json.find("\"default\": \"sps\""), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"double\""), std::string::npos);
}

TEST(SolverRegistry, ListIsSortedAndDescribed) {
  const auto infos = SolverRegistry::instance().list();
  ASSERT_FALSE(infos.empty());
  for (std::size_t i = 0; i < infos.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(infos[i - 1].name, infos[i].name);
    }
    EXPECT_FALSE(infos[i].description.empty()) << infos[i].name;
  }
}

TEST(SolverRegistry, RejectsUnknownNames) {
  const auto& registry = SolverRegistry::instance();
  EXPECT_FALSE(registry.contains("sgd"));
  EXPECT_THROW(static_cast<void>(registry.info("sgd")), InvalidArgument);
  try {
    static_cast<void>(registry.info("bogus-solver"));
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus-solver"), std::string::npos);
    EXPECT_NE(what.find("newton-admm"), std::string::npos)
        << "error should list the known solvers";
  }
}

TEST(SolverRegistry, RejectsDuplicateAndEmptyRegistration) {
  auto& registry = SolverRegistry::instance();
  const auto factory = [](comm::SimCluster&, const data::ShardedDataset&,
                          const ExperimentConfig&) {
    return core::RunResult{};
  };
  EXPECT_THROW(registry.add({"newton-admm", SolverKind::kDistributed, "dup",
                             CommClass::kSynchronous, {}},
                            factory),
               InvalidArgument);
  EXPECT_THROW(registry.add({"", SolverKind::kDistributed, "unnamed",
                             CommClass::kSynchronous, {}},
                            factory),
               InvalidArgument);
}

TEST(SolverRegistry, RunsDistributedSolver) {
  const auto c = tiny_config();
  const auto tt = make_data(c);
  auto cluster = make_cluster(c);
  const auto r = SolverRegistry::instance().run("newton-admm", cluster,
      shard_for_solver("newton-admm", tt.train, &tt.test, c), c);
  EXPECT_EQ(r.solver, "newton-admm");
  EXPECT_GT(r.iterations, 0);
  EXPECT_FALSE(r.trace.empty());
  EXPECT_TRUE(std::isfinite(r.final_objective));
  EXPECT_GT(r.total_sim_seconds, 0.0);
}

TEST(SolverRegistry, EverySolverKeepsAConsistentLedger) {
  // Every solver records its epochs through one ledger, so the totals
  // mirror the last trace entry and every rank reports its wait,
  // whichever solver ran (single-node solvers run on one rank).
  const auto c = tiny_config();
  const auto tt = make_data(c);
  int checked = 0;
  for (const auto& info : SolverRegistry::instance().list()) {
    SCOPED_TRACE(info.name);
    auto cluster = make_cluster(c);
    const auto sharded = shard_for_solver(info.name, tt.train, &tt.test, c);
    const auto r =
        SolverRegistry::instance().run(info.name, cluster, sharded, c);
    ++checked;
    ASSERT_GT(r.iterations, 0);
    ASSERT_EQ(r.trace.size(), static_cast<std::size_t>(r.iterations));
    for (std::size_t i = 0; i < r.trace.size(); ++i) {
      EXPECT_EQ(r.trace[i].iteration, static_cast<int>(i) + 1);
    }
    EXPECT_EQ(r.final_objective, r.trace.back().objective);
    EXPECT_EQ(r.final_test_accuracy, r.trace.back().test_accuracy);
    EXPECT_EQ(r.total_sim_seconds, r.trace.back().sim_seconds);
    EXPECT_EQ(r.avg_epoch_sim_seconds, r.total_sim_seconds / r.iterations);
    EXPECT_EQ(r.rank_wait_seconds.size(),
              static_cast<std::size_t>(sharded.parts()));
  }
  EXPECT_EQ(checked, static_cast<int>(SolverRegistry::instance().list().size()));
}

/// A trace row's fields bit for bit, wall_seconds (host time) left out.
std::vector<std::uint64_t> row_bits(const core::IterationStats& s) {
  std::vector<std::uint64_t> out{static_cast<std::uint64_t>(s.iteration)};
  for (const double v :
       {s.objective, s.test_accuracy, s.sim_seconds, s.epoch_sim_seconds,
        s.comm_sim_seconds, s.primal_residual, s.dual_residual, s.rho_mean}) {
    out.push_back(std::bit_cast<std::uint64_t>(v));
  }
  return out;
}

std::vector<std::uint64_t> vector_bits(const std::vector<double>& x) {
  std::vector<std::uint64_t> out;
  for (const double v : x) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

TEST(SolverRegistry, TracesIgnoreThreadCount) {
  // Every kernel and reduction gives the bits of one thread at any team
  // size, so a run's iterate and trace do too. The shape clears both
  // parallel thresholds: each rank's 2000 rows × 9 score columns are
  // above kParallelRows (2^14), and its dense products above
  // kParallelFlops (2^18).
  ExperimentConfig c;
  c.dataset = "mnist";
  c.n_train = 4000;
  c.n_test = 100;
  c.workers = 2;
  c.iterations = 2;
  const auto tt = make_data(c);
  for (const char* name : {"newton-admm", "giant", "async-admm"}) {
    SCOPED_TRACE(name);
    const auto sharded = shard_for_solver(name, tt.train, &tt.test, c);
    const auto run_at = [&](int threads) {
      ExperimentConfig config = c;
      config.omp_threads = threads;
      auto cluster = make_cluster(config);
      return SolverRegistry::instance().run(name, cluster, sharded, config);
    };
    const auto want = run_at(1);
    for (const int threads : {2, 3, 8}) {
      SCOPED_TRACE("omp_threads=" + std::to_string(threads));
      const auto got = run_at(threads);
      EXPECT_EQ(vector_bits(got.x), vector_bits(want.x));
      ASSERT_EQ(got.trace.size(), want.trace.size());
      for (std::size_t i = 0; i < got.trace.size(); ++i) {
        EXPECT_EQ(row_bits(got.trace[i]), row_bits(want.trace[i]))
            << "iteration " << i + 1;
      }
    }
  }
}

TEST(SolverRegistry, SingleNodeSolversTimeEveryIteration) {
  // Each single-node iteration is an epoch of a one-rank cluster run:
  // every row carries its own simulated time and test accuracy, so the
  // time to an objective reached early is that row's time, not 0.
  auto c = tiny_config();
  c.iterations = 5;
  const auto tt = make_data(c);
  for (const char* name : {"newton-cg", "gd"}) {
    SCOPED_TRACE(name);
    auto cluster = make_cluster(c);
    const auto r = SolverRegistry::instance().run(
        name, cluster, shard_for_solver(name, tt.train, &tt.test, c), c);
    ASSERT_GE(r.trace.size(), 3u);
    double previous = 0.0;
    for (const auto& it : r.trace) {
      EXPECT_GT(it.sim_seconds, previous) << "iteration " << it.iteration;
      EXPECT_GT(it.epoch_sim_seconds, 0.0);
      EXPECT_GE(it.test_accuracy, 0.0);
      EXPECT_LE(it.test_accuracy, 1.0);
      previous = it.sim_seconds;
    }
    EXPECT_LT(r.trace[1].objective, r.trace[0].objective);
    const double early = r.sim_time_to_objective(r.trace[1].objective);
    EXPECT_EQ(early, r.trace[1].sim_seconds);
    EXPECT_GT(early, 0.0);
    EXPECT_LT(early, r.total_sim_seconds);
  }
}

TEST(SolverRegistry, RunsSingleNodeSolverWithFlopDerivedTime) {
  auto c = tiny_config();
  c.iterations = 5;
  const auto tt = make_data(c);
  auto cluster = make_cluster(c);
  const auto r = SolverRegistry::instance().run("newton-cg", cluster,
      shard_for_solver("newton-cg", tt.train, &tt.test, c), c);
  EXPECT_EQ(r.solver, "newton-cg");
  EXPECT_GT(r.iterations, 0);
  ASSERT_FALSE(r.trace.empty());
  // Objectives decrease on this convex problem.
  EXPECT_LE(r.trace.back().objective, r.trace.front().objective);
  EXPECT_GT(r.total_sim_seconds, 0.0);
  EXPECT_GE(r.final_test_accuracy, 0.0);
}

TEST(SolverRegistry, RunThrowsOnUnknownName) {
  const auto c = tiny_config();
  const auto tt = make_data(c);
  auto cluster = make_cluster(c);
  EXPECT_THROW(static_cast<void>(SolverRegistry::instance().run("no-such-solver", cluster,
      shard_for_solver("no-such-solver", tt.train, &tt.test, c), c)),
               InvalidArgument);
  // The harness entry point routes through the registry too.
  EXPECT_THROW(static_cast<void>(
                   run_solver("no-such-solver", cluster,
      shard_for_solver("no-such-solver", tt.train, &tt.test, c), c)),
               InvalidArgument);
}

}  // namespace
}  // namespace nadmm::runner
