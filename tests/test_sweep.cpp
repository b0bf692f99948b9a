// Tests for the sweep scheduler (src/runner/sweep.*): spec parsing, grid
// expansion order, deterministic aggregation under the thread pool,
// per-scenario failure capture, dataset-cache sharing, and
// journal-based resume.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "helpers.hpp"
#include "runner/registry.hpp"
#include "runner/sweep.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"

namespace nadmm::runner {
namespace {

SweepSpec tiny_spec() {
  SweepSpec spec;
  spec.solvers = {"newton-admm", "giant"};
  spec.datasets = {"blobs"};
  spec.workers = {2};
  spec.lambdas = {1e-3, 1e-2};
  spec.base.n_train = 120;
  spec.base.n_test = 40;
  spec.base.e18_features = 8;
  spec.base.iterations = 3;
  return spec;
}

// ------------------------------------------------------------ parsing

TEST(SweepSpecParsing, AxisListsAndScalars) {
  SweepSpec spec;
  apply_sweep_assignment(spec, "solvers", "newton-admm, giant ,sync-sgd");
  apply_sweep_assignment(spec, "workers", "2, 4");
  apply_sweep_assignment(spec, "lambdas", "1e-5,1e-4");
  apply_sweep_assignment(spec, "n_train", "500");
  apply_sweep_assignment(spec, "cg_tol", "1e-6");
  EXPECT_EQ(spec.solvers,
            (std::vector<std::string>{"newton-admm", "giant", "sync-sgd"}));
  EXPECT_EQ(spec.workers, (std::vector<int>{2, 4}));
  EXPECT_EQ(spec.lambdas, (std::vector<double>{1e-5, 1e-4}));
  EXPECT_EQ(spec.base.n_train, 500u);
  EXPECT_DOUBLE_EQ(spec.base.cg_tol, 1e-6);
}

TEST(SweepSpecParsing, RejectsUnknownKeysAndMalformedValues) {
  SweepSpec spec;
  EXPECT_THROW(apply_sweep_assignment(spec, "solver", "giant"),
               InvalidArgument);
  EXPECT_THROW(apply_sweep_assignment(spec, "workers", "four"),
               InvalidArgument);
  EXPECT_THROW(apply_sweep_assignment(spec, "lambdas", "1e-5x"),
               InvalidArgument);
  EXPECT_THROW(apply_sweep_assignment(spec, "n_train", ""), InvalidArgument);
  // Every rank runs one device on its contiguous shard: there is no
  // shard-plan key and no per-rank device list.
  EXPECT_THROW(apply_sweep_assignment(spec, "partitions", "contiguous"),
               InvalidArgument);
  EXPECT_THROW(apply_sweep_assignment(spec, "devices", "p100+cpu"),
               InvalidArgument);
}

TEST(SweepSpecParsing, NumericFlagsKeepEveryDigit) {
  // Flags pass their raw text to the spec parser: 1e-7 and 5e-7 must not
  // be truncated on the way (a fixed 6-decimal rendering turns both into
  // 0, silently disabling the target and the dispatch cost).
  CliParser cli("nadmm sweep");
  sweep_key_options().register_into(cli);
  const char* argv[] = {"sweep", "--objective-target=1e-7",
                        "--dispatch-overhead=5e-7"};
  ASSERT_TRUE(cli.parse(3, argv));
  SweepSpec from_flags;
  apply_sweep_flags(from_flags, cli);
  EXPECT_EQ(from_flags.base.objective_target, 1e-7);
  EXPECT_EQ(from_flags.serve.dispatch_overhead_s, 5e-7);

  const std::string path = testing::TempDir() + "/nadmm_sweep_flags.sweep";
  {
    std::ofstream out(path);
    out << "objective_target = 1e-7\ndispatch_overhead = 5e-7\n";
  }
  EXPECT_EQ(spec_fingerprint(from_flags),
            spec_fingerprint(parse_sweep_file(path)));
  EXPECT_NE(spec_fingerprint(from_flags), spec_fingerprint(SweepSpec{}));
  std::filesystem::remove(path);
}

TEST(SweepSpecParsing, EveryKeyIsAFlagAndEmptyKeepsTheSpecValue) {
  CliParser cli("nadmm sweep");
  sweep_key_options().register_into(cli);
  const char* argv[] = {"sweep", "--cg-iterations=7", "--cg-tol=1e-9",
                        "--line-search-iterations=3", "--workers=2,4",
                        "--batch-policies=size:8"};
  ASSERT_TRUE(cli.parse(6, argv));
  SweepSpec spec = tiny_spec();
  apply_sweep_flags(spec, cli);
  EXPECT_EQ(spec.base.cg_iterations, 7);
  EXPECT_EQ(spec.base.cg_tol, 1e-9);
  EXPECT_EQ(spec.base.line_search_iterations, 3);
  EXPECT_EQ(spec.workers, (std::vector<int>{2, 4}));
  EXPECT_EQ(spec.batch_policies, (std::vector<std::string>{"size:8"}));
  // Unset flags keep what the spec said.
  EXPECT_EQ(spec.solvers, tiny_spec().solvers);
  EXPECT_EQ(spec.base.n_train, tiny_spec().base.n_train);
  // Flag values go through the same validators as spec-file values.
  const char* bad[] = {"sweep", "--workers=0"};
  CliParser bad_cli("nadmm sweep");
  sweep_key_options().register_into(bad_cli);
  ASSERT_TRUE(bad_cli.parse(2, bad));
  EXPECT_THROW(apply_sweep_flags(spec, bad_cli), InvalidArgument);
}

TEST(SweepSpecParsing, ParsesSpecFileWithComments) {
  const std::string path = testing::TempDir() + "/nadmm_sweep_spec.txt";
  {
    std::ofstream out(path);
    out << "# a comment\n"
        << "solvers = newton-admm, sync-sgd\n"
        << "datasets = blobs   # trailing comment\n"
        << "workers = 2,4\n"
        << "iterations = 7\n"
        << "\n";
  }
  const SweepSpec spec = parse_sweep_file(path);
  EXPECT_EQ(spec.solvers,
            (std::vector<std::string>{"newton-admm", "sync-sgd"}));
  EXPECT_EQ(spec.datasets, (std::vector<std::string>{"blobs"}));
  EXPECT_EQ(spec.workers, (std::vector<int>{2, 4}));
  EXPECT_EQ(spec.base.iterations, 7);
  std::filesystem::remove(path);
}

TEST(SweepSpecParsing, BadSpecLineAndMissingFileThrow) {
  const std::string path = testing::TempDir() + "/nadmm_bad_spec.txt";
  {
    std::ofstream out(path);
    out << "solvers newton-admm\n";
  }
  EXPECT_THROW(static_cast<void>(parse_sweep_file(path)), InvalidArgument);
  std::filesystem::remove(path);
  EXPECT_THROW(static_cast<void>(parse_sweep_file(path)), RuntimeError);
}

TEST(SweepSpecParsing, EveryCommittedSpecParsesAndExpands) {
  // Scenario counts the specs' header comments state.
  const std::map<std::string, std::size_t> stated = {
      {"ablation_cg_budget", 1}, {"ablation_interconnect", 16},
      {"ablation_penalty", 3},   {"async_grid", 18},
      {"fig2_epoch_time", 32},   {"fig4_sgd", 8},
      {"quick", 12},             {"serving_grid", 18},
      {"solver_grid", 80},       {"trace_example", 2},
  };
  std::set<std::string> seen;
  for (const auto& entry :
       std::filesystem::directory_iterator(NADMM_SWEEPS_DIR)) {
    if (entry.path().extension() != ".sweep") continue;
    const std::string name = entry.path().stem().string();
    SCOPED_TRACE(name);
    const auto scenarios =
        expand_scenarios(parse_sweep_file(entry.path().string()));
    EXPECT_FALSE(scenarios.empty());
    if (const auto it = stated.find(name); it != stated.end()) {
      EXPECT_EQ(scenarios.size(), it->second);
    }
    seen.insert(name);
  }
  for (const auto& [name, count] : stated) {
    EXPECT_EQ(seen.count(name), 1u) << name << ".sweep is missing";
  }
}

TEST(SweepSpecParsing, CommittedSpecFingerprintsArePinned) {
  // Resume journals and docs/figures/metadata.json record these: a key
  // renamed or reordered, or a base default changed, moves them.
  const std::map<std::string, std::string> pinned = {
      {"ablation_cg_budget", "ce5d098bcd6fb1f8"},
      {"ablation_interconnect", "6b7b65c31a117c5c"},
      {"ablation_penalty", "eed359236bec12e7"},
      {"async_grid", "ecf3912d3c0c13c0"},
      {"fault_grid", "f3981d6df9ee42eb"},
      {"fig1_solvers", "c6362835c6791cc3"},
      {"fig2_epoch_time", "948b72ab6e632c20"},
      {"fig3_speedup", "f7ef7ca61254a2f3"},
      {"fig4_sgd", "711453280c2d7c10"},
      {"fig5_weak_scaling", "5ddf754c16042be9"},
      {"quick", "c160edf2090c4f03"},
      {"serving_grid", "8e9fe68f80443fbb"},
      {"solver_grid", "a82bc2a4f6888a57"},
      {"trace_example", "e6d378dab468cf6f"},
  };
  std::set<std::string> seen;
  for (const auto& entry :
       std::filesystem::directory_iterator(NADMM_SWEEPS_DIR)) {
    if (entry.path().extension() != ".sweep") continue;
    const std::string name = entry.path().stem().string();
    ASSERT_EQ(pinned.count(name), 1u) << name << ".sweep has no pinned value";
    EXPECT_EQ(spec_fingerprint(parse_sweep_file(entry.path().string())),
              pinned.at(name))
        << name;
    seen.insert(name);
  }
  EXPECT_EQ(seen.size(), pinned.size());
}

// Jepsen-style spec fuzzing: every mutant of a committed spec either
// fails with a typed error or parses, expands and fingerprints.
TEST(SweepSpecParsing, MutatedCommittedSpecsFailTypedOrExpand) {
  constexpr std::uint64_t kTrialsPerSpec = 300;
  const std::string path = testing::TempDir() + "/nadmm_fuzz.sweep";
  // Sorted, so each spec gets the same seeds on every file system.
  std::set<std::filesystem::path> specs;
  for (const auto& entry :
       std::filesystem::directory_iterator(NADMM_SWEEPS_DIR)) {
    if (entry.path().extension() == ".sweep") specs.insert(entry.path());
  }
  std::uint64_t seed = 0x5ee9f00d;
  std::size_t expanded = 0, trials = 0;
  for (const auto& spec_path : specs) {
    const std::string name = spec_path.stem().string();
    std::string valid;
    {
      std::ifstream in(spec_path);
      valid.assign(std::istreambuf_iterator<char>(in), {});
    }
    for (std::uint64_t k = 0; k < kTrialsPerSpec; ++k, ++seed, ++trials) {
      {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << test::mutate(valid, seed, "=,#:+-.e0123456789 \n");
      }
      try {
        const SweepSpec spec = parse_sweep_file(path);
        EXPECT_FALSE(expand_scenarios(spec).empty())
            << name << " seed " << seed;
        EXPECT_EQ(spec_fingerprint(spec).size(), 16u)
            << name << " seed " << seed;
        ++expanded;
      } catch (const RuntimeError&) {
      } catch (const InvalidArgument&) {
      } catch (const std::exception& e) {
        FAIL() << name << " seed " << seed << ": untyped " << e.what();
      }
    }
  }
  // The mix must exercise both outcomes, or the fuzzer tests nothing.
  EXPECT_GT(expanded, trials / 10);
  EXPECT_LT(expanded, trials);
  std::filesystem::remove(path);
}

// ------------------------------------------------------------ expansion

TEST(SweepExpansion, RejectsAFaultTheSolverDoesNotRead) {
  // A synchronous solver has no wire to drop frames on: its fault rows
  // would repeat the fault-free run under another label.
  SweepSpec spec = tiny_spec();  // newton-admm, giant
  spec.faults = {"none", "drop:0.1"};
  try {
    static_cast<void>(expand_scenarios(spec));
    FAIL() << "a fault on newton-admm was expanded";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("newton-admm"), std::string::npos) << what;
    EXPECT_NE(what.find("fault"), std::string::npos) << what;
  }
  spec.solvers = {"async-admm", "stale-sync-admm"};
  EXPECT_EQ(expand_scenarios(spec).size(), 2u * 2u * 2u);
  // `nadmm run` applies the same check to its one config.
  ExperimentConfig config;
  config.fault = "drop:0.1";
  EXPECT_THROW(reject_unread_knobs("giant", config), InvalidArgument);
  reject_unread_knobs("async-admm", config);
  config.fault = "none";
  reject_unread_knobs("giant", config);
}

TEST(SweepExpansion, ProducesFullGridInDeterministicOrder) {
  SweepSpec spec = tiny_spec();
  spec.networks = {"ib100", "eth10"};
  const auto scenarios = expand_scenarios(spec);
  ASSERT_EQ(scenarios.size(), 2u * 2u * 2u);  // solvers × networks × lambdas
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_EQ(scenarios[i].index, static_cast<int>(i));
  }
  // Rightmost axis (lambda) varies fastest; solver slowest.
  EXPECT_EQ(scenarios[0].solver, "newton-admm");
  EXPECT_EQ(scenarios[0].config.network, "ib100");
  EXPECT_DOUBLE_EQ(scenarios[0].config.lambda, 1e-3);
  EXPECT_DOUBLE_EQ(scenarios[1].config.lambda, 1e-2);
  EXPECT_EQ(scenarios[2].config.network, "eth10");
  EXPECT_EQ(scenarios[4].solver, "giant");
  // Base knobs are inherited by every scenario.
  for (const auto& s : scenarios) {
    EXPECT_EQ(s.config.n_train, 120u);
    EXPECT_EQ(s.config.iterations, 3);
  }
}

TEST(SweepExpansion, EmptyAxisThrows) {
  SweepSpec spec = tiny_spec();
  spec.datasets.clear();
  EXPECT_THROW(static_cast<void>(expand_scenarios(spec)), InvalidArgument);
}

TEST(SweepExpansion, ScaleMultipliesSampleCountsAtExpansion) {
  SweepSpec spec = tiny_spec();
  apply_sweep_assignment(spec, "scale", "2.5");
  EXPECT_DOUBLE_EQ(spec.scale, 2.5);
  for (const auto& s : expand_scenarios(spec)) {
    EXPECT_EQ(s.config.n_train, 300u);  // round(120 × 2.5)
    EXPECT_EQ(s.config.n_test, 100u);
  }
  // The base counts stay untouched, and scale enters the fingerprint so
  // a paper-scale run never resumes from a small grid's journal.
  EXPECT_EQ(spec.base.n_train, 120u);
  EXPECT_NE(spec_fingerprint(spec), spec_fingerprint(tiny_spec()));
  EXPECT_THROW(apply_sweep_assignment(spec, "scale", "0"), InvalidArgument);
  EXPECT_THROW(apply_sweep_assignment(spec, "scale", "-1"), InvalidArgument);
  EXPECT_THROW(apply_sweep_assignment(spec, "scale", "big"), InvalidArgument);
}

TEST(SweepExpansion, CountsStayExactAtScaleOneAndHugeOnesAreRejected) {
  // At scale 1 a count never passes through a double; at any other scale
  // a count the double cannot hold is rejected, naming its key.
  SweepSpec spec = tiny_spec();
  apply_sweep_assignment(spec, "n_train", "9223372036854775807");
  apply_sweep_assignment(spec, "n_test", "9007199254740993");
  const auto scenarios = expand_scenarios(spec);
  EXPECT_EQ(scenarios.front().config.n_train, 9223372036854775807ull);
  EXPECT_EQ(scenarios.front().config.n_test, 9007199254740993ull);
  ScenarioOutcome row;
  row.scenario = scenarios.front();
  SweepReport report;
  report.outcomes = {row};
  EXPECT_NE(report.csv_rows()[1].find(",9223372036854775807,"),
            std::string::npos);

  const auto rejected = [&](const char* key) {
    try {
      static_cast<void>(expand_scenarios(spec));
      ADD_FAILURE() << "expanded";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + key + "'"),
                std::string::npos)
          << e.what();
    }
  };
  apply_sweep_assignment(spec, "scale", "0.5");
  rejected("n_train");
  apply_sweep_assignment(spec, "n_train", "9007199254740992");
  rejected("n_test");
  apply_sweep_assignment(spec, "n_test", "10");
  EXPECT_EQ(expand_scenarios(spec).front().config.n_train,
            4503599627370496ull);
}

TEST(SweepExpansion, WeakScalingGrowsTrainSetWithWorkers) {
  SweepSpec spec = tiny_spec();
  spec.solvers = {"newton-admm"};
  spec.lambdas = {1e-3};
  spec.workers = {2, 4, 8};
  apply_sweep_assignment(spec, "weak_scaling", "true");
  const auto scenarios = expand_scenarios(spec);
  ASSERT_EQ(scenarios.size(), 3u);
  EXPECT_EQ(scenarios[0].config.n_train, 240u);  // per-worker 120 × w
  EXPECT_EQ(scenarios[1].config.n_train, 480u);
  EXPECT_EQ(scenarios[2].config.n_train, 960u);
  for (const auto& s : scenarios) EXPECT_EQ(s.config.n_test, 40u);
  // Composes with scale: the per-worker shard is scaled first.
  apply_sweep_assignment(spec, "scale", "0.5");
  EXPECT_EQ(expand_scenarios(spec)[2].config.n_train, 480u);  // 60 × 8
  SweepSpec strong = tiny_spec();
  strong.solvers = {"newton-admm"};
  strong.lambdas = {1e-3};
  strong.workers = {2, 4, 8};
  EXPECT_NE(spec_fingerprint(spec), spec_fingerprint(strong));
  EXPECT_THROW(apply_sweep_assignment(spec, "weak_scaling", "maybe"),
               InvalidArgument);
}

TEST(SweepExpansion, TagIsFilesystemSafeAndUnique) {
  const auto scenarios = expand_scenarios(tiny_spec());
  std::set<std::string> tags;
  for (const auto& s : scenarios) {
    const std::string tag = s.tag();
    EXPECT_EQ(tag.find('/'), std::string::npos);
    EXPECT_EQ(tag.find(' '), std::string::npos);
    tags.insert(tag);
  }
  EXPECT_EQ(tags.size(), scenarios.size());
}

// ------------------------------------------------------------ execution

TEST(SweepRun, ScaledSweepMatchesManuallyEnlargedSpec) {
  SweepSpec spec = tiny_spec();
  spec.solvers = {"newton-admm"};
  spec.lambdas = {1e-3};
  apply_sweep_assignment(spec, "scale", "2");
  SweepSpec manual = tiny_spec();
  manual.solvers = {"newton-admm"};
  manual.lambdas = {1e-3};
  manual.base.n_train = 240;
  manual.base.n_test = 80;
  SweepOptions options;
  EXPECT_EQ(run_sweep(spec, options).csv_rows(),
            run_sweep(manual, options).csv_rows());
}

TEST(SweepRun, ReportsPeakDatasetBytesOfTheFullSplits) {
  SweepSpec spec = tiny_spec();
  spec.solvers = {"newton-admm"};
  spec.lambdas = {1e-3};
  spec.workers = {2, 4};
  SweepOptions options;
  const auto report = run_sweep(spec, options);
  ASSERT_EQ(report.outcomes.size(), 2u);
  ASSERT_EQ(report.failures(), 0u);
  // Zero-copy views hold just the full splits, at any rank count, and
  // both scenarios share one cached dataset.
  const auto tt = make_data(report.outcomes[0].scenario.config);
  EXPECT_EQ(report.outcomes[0].peak_dataset_bytes, tt.approx_bytes());
  EXPECT_EQ(report.outcomes[1].peak_dataset_bytes, tt.approx_bytes());
  EXPECT_EQ(report.cache.generations, 1u);
  const auto rows = report.csv_rows();
  EXPECT_EQ(rows[0].find("partition"), std::string::npos);
  EXPECT_NE(rows[0].find("peak_dataset_bytes"), std::string::npos);
}

TEST(SweepRun, FourScenarioSweepIsDeterministicAcrossPoolSizes) {
  const SweepSpec spec = tiny_spec();  // 2 solvers × 2 lambdas = 4 scenarios

  SweepOptions serial;
  serial.jobs = 1;
  const SweepReport a = run_sweep(spec, serial);

  SweepOptions pooled;
  pooled.jobs = 4;
  const SweepReport b = run_sweep(spec, pooled);

  ASSERT_EQ(a.outcomes.size(), 4u);
  ASSERT_EQ(b.outcomes.size(), 4u);
  EXPECT_EQ(a.failures(), 0u);
  EXPECT_EQ(b.failures(), 0u);

  const auto rows_a = a.csv_rows();
  const auto rows_b = b.csv_rows();
  ASSERT_EQ(rows_a.size(), 5u);  // header + one row per scenario
  // Byte-identical aggregation regardless of scheduler parallelism.
  EXPECT_EQ(rows_a, rows_b);

  // Every scenario ran its own configuration.
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const auto& o = a.outcomes[i];
    EXPECT_TRUE(o.ok);
    EXPECT_EQ(o.scenario.index, static_cast<int>(i));
    EXPECT_EQ(o.result.solver, o.scenario.solver);
    EXPECT_GT(o.result.total_sim_seconds, 0.0);
  }
}

TEST(SweepRun, ProgressCallbackSeesEveryScenario) {
  SweepOptions options;
  options.jobs = 2;
  std::vector<int> seen;
  std::size_t last_total = 0;
  options.on_scenario_done = [&](const ScenarioOutcome& o, std::size_t done,
                                 std::size_t total) {
    seen.push_back(o.scenario.index);
    EXPECT_EQ(done, seen.size());
    last_total = total;
  };
  const auto report = run_sweep(tiny_spec(), options);
  EXPECT_EQ(report.failures(), 0u);
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(last_total, 4u);
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SweepRun, CapturesScenarioFailuresWithoutAborting) {
  SweepSpec spec = tiny_spec();
  spec.solvers = {"newton-admm", "no-such-solver"};
  spec.lambdas = {1e-3};
  SweepOptions options;
  options.jobs = 2;
  const auto report = run_sweep(spec, options);
  ASSERT_EQ(report.outcomes.size(), 2u);
  EXPECT_EQ(report.failures(), 1u);
  EXPECT_TRUE(report.outcomes[0].ok);
  EXPECT_FALSE(report.outcomes[1].ok);
  EXPECT_NE(report.outcomes[1].error.find("no-such-solver"),
            std::string::npos);
  const auto rows = report.csv_rows();
  EXPECT_NE(rows[1].find(",ok,"), std::string::npos);
  EXPECT_NE(rows[2].find(",error,"), std::string::npos);
}

TEST(SweepRun, WritesAggregateReportsAndTraces) {
  const std::string dir = testing::TempDir() + "/nadmm_sweep_out";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  SweepSpec spec = tiny_spec();
  spec.solvers = {"newton-admm"};
  spec.lambdas = {1e-3};
  SweepOptions options;
  options.trace_dir = dir + "/traces";
  const auto report = run_sweep(spec, options);
  ASSERT_EQ(report.failures(), 0u);

  report.write_csv(dir + "/report.csv");
  report.write_json(dir + "/report.json");

  std::ifstream csv(dir + "/report.csv");
  std::string line;
  int csv_lines = 0;
  while (std::getline(csv, line)) ++csv_lines;
  EXPECT_EQ(csv_lines, 2);  // header + 1 scenario

  std::ifstream json(dir + "/report.json");
  std::stringstream buffer;
  buffer << json.rdbuf();
  const std::string body = buffer.str();
  EXPECT_EQ(body.front(), '[');
  EXPECT_NE(body.find("\"solver\": \"newton-admm\""), std::string::npos);
  EXPECT_NE(body.find("\"status\": \"ok\""), std::string::npos);

  // One trace CSV per scenario, named by tag.
  const auto trace_path =
      options.trace_dir + "/" + report.outcomes[0].scenario.tag() + ".csv";
  EXPECT_TRUE(std::filesystem::exists(trace_path));
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------ caching

TEST(SweepCache, SolverOnlySweepGeneratesItsDatasetExactlyOnce) {
  // Two scenarios differing only in solver must share one dataset copy.
  SweepSpec spec = tiny_spec();
  spec.lambdas = {1e-3};  // 2 solvers × 1 dataset × 1 λ
  data::DatasetProvider provider;
  SweepOptions options;
  options.jobs = 2;
  options.provider = &provider;
  const auto report = run_sweep(spec, options);
  EXPECT_EQ(report.failures(), 0u);
  EXPECT_EQ(provider.stats().generations, 1u);
  EXPECT_EQ(provider.stats().hits + provider.stats().misses, 2u);
}

TEST(SweepCache, CacheBudgetZeroRegeneratesPerScenario) {
  SweepSpec spec = tiny_spec();
  spec.lambdas = {1e-3};
  SweepOptions options;
  options.cache_budget = 0;
  const auto report = run_sweep(spec, options);
  EXPECT_EQ(report.failures(), 0u);
  EXPECT_EQ(report.cache.generations, 0u);  // provider bypassed entirely
}

TEST(SweepCache, CachedAndUncachedSweepsProduceIdenticalReports) {
  const SweepSpec spec = tiny_spec();
  SweepOptions cached;
  cached.jobs = 4;
  SweepOptions uncached;
  uncached.cache_budget = 0;
  EXPECT_EQ(run_sweep(spec, cached).csv_rows(),
            run_sweep(spec, uncached).csv_rows());
}

// ------------------------------------------------------------ resume

TEST(SweepJournal, FingerprintTracksEverySpecAxisAndBaseKnob) {
  const SweepSpec base = tiny_spec();
  SweepSpec other = base;
  other.solvers.push_back("sync-sgd");
  EXPECT_NE(spec_fingerprint(base), spec_fingerprint(other));
  other = base;
  other.base.seed += 1;
  EXPECT_NE(spec_fingerprint(base), spec_fingerprint(other));
  other = base;
  other.lambdas = {1e-3, 1e-1};
  EXPECT_NE(spec_fingerprint(base), spec_fingerprint(other));
  EXPECT_EQ(spec_fingerprint(base), spec_fingerprint(tiny_spec()));
}

TEST(SweepJournal, InterruptedThenResumedReportIsByteIdentical) {
  const std::string dir = testing::TempDir() + "/nadmm_journal_resume";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string journal = dir + "/report.csv.journal.jsonl";
  const SweepSpec spec = tiny_spec();  // 4 scenarios

  SweepOptions reference;
  reference.jobs = 2;
  const auto full = run_sweep(spec, reference);

  SweepOptions interrupted;
  interrupted.journal_path = journal;
  interrupted.max_scenarios = 2;
  const auto partial = run_sweep(spec, interrupted);
  EXPECT_FALSE(partial.complete());
  EXPECT_EQ(partial.executed, 2u);

  SweepOptions resumed;
  resumed.jobs = 4;
  resumed.journal_path = journal;
  resumed.resume = true;
  std::size_t executed_callbacks = 0;
  resumed.on_scenario_done = [&](const ScenarioOutcome&, std::size_t,
                                 std::size_t total) {
    ++executed_callbacks;
    EXPECT_EQ(total, 2u);  // only the two remaining scenarios run
  };
  const auto rest = run_sweep(spec, resumed);
  EXPECT_TRUE(rest.complete());
  EXPECT_EQ(rest.resumed, 2u);
  EXPECT_EQ(rest.executed, 2u);
  EXPECT_EQ(executed_callbacks, 2u);
  for (const auto& o : rest.outcomes) EXPECT_TRUE(o.ok);

  EXPECT_EQ(full.csv_rows(), rest.csv_rows());
  // JSON reports must match byte-for-byte as well.
  rest.write_json(dir + "/resumed.json");
  full.write_json(dir + "/full.json");
  std::ifstream a(dir + "/resumed.json"), b(dir + "/full.json");
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
  std::filesystem::remove_all(dir);
}

TEST(SweepJournal, CompletedTagsAreNotReRun) {
  const std::string dir = testing::TempDir() + "/nadmm_journal_skip";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string journal = dir + "/report.csv.journal.jsonl";
  const SweepSpec spec = tiny_spec();

  SweepOptions first;
  first.journal_path = journal;
  static_cast<void>(run_sweep(spec, first));

  SweepOptions again;
  again.journal_path = journal;
  again.resume = true;
  data::DatasetProvider provider;
  again.provider = &provider;
  const auto report = run_sweep(spec, again);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.resumed, 4u);
  EXPECT_EQ(report.executed, 0u);
  // Nothing ran, so nothing was generated.
  EXPECT_EQ(provider.stats().generations, 0u);
  std::filesystem::remove_all(dir);
}

TEST(SweepJournal, StaleJournalFromDifferentSpecIsRejected) {
  const std::string dir = testing::TempDir() + "/nadmm_journal_stale";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string journal = dir + "/report.csv.journal.jsonl";

  SweepSpec spec = tiny_spec();
  SweepOptions options;
  options.journal_path = journal;
  options.max_scenarios = 1;
  static_cast<void>(run_sweep(spec, options));

  SweepSpec other = spec;
  other.lambdas = {1e-3, 1e-1};  // same scenario count, different grid
  SweepOptions resume;
  resume.journal_path = journal;
  resume.resume = true;
  EXPECT_THROW(static_cast<void>(run_sweep(other, resume)), InvalidArgument);

  // Without --resume the stale journal is overwritten, not an error.
  SweepOptions fresh;
  fresh.journal_path = journal;
  const auto report = run_sweep(other, fresh);
  EXPECT_TRUE(report.complete());
  std::filesystem::remove_all(dir);
}

TEST(SweepJournal, OldJournalVersionIsRejectedOnResume) {
  // A v4 journal predates the faults axis and the wire counters; its
  // outcome records can't rehydrate a current report, so --resume must
  // refuse it with the version named (a rerun without --resume starts
  // fresh).
  const std::string dir = testing::TempDir() + "/nadmm_journal_old";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string journal = dir + "/report.csv.journal.jsonl";

  SweepSpec spec = tiny_spec();
  const auto scenarios = expand_scenarios(spec);
  {
    std::ofstream out(journal);
    out << "{\"kind\": \"nadmm-sweep-journal\", \"version\": 4, "
        << "\"fingerprint\": \"" << spec_fingerprint(spec)
        << "\", \"scenarios\": " << scenarios.size() << "}\n";
  }
  SweepOptions resume;
  resume.journal_path = journal;
  resume.resume = true;
  try {
    static_cast<void>(run_sweep(spec, resume));
    FAIL() << "v4 journal accepted on --resume";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version 4"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove_all(dir);
}

TEST(SweepJournal, V7JournalIsRejectedWithBothVersionsNamed) {
  // v7 records carry a partition column that v8 grids no longer have,
  // so a v7 record cannot be restored. The rejection must name both the
  // found and the expected version so the fix (rerun without --resume)
  // is obvious from the message alone.
  const std::string dir = testing::TempDir() + "/nadmm_journal_v7";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string journal = dir + "/report.csv.journal.jsonl";

  SweepSpec spec = tiny_spec();
  const auto scenarios = expand_scenarios(spec);
  {
    std::ofstream out(journal);
    out << "{\"kind\": \"nadmm-sweep-journal\", \"version\": 7, "
        << "\"fingerprint\": \"" << spec_fingerprint(spec)
        << "\", \"scenarios\": " << scenarios.size() << "}\n";
  }
  SweepOptions resume;
  resume.journal_path = journal;
  resume.resume = true;
  try {
    static_cast<void>(run_sweep(spec, resume));
    FAIL() << "v7 journal accepted on --resume";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unsupported version 7"), std::string::npos) << what;
    EXPECT_NE(what.find("expected 8"), std::string::npos) << what;
  }
  std::filesystem::remove_all(dir);
}

TEST(SweepJournal, ErrorOutcomesRoundTripThroughTheJournal) {
  const std::string dir = testing::TempDir() + "/nadmm_journal_error";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string journal = dir + "/report.csv.journal.jsonl";

  SweepSpec spec = tiny_spec();
  spec.solvers = {"newton-admm", "no-such-solver"};
  spec.lambdas = {1e-3};

  SweepOptions first;
  first.journal_path = journal;
  const auto a = run_sweep(spec, first);
  EXPECT_EQ(a.failures(), 1u);

  SweepOptions resumed;
  resumed.journal_path = journal;
  resumed.resume = true;
  const auto b = run_sweep(spec, resumed);
  EXPECT_EQ(b.resumed, 2u);
  EXPECT_EQ(b.executed, 0u);
  EXPECT_EQ(a.csv_rows(), b.csv_rows());
  EXPECT_FALSE(b.outcomes[1].ok);
  EXPECT_NE(b.outcomes[1].error.find("no-such-solver"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(SweepJournal, TornFinalLineIsIgnoredOnResume) {
  const std::string dir = testing::TempDir() + "/nadmm_journal_torn";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string journal = dir + "/report.csv.journal.jsonl";
  const SweepSpec spec = tiny_spec();

  SweepOptions options;
  options.journal_path = journal;
  options.max_scenarios = 2;
  static_cast<void>(run_sweep(spec, options));
  {
    // Simulate a kill mid-write: a half-written trailing line.
    std::ofstream out(journal, std::ios::app);
    out << "{\"index\": 2, \"tag\": \"trunc";
  }
  SweepOptions resumed;
  resumed.journal_path = journal;
  resumed.resume = true;
  const auto report = run_sweep(spec, resumed);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.resumed, 2u);  // the torn line was discarded
  EXPECT_EQ(report.failures(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(SweepJournal, EmptyOrTornHeaderJournalResumesAsFreshStart) {
  // A kill inside the truncate-then-write-header window leaves an empty
  // or torn journal; --resume must start fresh, not dead-end.
  const std::string dir = testing::TempDir() + "/nadmm_journal_empty";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string journal = dir + "/report.csv.journal.jsonl";
  const SweepSpec spec = tiny_spec();
  for (const char* content : {"", "{\"kind\": \"nadmm-sweep-jour"}) {
    {
      std::ofstream out(journal);
      out << content;
    }
    SweepOptions options;
    options.journal_path = journal;
    options.resume = true;
    const auto report = run_sweep(spec, options);
    EXPECT_TRUE(report.complete());
    EXPECT_EQ(report.resumed, 0u);
    EXPECT_EQ(report.executed, 4u);
  }
  std::filesystem::remove_all(dir);
}

TEST(SweepJournal, LineTornInsideItsFinalNumberIsIgnoredOnResume) {
  // A torn record can still hold a complete-looking prefix — a number
  // truncated to "1.2" parses fine — so only the missing closing brace
  // marks it as torn. Restoring it would silently corrupt the resumed
  // report.
  const std::string dir = testing::TempDir() + "/nadmm_journal_torn_num";
  const std::string journal = dir + "/report.csv.journal.jsonl";
  const SweepSpec spec = tiny_spec();
  const auto full = run_sweep(spec, SweepOptions{});
  const std::string record = outcome_json(full.outcomes[2], /*journal=*/true);
  const auto number = record.find("\"total_sim_seconds\": ") + 22;
  for (const std::string& torn :
       {record.substr(0, record.size() - 1), record.substr(0, number)}) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    SweepOptions options;
    options.journal_path = journal;
    options.max_scenarios = 2;
    static_cast<void>(run_sweep(spec, options));
    {
      std::ofstream out(journal, std::ios::app);
      out << torn;
    }
    SweepOptions resumed;
    resumed.journal_path = journal;
    resumed.resume = true;
    const auto report = run_sweep(spec, resumed);
    EXPECT_TRUE(report.complete());
    EXPECT_EQ(report.resumed, 2u) << torn;  // scenario 2 re-ran instead
    EXPECT_EQ(full.csv_rows(), report.csv_rows());
  }
  std::filesystem::remove_all(dir);
}

TEST(SweepJournal, EditedRecordIsRerunOnResume) {
  // A record damaged after it was written can still parse and name its
  // grid index while a scenario field no longer matches the grid there.
  // The header fingerprint matched, so the journal is this spec's: the
  // damaged record is skipped like a torn line and its scenario re-runs.
  const std::string dir = testing::TempDir() + "/nadmm_journal_edited";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string journal = dir + "/report.csv.journal.jsonl";
  const SweepSpec spec = tiny_spec();
  const auto full = run_sweep(spec, SweepOptions{});

  SweepOptions interrupted;
  interrupted.journal_path = journal;
  interrupted.max_scenarios = 3;
  static_cast<void>(run_sweep(spec, interrupted));
  std::vector<std::string> lines;
  {
    std::ifstream in(journal);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 4u);  // the header and three records
  const std::string cell = "\"solver\": \"newton-admm\"";
  const auto at = lines[1].find(cell);
  ASSERT_NE(at, std::string::npos) << lines[1];
  lines[1].replace(at, cell.size(), "\"solver\": \"giant\"");
  {
    std::ofstream out(journal, std::ios::trunc);
    for (const std::string& line : lines) out << line << '\n';
  }
  SweepOptions resumed;
  resumed.journal_path = journal;
  resumed.resume = true;
  const auto report = run_sweep(spec, resumed);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.resumed, 2u);
  EXPECT_EQ(report.executed, 2u);
  EXPECT_EQ(full.csv_rows(), report.csv_rows());
  full.write_json(dir + "/full.json");
  report.write_json(dir + "/resumed.json");
  std::ifstream a(dir + "/full.json"), b(dir + "/resumed.json");
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
  std::filesystem::remove_all(dir);
}

// Seeded property test: random outcomes over train, serving and failed
// scenarios, with extreme numbers (±inf, nan, -0, denormals, 1e308) and
// escape-heavy strings, must survive journal write -> restore with every
// column intact. A failure prints its seed; setting
// NADMM_SWEEP_PROPERTY_SEED to it replays exactly that case.
TEST(SweepJournal, EveryColumnSurvivesJournalRoundTrip) {
  SweepSpec train = tiny_spec();
  train.solvers = {"async-admm", "stale-sync-admm"};  // the fault readers
  train.faults = {"none", "drop:0.05+dup:0.01"};
  train.stragglers = {"none", "1:4"};
  SweepSpec serving = tiny_spec();
  serving.mode = "serving";
  serving.arrivals = {"poisson:1000", "bursty"};
  serving.batch_policies = {"immediate", "deadline:16:0.005"};
  const std::vector<Scenario> grids[] = {expand_scenarios(train),
                                         expand_scenarios(serving)};

  std::vector<std::uint64_t> seeds;
  if (const char* replay = std::getenv("NADMM_SWEEP_PROPERTY_SEED")) {
    seeds.push_back(std::strtoull(replay, nullptr, 10));
  } else {
    for (std::uint64_t s = 1; s <= 400; ++s) seeds.push_back(s);
  }
  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE("NADMM_SWEEP_PROPERTY_SEED=" + std::to_string(seed));
    Rng rng(seed);
    const auto pick = [&](const auto& items) {
      return items[rng.uniform_index(std::size(items))];
    };
    const auto number = [&] {
      const double extremes[] = {
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN(),
          -std::numeric_limits<double>::quiet_NaN(),
          -0.0,
          0.0,
          std::numeric_limits<double>::denorm_min(),
          std::numeric_limits<double>::min() / 3.0,
          1e308,
          -1e308};
      return rng.uniform() < 0.4 ? pick(extremes)
                                 : rng.uniform(-1e6, 1e6) * rng.uniform();
    };
    const auto text = [&] {
      const std::string alphabet[] = {"a", "Z", "0", ";", ":", ",", " ",
                                      "\"", "\\", "\n", "\t", "\r",
                                      "\x01", "\x1f", "\x7f", "\xc3\xa9",
                                      "\xe2\x80\x94", "{", "}"};
      std::string out;
      for (auto n = rng.uniform_index(12); n > 0; --n) out += pick(alphabet);
      return out;
    };
    const auto count = [&] {
      return rng.uniform() < 0.3 ? std::numeric_limits<std::uint64_t>::max()
                                 : rng.next_u64() >> rng.uniform_index(64);
    };

    const auto& grid = pick(grids);
    ScenarioOutcome o;
    o.scenario = pick(grid);
    o.ok = rng.uniform() < 0.7;
    o.error = text();
    o.result.iterations = static_cast<int>(rng.next_u64());
    o.result.final_objective = number();
    o.result.final_test_accuracy = number();
    o.result.total_sim_seconds = number();
    o.result.avg_epoch_sim_seconds = number();
    o.comm_sim_seconds = number();
    o.max_wait_seconds = number();
    o.rank_waits = text();
    o.staleness_hist = text();
    o.peak_dataset_bytes = count();
    o.serve_requests = count();
    o.serve_batches = count();
    o.throughput_rps = number();
    o.mean_batch = number();
    o.p50_latency_s = number();
    o.p99_latency_s = number();
    o.p999_latency_s = number();
    const char* metric_names[] = {"retransmits", "gaps_detected",
                                  "messages_dropped", "checkpoints",
                                  "restores", "custom_counter"};
    for (const char* name : metric_names) {
      if (rng.uniform() < 0.5) o.result.add_metric(name, count());
    }

    const std::string record = outcome_json(o, /*journal=*/true);
    const auto restored = restore_outcome(record, grid);
    ASSERT_TRUE(restored.has_value()) << record;
    EXPECT_EQ(outcome_json(*restored, /*journal=*/true), record);
    EXPECT_EQ(outcome_json(*restored), outcome_json(o));
    SweepReport fresh, resumed;
    fresh.outcomes = {o};
    resumed.outcomes = {*restored};
    EXPECT_EQ(resumed.csv_rows(), fresh.csv_rows());
  }
}

// Jepsen-style journal fuzzing: every mutant of a journal record either
// restores or returns nullopt (a torn or malformed line, or one that no
// longer matches the grid point it names; a resume skips both and
// re-runs the scenario). A record line never throws. A restored mutant
// is a fixed point: its record restores to itself.
TEST(SweepJournal, MutatedRecordsRestoreOrAreSkipped) {
  const std::vector<Scenario> grid = expand_scenarios(tiny_spec());
  std::vector<std::string> records;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ScenarioOutcome o;
    o.scenario = grid[i];
    o.ok = i != 1;
    if (!o.ok) o.error = "rank 1 \"killed\"\tat epoch 2\n";
    o.result.iterations = 7 + static_cast<int>(i);
    o.result.final_objective = 1234.5678 / static_cast<double>(i + 1);
    o.result.final_test_accuracy = 0.9375;
    o.result.total_sim_seconds =
        i == 2 ? std::numeric_limits<double>::infinity() : 0.0125;
    o.result.avg_epoch_sim_seconds = 4.1e-3;
    o.comm_sim_seconds = 2.5e-4;
    o.rank_waits = "0.001;0.002";
    o.peak_dataset_bytes = 51200;
    o.result.add_metric("retransmits", 3);
    records.push_back(outcome_json(o, /*journal=*/true));
  }
  constexpr std::uint64_t kFirstSeed = 0x10a9f00d;
  constexpr std::uint64_t kTrials = 10000;
  std::size_t restored = 0, skipped = 0;
  for (std::uint64_t seed = kFirstSeed; seed < kFirstSeed + kTrials; ++seed) {
    const std::string mutant = test::mutate(
        records[seed % records.size()], seed, "{}\":,.-+e0123456789\\ ");
    std::optional<ScenarioOutcome> got;
    try {
      got = restore_outcome(mutant, grid);
    } catch (const std::exception& e) {
      FAIL() << "seed " << seed << ": threw " << e.what();
    }
    if (!got) {
      ++skipped;
      continue;
    }
    ++restored;
    const std::string record = outcome_json(*got, /*journal=*/true);
    const auto again = restore_outcome(record, grid);
    ASSERT_TRUE(again.has_value()) << "seed " << seed << ": " << record;
    ASSERT_EQ(outcome_json(*again, /*journal=*/true), record)
        << "seed " << seed;
  }
  // The mix must exercise both outcomes, or the fuzzer tests nothing.
  EXPECT_GT(restored, kTrials / 100);
  EXPECT_GT(skipped, kTrials / 20);
}

}  // namespace
}  // namespace nadmm::runner
