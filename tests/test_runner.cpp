// Tests for the experiment harness (src/runner) and the solver option
// plumbing the benches rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>

#include "comm/fault.hpp"
#include "runner/harness.hpp"
#include "runner/options.hpp"
#include "runner/sweep.hpp"
#include "serve/arrival.hpp"
#include "serve/batching.hpp"
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

TEST(HarnessOptions, AdmmOptionsMirrorConfig) {
  ExperimentConfig c;
  c.iterations = 17;
  c.lambda = 0.25;
  c.cg_iterations = 23;
  c.cg_tol = 1e-6;
  c.line_search_iterations = 4;
  const auto o = admm_options(c);
  EXPECT_EQ(o.max_iterations, 17);
  EXPECT_DOUBLE_EQ(o.lambda, 0.25);
  EXPECT_EQ(o.cg.max_iterations, 23);
  EXPECT_DOUBLE_EQ(o.cg.rel_tol, 1e-6);
  EXPECT_EQ(o.line_search.max_iterations, 4);
}

TEST(HarnessOptions, GiantOptionsMirrorConfig) {
  ExperimentConfig c;
  c.iterations = 9;
  c.lambda = 0.5;
  c.cg_iterations = 7;
  c.line_search_iterations = 6;
  const auto o = giant_options(c);
  EXPECT_EQ(o.max_iterations, 9);
  EXPECT_DOUBLE_EQ(o.lambda, 0.5);
  EXPECT_EQ(o.cg.max_iterations, 7);
  EXPECT_EQ(o.line_search_steps, 6);
}

TEST(HarnessOptions, DaneEpochsCappedAtTen) {
  // The paper runs InexactDANE/AIDE for only 10 epochs.
  ExperimentConfig c;
  c.iterations = 100;
  EXPECT_EQ(dane_options(c).max_iterations, 10);
  c.iterations = 3;
  EXPECT_EQ(dane_options(c).max_iterations, 3);
}

TEST(HarnessOptions, SgdAndDiscoMirrorConfig) {
  ExperimentConfig c;
  c.iterations = 12;
  c.lambda = 2.0;
  EXPECT_EQ(sgd_options(c).epochs, 12);
  EXPECT_DOUBLE_EQ(sgd_options(c).lambda, 2.0);
  EXPECT_EQ(disco_options(c).max_iterations, 12);
}

TEST(HarnessCluster, BuildsConfiguredClusterAndRejectsBadSpecs) {
  ExperimentConfig c;
  c.workers = 3;
  c.device = "cpu";
  c.network = "eth10";
  auto cluster = make_cluster(c);
  EXPECT_EQ(cluster.size(), 3);
  EXPECT_EQ(cluster.network().name, "eth10");
  c.network = "bogus";
  EXPECT_THROW(make_cluster(c), InvalidArgument);
  c.network = "ib100";
  c.device = "bogus";
  EXPECT_THROW(make_cluster(c), InvalidArgument);
}

TEST(HarnessData, E18FeatureCountHonoured) {
  ExperimentConfig c;
  c.dataset = "e18";
  c.n_train = 50;
  c.n_test = 10;
  c.e18_features = 256;
  const auto tt = make_data(c);
  EXPECT_EQ(tt.train.num_features(), 256u);
}

TEST(HarnessData, SeedChangesData) {
  ExperimentConfig c;
  c.dataset = "blobs";
  c.n_train = 40;
  c.n_test = 10;
  c.e18_features = 16;
  c.seed = 1;
  const auto a = make_data(c);
  c.seed = 2;
  const auto b = make_data(c);
  int same = 0;
  const auto da = a.train.dense_features().data();
  const auto db = b.train.dense_features().data();
  for (std::size_t i = 0; i < da.size(); ++i) same += (da[i] == db[i]);
  EXPECT_LT(same, 5);
}

TEST(HarnessCsv, EmptyTraceProducesHeaderOnly) {
  core::RunResult r;
  const std::string path = testing::TempDir() + "/nadmm_empty_trace.csv";
  write_trace_csv(r, path);
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 1);  // header only
  std::filesystem::remove(path);
}

TEST(HarnessTrace, TimeToObjectiveHelpers) {
  core::RunResult r;
  core::IterationStats a;
  a.iteration = 1;
  a.objective = 10.0;
  a.sim_seconds = 0.5;
  core::IterationStats b;
  b.iteration = 2;
  b.objective = 2.0;
  b.sim_seconds = 1.5;
  r.trace = {a, b};
  EXPECT_DOUBLE_EQ(r.sim_time_to_objective(5.0), 1.5);
  EXPECT_DOUBLE_EQ(r.sim_time_to_objective(11.0), 0.5);
  EXPECT_DOUBLE_EQ(r.sim_time_to_objective(1.0), -1.0);
}

TEST(HarnessEarlyStop, AdmmObjectiveTargetStopsRun) {
  ExperimentConfig c;
  c.dataset = "blobs";
  c.n_train = 300;
  c.n_test = 50;
  c.e18_features = 10;
  c.workers = 2;
  c.iterations = 100;
  c.lambda = 1e-3;
  const auto tt = make_data(c);
  auto opts = admm_options(c);
  // A loose target the very first iterations can reach.
  opts.objective_target = 300.0 * 1.5;
  auto cluster = make_cluster(c);
  const auto r = core::newton_admm(cluster, shards(cluster, tt.train, nullptr), opts);
  EXPECT_LT(r.iterations, 100);
  EXPECT_LE(r.final_objective, opts.objective_target);
}

TEST(HarnessEarlyStop, GiantObjectiveTargetStopsRun) {
  ExperimentConfig c;
  c.dataset = "blobs";
  c.n_train = 300;
  c.n_test = 50;
  c.e18_features = 10;
  c.workers = 2;
  c.iterations = 100;
  c.lambda = 1e-3;
  const auto tt = make_data(c);
  auto opts = giant_options(c);
  opts.objective_target = 300.0 * 1.5;
  auto cluster = make_cluster(c);
  const auto r = baselines::giant(cluster, shards(cluster, tt.train, nullptr), opts);
  EXPECT_LT(r.iterations, 100);
  EXPECT_LE(r.final_objective, opts.objective_target);
}


// ------------------------------------------------- declarative options

TEST(OptionSpecs, RegisterValidateAndRejectWithFlagName) {
  OptionSet opts;
  opts.add_int("count", 4, "how many", v_int_min(1));
  opts.add_string("mode", "fast", "speed", v_one_of({"fast", "slow"}));
  opts.add({"rate", OptType::kDouble, "0.5", "per second",
            v_double_min(0.0, false)});
  CliParser cli("test");
  opts.register_into(cli);
  const char* good[] = {"prog", "--count", "2", "--mode=slow", "--rate", "1.5"};
  ASSERT_TRUE(cli.parse(6, good));
  opts.validate(cli);  // no throw
  EXPECT_EQ(cli.get_int("count"), 2);
  EXPECT_EQ(cli.get_string("mode"), "slow");

  CliParser bad("test");
  opts.register_into(bad);
  const char* argv[] = {"prog", "--count", "0"};
  ASSERT_TRUE(bad.parse(3, argv));
  try {
    opts.validate(bad);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("--count"), std::string::npos)
        << "rejection must name the flag: " << e.what();
  }
}

TEST(OptionSpecs, DuplicateNamesAreRejected) {
  OptionSet opts;
  opts.add_int("n", 1, "first");
  EXPECT_THROW(opts.add_string("n", "x", "dup"), InvalidArgument);
  OptionSet other;
  other.add_int("n", 2, "also n");
  EXPECT_THROW(opts.extend(other), InvalidArgument);
}

TEST(OptionSpecs, DomainValidatorsCoverTheSharedAxes) {
  const auto ok = [](const OptionValidator& v, const std::string& value) {
    v("--x", value);  // must not throw
  };
  const auto rejects = [](const OptionValidator& v, const std::string& value) {
    EXPECT_THROW(v("--x", value), InvalidArgument) << value;
  };
  ok(v_device_list(), "p100+cpu");
  rejects(v_device_list(), "p100+warp9");
  ok(v_device(), "40:20");
  rejects(v_device(), "p100+cpu");
  ok(v_network(), "ideal");
  rejects(v_network(), "carrier-pigeon");
  ok(v_straggler(), "1:4");
  rejects(v_straggler(), "1:");
  ok(v_partition(), "weighted");
  rejects(v_partition(), "sharded");
  ok(v_solver(), "newton-admm");
  rejects(v_solver(), "sgd");
  ok(v_arrival(), "bursty:400:4000:0.5:0.2");
  rejects(v_arrival(), "bursty:400:100:0.5:0.2");
  ok(v_batch_policy(), "deadline:16:0.005");
  rejects(v_batch_policy(), "deadline:16");
  ok(v_each(',', v_network()), "ideal, eth10,wan");
  rejects(v_each(',', v_network()), "ideal,nope");
  EXPECT_EQ(parse_byte_size("--b", "512m"), 512u << 20);
  EXPECT_EQ(parse_byte_size("--b", "2G"), std::size_t{2} << 30);
  EXPECT_EQ(parse_byte_size("--b", "0"), 0u);
  EXPECT_THROW(parse_byte_size("--b", "12q"), InvalidArgument);
  EXPECT_THROW(parse_byte_size("--b", "-1"), InvalidArgument);
}

TEST(OneDevice, SingleNodeAndServingRejectADeviceListBeforeRunning) {
  // A per-rank list rates the ranks of a distributed solver. Single-node
  // solvers and the serving plane price one device, so the list is
  // rejected naming the flag instead of failing once the run started.
  try {
    v_device()("device", "p100+cpu");
    FAIL() << "p100+cpu passed the one-device check";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--device"), std::string::npos) << what;
    EXPECT_NE(what.find("'p100+cpu'"), std::string::npos) << what;
  }
  SweepSpec spec;
  spec.devices = {"p100+cpu"};
  spec.solvers = {"newton-admm", "giant"};
  EXPECT_EQ(expand_scenarios(spec).size(), 2u);
  spec.solvers = {"newton-admm", "newton-cg"};
  EXPECT_THROW(static_cast<void>(expand_scenarios(spec)), InvalidArgument);
  spec.solvers = {"newton-admm"};
  spec.mode = "serving";
  EXPECT_THROW(static_cast<void>(expand_scenarios(spec)), InvalidArgument);
  spec.devices = {"p100", "cpu"};
  EXPECT_EQ(expand_scenarios(spec).size(), 2u);
}

TEST(OptionSpecs, SharedTablesStayConsistent) {
  // run/serve/sweep all build on the config field table; the names the
  // registry's knob catalog uses must keep resolving there.
  const OptionSet run = config_options(kRun);
  const OptionSet serve = config_options(kServe);
  EXPECT_NE(run.find("penalty"), nullptr);
  EXPECT_NE(run.find("sgd-batch"), nullptr);
  EXPECT_EQ(run.find("local-newton-steps"), nullptr);  // fingerprint only
  EXPECT_NE(serve.find("device"), nullptr);
  EXPECT_EQ(serve.find("penalty"), nullptr);
  EXPECT_NE(serve.find("arrival"), nullptr);
  EXPECT_EQ(run.find("arrival"), nullptr);
  const auto knob = describe_knob("cg-iterations");
  EXPECT_EQ(to_string(knob.type), "int");
  EXPECT_EQ(knob.default_value, "10");
  EXPECT_FALSE(knob.help.empty());
  EXPECT_THROW(static_cast<void>(describe_knob("local-newton-steps")),
               InvalidArgument);
}

TEST(ConfigFields, EachMemberOnceAndItsDefaultRoundTrips) {
  const ExperimentConfig defaults;
  std::set<const void*> members;
  std::set<std::string> names;
  for (const auto& f : config_fields()) {
    SCOPED_TRACE(f.spec.name);
    EXPECT_TRUE(members.insert(f.address(defaults)).second);
    EXPECT_TRUE(names.insert(f.spec.name).second);
    EXPECT_EQ(f.key().find('-'), std::string::npos);
    ExperimentConfig c;
    f.assign(c, f.spec.name, f.text(defaults));
    EXPECT_EQ(f.text(c), f.text(defaults));
  }
  EXPECT_EQ(&config_field<&ExperimentConfig::cg_tol>(),
            &*std::find_if(config_fields().begin(), config_fields().end(),
                           [](const ConfigField& f) {
                             return f.spec.name == "cg-tol";
                           }));
}

/// Parse one `nadmm run` flag the way cmd_run does (validate, then
/// build the config) and expect a rejection naming the flag and echoing
/// the text the user gave.
void expect_run_flag_rejected(const std::string& flag,
                              const std::string& text) {
  const OptionSet run = config_options(kRun);
  CliParser cli("test");
  run.register_into(cli);
  const std::string arg = "--" + flag + "=" + text;
  const char* argv[] = {"prog", arg.c_str()};
  ASSERT_TRUE(cli.parse(2, argv));
  try {
    run.validate(cli);
    static_cast<void>(config_from_flags(cli));
    FAIL() << arg << " was accepted";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--" + flag), std::string::npos) << what;
    EXPECT_NE(what.find("'" + text + "'"), std::string::npos) << what;
  }
}

TEST(RunFlags, IterationsBeyondIntAreRejectedNotWrapped) {
  expect_run_flag_rejected("iterations", "4294967297");
}

TEST(RunFlags, WorkersBeyondIntAreRejectedNotWrapped) {
  expect_run_flag_rejected("workers", "4294967298");
}

TEST(RunFlags, EmptySeedIsRejected) { expect_run_flag_rejected("seed", ""); }

TEST(RunFlags, SeedBeyondInt64IsRejectedNotClamped) {
  expect_run_flag_rejected("seed", "99999999999999999999");
}

TEST(RunFlags, InRangeValuesReachTheConfig) {
  const OptionSet run = config_options(kRun);
  CliParser cli("test");
  run.register_into(cli);
  const char* argv[] = {"prog", "--iterations=2147483647", "--workers=3",
                        "--seed=9223372036854775807",
                        "--line-search-iterations=7"};
  ASSERT_TRUE(cli.parse(5, argv));
  run.validate(cli);
  const auto c = config_from_flags(cli);
  EXPECT_EQ(c.iterations, 2147483647);
  EXPECT_EQ(c.workers, 3);
  EXPECT_EQ(c.seed, 9223372036854775807ull);
  EXPECT_EQ(c.line_search_iterations, 7);
  EXPECT_EQ(c.dataset, ExperimentConfig{}.dataset);
}

/// The field's text after `apply` when it accepts `text`; nullopt when
/// it rejects it, which must name `--flag` and echo `text`.
template <class Apply>
std::optional<std::string> accepted(const std::string& flag,
                                    const std::string& text, Apply apply) {
  try {
    return apply();
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--" + flag), std::string::npos) << what;
    EXPECT_NE(what.find("'" + text + "'"), std::string::npos) << what;
    return std::nullopt;
  }
}

TEST(RunFlags, IntegerFieldsHoldOrRejectEveryBoundaryThroughRunAndSweep) {
  // Around the int / int64 / uint64 limits, every integer field either
  // holds the value exactly or rejects the text — on `nadmm run` and,
  // for sweep keys, as a spec assignment. Nothing wraps or clamps.
  const std::vector<std::string> texts = {
      "2147483647",          "2147483648",          "-2147483649",
      "-1",                  "9223372036854775807", "9223372036854775808",
      "18446744073709551616", "+5"};
  const OptionSet run = config_options(kRun);
  std::size_t checked = 0;
  for (const auto& f : config_fields()) {
    if (f.spec.type != OptType::kInt || run.find(f.spec.name) == nullptr) {
      continue;
    }
    ++checked;
    const std::string& flag = f.spec.name;
    const bool sweep_key = sweep_key_options().find(flag) != nullptr;
    for (const auto& text : texts) {
      SCOPED_TRACE(flag + "=" + text);
      const auto by_run = accepted(flag, text, [&] {
        CliParser cli("test");
        run.register_into(cli);
        const std::string arg = "--" + flag + "=" + text;
        const char* argv[] = {"prog", arg.c_str()};
        EXPECT_TRUE(cli.parse(2, argv));
        run.validate(cli);
        return f.text(config_from_flags(cli));
      });
      if (by_run) {
        EXPECT_EQ(*by_run, text);
      }
      if (!sweep_key) continue;
      const auto by_sweep = accepted(flag, text, [&] {
        SweepSpec spec;
        apply_sweep_assignment(spec, f.key(), text);
        // An axis key fills its spec list, a scalar key the base config.
        return spec.workers != SweepSpec{}.workers
                   ? to_text(spec.workers.front())
                   : f.text(spec.base);
      });
      if (by_sweep) {
        EXPECT_EQ(*by_sweep, text);
      }
      EXPECT_EQ(by_run.has_value(), by_sweep.has_value());
    }
    // INT_MAX fits every integer field.
    EXPECT_EQ(accepted(flag, "2147483647",
                       [&] {
                         ExperimentConfig c;
                         f.assign(c, flag, "2147483647");
                         return f.text(c);
                       }),
              "2147483647");
  }
  EXPECT_GE(checked, 15u);
}

/// What the run makes of a scenario's spec string: the value the runtime
/// parser returned, as text.
using Runtime = std::string (*)(const Scenario&);

std::string runtime_kill(const Scenario& s) {
  const auto o = async_options(s.config, /*stale_sync=*/false);
  return std::to_string(o.kill_rank) + ":" + std::to_string(o.kill_epoch);
}

std::string runtime_devices(const Scenario& s) {
  std::string out;
  for (const auto& d : cluster_devices(s.config)) {
    out += d.name + "@" + to_text(d.gflops) + "/" + to_text(d.gbytes_per_s) +
           ";";
  }
  return out;
}

std::string runtime_penalty(const Scenario& s) {
  return std::to_string(static_cast<int>(admm_options(s.config).penalty.rule));
}

std::string runtime_partition(const Scenario& s) {
  return data::to_string(shard_plan(s.config).mode);
}

std::string runtime_dataset(const Scenario& s) {
  const auto source = data::parse_dataset_source(dataset_key(s.config).source);
  return source.generator != nullptr
             ? to_text(reinterpret_cast<std::uintptr_t>(source.generator))
             : "libsvm " + source.libsvm_path;
}

std::string runtime_fault(const Scenario& s) {
  const auto f = comm::FaultSpec::parse(async_options(s.config, false).fault);
  return to_text(f.drop) + "," + to_text(f.duplicate) + "," +
         to_text(f.reorder) + "," + to_text(f.corrupt);
}

std::string runtime_arrival(const Scenario& s) {
  return serve::make_arrival(s.serve.arrival)->name();
}

std::string runtime_batch(const Scenario& s) {
  return serve::make_batch_policy(s.serve.batch)->name();
}

/// Parse `text` into the `flag` field of `scenario`: its config for a
/// `nadmm run` field, its serving knobs for a `nadmm serve` one.
void assign_raw(Scenario& scenario, FlagOn command, const std::string& flag,
                const std::string& text) {
  const auto assign = [&](const auto& fields, auto& config) {
    std::find_if(fields.begin(), fields.end(), [&](const auto& f) {
      return f.spec.name == flag;
    })->assign(config, flag, text);
  };
  if (command == kServe) {
    assign(serve_fields(), scenario.serve);
  } else {
    assign(config_fields(), scenario.config);
  }
}

TEST(SpecGrammars, FlagSweepKeyAndRuntimeAcceptTheSameTexts) {
  // Each spec grammar has one parser: the command's flag, the sweep key
  // and the run itself accept a text together (and the run sees the same
  // value either way) or reject it together, naming the flag.
  struct Case {
    const char* flag;
    const char* key;
    Runtime runtime;
    std::string text;
    bool accepted;
    FlagOn command = kRun;
  };
  const std::vector<Case> cases = {
      {"kill", "kill", runtime_kill, "1:2", true},
      {"kill", "kill", runtime_kill, "none", true},
      {"kill", "kill", runtime_kill, "4294967296:2", false},
      {"kill", "kill", runtime_kill, "1:4294967297", false},
      {"kill", "kill", runtime_kill, "1:0", false},
      {"kill", "kill", runtime_kill, "1", false},
      {"penalty", "penalties", runtime_penalty, "rb", true},
      {"penalty", "penalties", runtime_penalty, "spectral", false},
      {"penalty", "penalties", runtime_penalty, "residual-balancing", false},
      {"device", "devices", runtime_devices, "p100+cpu", true},
      {"device", "devices", runtime_devices, "p100 + 40:20", true},
      {"device", "devices", runtime_devices, "p100,,cpu", false},
      {"device", "devices", runtime_devices, "p100+", false},
      {"straggler", "stragglers", runtime_devices, "1:4", true},
      {"straggler", "stragglers", runtime_devices, "none", true},
      {"straggler", "stragglers", runtime_devices, "1:0.5", false},
      {"straggler", "stragglers", runtime_devices, "1:nan", false},
      {"straggler", "stragglers", runtime_devices, "4294967297:2", false},
      {"partition", "partitions", runtime_partition, "weighted", true},
      {"partition", "partitions", runtime_partition, "sharded", false},
      {"dataset", "datasets", runtime_dataset, "mnist", true},
      {"dataset", "datasets", runtime_dataset, "libsvm:a.svm", true},
      {"dataset", "datasets", runtime_dataset, "libsvm:", false},
      {"dataset", "datasets", runtime_dataset, "imagenet", false},
      {"fault", "faults", runtime_fault, "none", true},
      {"fault", "faults", runtime_fault, "drop:+0.5", false},
      {"fault", "faults", runtime_fault, "drop: 0.5", false},
      {"fault", "faults", runtime_fault, "drop:0x0.8", false},
      {"arrival", "arrivals", runtime_arrival, "poisson:5", true, kServe},
      {"arrival", "arrivals", runtime_arrival, "bursty:400:4000:0.25:0.2",
       true, kServe},
      {"arrival", "arrivals", runtime_arrival, "poisson:inf", false, kServe},
      {"arrival", "arrivals", runtime_arrival, "bursty:400:inf:0.25:0.2",
       false, kServe},
      {"arrival", "arrivals", runtime_arrival, "poisson:+5", false, kServe},
      {"arrival", "arrivals", runtime_arrival, "poisson: 5", false, kServe},
      {"arrival", "arrivals", runtime_arrival, "poisson:0x10", false, kServe},
      {"batch", "batch_policies", runtime_batch, "deadline:16:0.005", true,
       kServe},
      {"batch", "batch_policies", runtime_batch, "deadline:16:inf", false,
       kServe},
      {"batch", "batch_policies", runtime_batch, "size:+8", false, kServe},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string(c.flag) + "=" + c.text);
    const auto by_run = accepted(c.flag, c.text, [&] {
      CliParser cli("test");
      const OptionSet options = config_options(c.command);
      options.register_into(cli);
      const std::string arg = "--" + std::string(c.flag) + "=" + c.text;
      const char* argv[] = {"prog", arg.c_str()};
      EXPECT_TRUE(cli.parse(2, argv));
      options.validate(cli);
      Scenario run;
      run.config = config_from_flags(cli);
      run.serve = config_from_flags<serve::ServeConfig>(cli);
      return c.runtime(run);
    });
    std::string key_flag = c.key;  // batch_policies -> --batch-policies
    std::replace(key_flag.begin(), key_flag.end(), '_', '-');
    const auto by_sweep = accepted(key_flag, c.text, [&] {
      SweepSpec spec;
      if (c.command == kServe) apply_sweep_assignment(spec, "mode", "serving");
      apply_sweep_assignment(spec, c.key, c.text);
      return c.runtime(expand_scenarios(spec).at(0));
    });
    EXPECT_EQ(by_run.has_value(), c.accepted);
    EXPECT_EQ(by_sweep.has_value(), c.accepted);
    EXPECT_EQ(by_run, by_sweep);
    if (!c.accepted) {
      // The run rejects the raw text too: there is no second parser.
      Scenario raw;
      assign_raw(raw, c.command, c.flag, c.text);
      EXPECT_THROW(static_cast<void>(c.runtime(raw)), InvalidArgument);
    }
  }
}

}  // namespace
}  // namespace nadmm::runner
