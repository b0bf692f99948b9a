// The `nadmm` CLI: one binary for the whole experiment surface.
//
//   nadmm list [--json]            — solvers, then each flag vocabulary
//   nadmm run   --solver=… --dataset=… [knobs] [--save-model=FILE]
//   nadmm serve --model=FILE --arrival=… --batch=… [pool flags]
//   nadmm sweep --spec=FILE | [grid flags] --jobs=N --out=report.csv
//
// Every subcommand builds its flag surface from the shared declarative
// option specs in runner/options.hpp (ExperimentConfig and ServeConfig
// flags from their field tables): the spec registers the flags,
// generates `--help` in declaration order, and validates parsed values
// up front with the parsers the run uses (rejections name the offending
// flag). `list` prints the registry and, from the flags' help lines, the
// vocabularies; `run` executes a single scenario and prints its trace
// summary; `serve` replays a synthetic request stream against a saved
// model, refusing a pool other than the model's training data; `sweep`
// expands a declarative grid — training or serving — and executes it on
// a worker pool (see runner/sweep.hpp — the aggregated report is
// deterministic across --jobs settings).
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runner/harness.hpp"
#include "runner/options.hpp"
#include "runner/registry.hpp"
#include "runner/sweep.hpp"
#include "serve/model_io.hpp"
#include "serve/server.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "support/telemetry.hpp"

namespace {

using namespace nadmm;

void print_usage() {
  std::printf(
      "usage: nadmm <command> [options]\n"
      "\n"
      "commands:\n"
      "  list    show registered solvers, datasets, devices and networks\n"
      "          (--json dumps the registry machine-readably)\n"
      "  run     run one scenario (nadmm run --help)\n"
      "  serve   replay a request stream against a saved model "
      "(nadmm serve --help)\n"
      "  sweep   run a scenario grid on a worker pool (nadmm sweep --help)\n");
}

int cmd_list(int argc, const char* const* argv) {
  CliParser cli("nadmm list — registered solvers and the shared axes");
  cli.add_flag("json", "dump the registry as JSON (knobs carry "
                       "type/default/description)");
  if (!cli.parse(argc, argv)) return 0;
  if (cli.get_flag("json")) {
    std::printf("%s", runner::registry_json().c_str());
    return 0;
  }
  std::printf("solvers:\n");
  // The class and knobs columns come straight from the registry, so this
  // listing cannot drift from what the factories actually read.
  Table solvers({"name", "kind", "class", "knobs", "description"});
  for (const auto& info : runner::SolverRegistry::instance().list()) {
    solvers.add_row({info.name, runner::to_string(info.kind),
                     runner::to_string(info.comm_class), info.knobs_csv(),
                     info.description});
  }
  solvers.print();
  // The vocabularies are the help lines of the flags that take them.
  using C = runner::ExperimentConfig;
  using S = serve::ServeConfig;
  std::printf("\nvocabularies:\n");
  for (const runner::OptionSpec* spec :
       {&runner::config_field<&C::dataset>().spec,
        &runner::config_field<&C::device>().spec,
        &runner::config_field<&C::network>().spec,
        &runner::config_field<&C::penalty>().spec,
        &runner::config_field<&C::straggler>().spec,
        &runner::config_field<&S::arrival>().spec,
        &runner::config_field<&S::batch>().spec}) {
    std::printf("  --%-10s %s\n", spec->name.c_str(), spec->help.c_str());
  }
  return 0;
}

int cmd_run(int argc, const char* const* argv) {
  CliParser cli("nadmm run — execute one scenario and print its trace");
  runner::OptionSet opts;
  opts.add_string("solver", "newton-admm", "solver name (see `nadmm list`)",
                  runner::v_solver());
  opts.extend(runner::config_options(runner::kRun));
  opts.add_string("trace-csv", "", "if set, write the full trace CSV here");
  opts.add_string("trace-out", "",
                  "if set, write a Chrome trace_event JSON of the run's "
                  "telemetry spans here (open in Perfetto / chrome://tracing)");
  opts.add_flag("trace-ascii", "print an ASCII per-rank timeline after "
                               "the run");
  opts.add_string("save-model", "",
                  "if set, save the trained model here (for `nadmm serve`)");
  opts.register_into(cli);
  if (!cli.parse(argc, argv)) return 0;
  opts.validate(cli);

  const std::string solver = cli.get_string("solver");
  const auto config = runner::config_from_flags(cli);
  const auto& info = runner::SolverRegistry::instance().info(solver);
  runner::reject_unread_knobs(solver, config);

  const auto tt = runner::make_data(config);
  std::printf("scenario: solver=%s (%s) dataset=%s n=%zu p=%zu C=%d "
              "workers=%d device=%s network=%s penalty=%s lambda=%g\n\n",
              solver.c_str(), runner::to_string(info.kind).c_str(),
              config.dataset.c_str(), tt.train.num_samples(),
              tt.train.num_features(), tt.train.num_classes(), config.workers,
              config.device.c_str(), config.network.c_str(),
              config.penalty.c_str(), config.lambda);

  // Telemetry attaches per thread; the async engine binds the per-rank
  // tracks/clocks itself once a tracer is current.
  const std::string trace_out = cli.get_string("trace-out");
  const bool trace_ascii = cli.get_flag("trace-ascii");
  std::unique_ptr<telem::Tracer> tracer;
  std::optional<telem::TracerScope> tracer_scope;
  if (!trace_out.empty() || trace_ascii) {
    tracer = std::make_unique<telem::Tracer>(solver + "/" + config.dataset);
    tracer_scope.emplace(*tracer);
  }

  auto cluster = runner::make_cluster(config);
  const auto result = runner::run_solver(
      solver, cluster,
      runner::shard_for_solver(solver, tt.train, &tt.test, config), config);
  tracer_scope.reset();
  runner::print_trace_summary(result);

  if (tracer) {
    if (!trace_out.empty()) {
      tracer->write_chrome_trace_file(trace_out);
      std::printf("\ntelemetry trace written to %s (%zu events)\n",
                  trace_out.c_str(), tracer->event_count());
    }
    if (trace_ascii) {
      std::printf("\n%s", tracer->ascii_timeline().c_str());
    }
  }

  const std::string trace_csv = cli.get_string("trace-csv");
  if (!trace_csv.empty()) {
    runner::write_trace_csv(result, trace_csv);
    std::printf("\ntrace written to %s\n", trace_csv.c_str());
  }
  const std::string model_path = cli.get_string("save-model");
  if (!model_path.empty()) {
    serve::save_model(runner::saved_model(solver, config, tt.train, result.x),
                      model_path);
    std::printf("\nmodel written to %s\n", model_path.c_str());
  }
  return 0;
}

int cmd_serve(int argc, const char* const* argv) {
  CliParser cli(
      "nadmm serve — replay a deterministic synthetic request stream "
      "against a saved model.\nThe request pool is the test split of "
      "--dataset; throughput and latency percentiles come from the "
      "virtual clock, so results are machine-independent.");
  runner::OptionSet opts;
  opts.add_string("model", "",
                  "trained model file (from `nadmm run --save-model`)");
  opts.extend(runner::config_options(runner::kServe));
  opts.add_string("trace-out", "",
                  "if set, write a Chrome trace_event JSON of the serving "
                  "telemetry here");
  opts.register_into(cli);
  if (!cli.parse(argc, argv)) return 0;
  opts.validate(cli);
  NADMM_CHECK(!cli.get_string("model").empty(),
              "--model is required (train one with `nadmm run "
              "--save-model=model.txt`)");

  const auto model = serve::load_model(cli.get_string("model"));
  const auto data_config = runner::config_from_flags(cli);
  runner::check_model_pool(model, data_config);
  const auto tt = runner::make_data(data_config);
  NADMM_CHECK(!tt.test.empty(),
              "serving needs a non-empty test split (--n-test > 0)");
  const serve::ServeConfig config = runner::serve_config(
      data_config, runner::config_from_flags<serve::ServeConfig>(cli));

  std::printf("serving: model=%s solver=%s pool=%s rows=%zu p=%zu "
              "device=%s network=%s\n",
              cli.get_string("model").c_str(),
              model.solver.empty() ? "-" : model.solver.c_str(),
              data_config.dataset.c_str(), tt.test.num_samples(),
              tt.test.num_features(), config.device.c_str(),
              config.network.c_str());

  const std::string trace_out = cli.get_string("trace-out");
  std::unique_ptr<telem::Tracer> tracer;
  std::optional<telem::TracerScope> tracer_scope;
  if (!trace_out.empty()) {
    tracer = std::make_unique<telem::Tracer>("serve/" + data_config.dataset);
    tracer_scope.emplace(*tracer);
  }
  const auto r = serve::simulate(model, tt.test, config);
  tracer_scope.reset();
  if (tracer) {
    tracer->write_chrome_trace_file(trace_out);
    std::printf("telemetry trace written to %s (%zu events)\n",
                trace_out.c_str(), tracer->event_count());
  }
  std::printf(
      "\narrival=%s batch=%s\n"
      "requests:        %llu in %.6f sim-seconds (%zu batches, mean %.2f, "
      "max %llu, %llu deadline flushes)\n"
      "throughput:      %.1f req/s\n"
      "latency:         mean %.6fs  p50 %.6fs  p99 %.6fs  p999 %.6fs  "
      "max %.6fs\n"
      "served accuracy: %.4f\n"
      "server busy:     %.6fs compute, %.6fs idle\n",
      r.arrival.c_str(), r.batch.c_str(),
      static_cast<unsigned long long>(r.requests), r.total_sim_seconds,
      static_cast<std::size_t>(r.batches), r.mean_batch,
      static_cast<unsigned long long>(r.max_batch_seen),
      static_cast<unsigned long long>(r.deadline_flushes), r.throughput_rps,
      r.mean_latency_s, r.p50_latency_s, r.p99_latency_s, r.p999_latency_s,
      r.max_latency_s, r.accuracy, r.server_compute_seconds,
      r.server_wait_seconds);
  return 0;
}

int cmd_sweep(int argc, const char* const* argv) {
  CliParser cli(
      "nadmm sweep — expand a scenario grid and run it on a worker pool.\n"
      "Every spec key is also a flag (n_train -> --n-train); grid axes take\n"
      "comma-separated lists. --spec FILE loads `key = value` lines first,\n"
      "non-empty flags override it. `--mode serving` swaps the train axes\n"
      "for arrival × batch-policy serving scenarios.");
  runner::OptionSet opts;
  opts.add_string("spec", "", "sweep spec file (key = value lines)");
  opts.extend(runner::sweep_key_options());
  opts.add_int("jobs", 1, "concurrent scenarios", runner::v_int_min(1));
  opts.add_string("out", "sweep.csv", "aggregated CSV report path");
  opts.add_string("json", "", "if set, also write a JSON report here");
  opts.add_string("trace-dir", "",
                  "if set, write per-scenario trace CSVs here");
  opts.add_string("trace-out", "",
                  "if set, write one Chrome trace_event JSON per scenario "
                  "into this directory (<dir>/<tag>.trace.json; "
                  "byte-identical across --jobs)");
  opts.add_flag("resume", "skip scenarios recorded in <out>.journal.jsonl");
  opts.add_string("cache-budget", "2g",
                  "dataset cache byte budget (k/m/g suffixes; 0 disables)",
                  runner::v_byte_size());
  opts.add_int("limit", 0, "stop after N scenarios (0 = all; for CI/testing)",
               runner::v_int_min(0));
  opts.add_flag("quiet", "suppress per-scenario progress lines");
  opts.register_into(cli);
  if (!cli.parse(argc, argv)) return 0;
  opts.validate(cli);

  const std::string spec_path = cli.get_string("spec");
  runner::SweepSpec spec = spec_path.empty()
                               ? runner::SweepSpec{}
                               : runner::parse_sweep_file(spec_path);
  runner::apply_sweep_flags(spec, cli);

  const std::string out = cli.get_string("out");
  runner::SweepOptions options;
  options.jobs = cli.get_int_as<int>("jobs");
  options.trace_dir = cli.get_string("trace-dir");
  options.trace_event_dir = cli.get_string("trace-out");
  options.journal_path = out + ".journal.jsonl";
  options.resume = cli.get_flag("resume");
  options.cache_budget =
      runner::parse_byte_size("cache-budget", cli.get_string("cache-budget"));
  options.max_scenarios = cli.get_int_as<std::size_t>("limit");
  const bool quiet = cli.get_flag("quiet");
  if (!quiet) {
    options.on_scenario_done = [](const runner::ScenarioOutcome& o,
                                  std::size_t done, std::size_t total) {
      if (!o.ok) {
        std::printf("[%zu/%zu] %s: FAILED — %s\n", done, total,
                    o.scenario.tag().c_str(), o.error.c_str());
      } else if (o.scenario.serving) {
        std::printf("[%zu/%zu] %s: %.1f req/s p99=%.6fs acc=%.4f\n", done,
                    total, o.scenario.tag().c_str(), o.throughput_rps,
                    o.p99_latency_s, o.result.final_test_accuracy);
      } else {
        std::printf("[%zu/%zu] %s: objective=%.6g acc=%.4f sim=%.3fs\n", done,
                    total, o.scenario.tag().c_str(),
                    o.result.final_objective, o.result.final_test_accuracy,
                    o.result.total_sim_seconds);
      }
      std::fflush(stdout);
    };
  }

  const auto scenarios = runner::expand_scenarios(spec);
  std::printf("sweep: %zu scenarios, %d job(s)\n", scenarios.size(),
              options.jobs);
  const auto report = runner::run_sweep(spec, options);
  if (report.resumed > 0) {
    std::printf("resumed: %zu scenario(s) restored from %s\n", report.resumed,
                options.journal_path.c_str());
  }
  if (report.cache.generations > 0 || report.cache.hits > 0) {
    std::printf("dataset cache: %zu generated, %zu shared, %zu evicted\n",
                report.cache.generations, report.cache.hits,
                report.cache.evictions);
  }

  if (!report.complete()) {
    std::printf("\ninterrupted after %zu scenario(s) — rerun with --resume to "
                "continue (journal: %s)\n",
                report.executed, options.journal_path.c_str());
    return 3;
  }

  report.write_csv(out);
  std::printf("\naggregated report: %s (%zu rows, %zu failed)\n", out.c_str(),
              report.outcomes.size(), report.failures());
  const std::string json = cli.get_string("json");
  if (!json.empty()) {
    report.write_json(json);
    std::printf("json report:       %s\n", json.c_str());
  }
  return report.failures() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 2;
  }
  const std::string command = argv[1];
  try {
    if (command == "list") return cmd_list(argc - 1, argv + 1);
    if (command == "run") return cmd_run(argc - 1, argv + 1);
    if (command == "serve") return cmd_serve(argc - 1, argv + 1);
    if (command == "sweep") return cmd_sweep(argc - 1, argv + 1);
    if (command == "--help" || command == "-h" || command == "help") {
      print_usage();
      return 0;
    }
    std::fprintf(stderr, "nadmm: unknown command '%s'\n\n", command.c_str());
    print_usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nadmm: %s\n", e.what());
    return 1;
  }
}
