// Scenario sweep scheduler: expands a declarative grid spec
// (solver × dataset × workers × device × network × penalty × λ × …) into
// ExperimentConfig instances, executes them concurrently on a worker
// pool, and aggregates the per-scenario results into one combined
// CSV / JSON report with deterministic ordering.
//
// Determinism: scenarios are expanded in a fixed axis order and results
// are stored by scenario index, so the report is byte-identical no
// matter how many scheduler threads run it (`--jobs=1` vs `--jobs=4`).
// Each scenario's cluster is pinned to one OpenMP thread per rank, which
// removes run-to-run float reassociation and keeps `jobs × workers` from
// oversubscribing the host.
//
// Datasets are fetched through a DatasetProvider (src/data/provider.hpp),
// so scenarios that differ only in solver/workers/device/network/penalty/λ
// share one immutable copy instead of regenerating per scenario.
//
// Resume: with `SweepOptions::journal_path` set, every finished scenario
// is appended to a JSONL journal (flushed per line). A rerun of the same
// grid spec with `resume = true` reconstructs completed outcomes from the
// journal — skipping their execution — and still emits a byte-identical
// final CSV/JSON report. Journals carry the spec's fingerprint; resuming
// against a journal written for a different grid spec is rejected.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/trace.hpp"
#include "data/provider.hpp"
#include "runner/harness.hpp"
#include "runner/options.hpp"
#include "support/cli.hpp"

namespace nadmm::runner {

/// Declarative sweep grid. Axis vectors must be non-empty; `base`
/// carries the shared knobs (sample counts, iteration budgets, seed).
struct SweepSpec {
  std::vector<std::string> solvers{"newton-admm"};
  std::vector<std::string> datasets{ExperimentConfig{}.dataset};
  std::vector<int> workers{ExperimentConfig{}.workers};
  /// Device axis: one la::device_from_string spec per entry, run by
  /// every rank of the scenario.
  std::vector<std::string> devices{ExperimentConfig{}.device};
  std::vector<std::string> networks{ExperimentConfig{}.network};
  std::vector<std::string> penalties{ExperimentConfig{}.penalty};
  std::vector<double> lambdas{ExperimentConfig{}.lambda};
  /// Straggler axis: "none" or "<rank>:<slowdown>" entries.
  std::vector<std::string> stragglers{ExperimentConfig{}.straggler};
  /// Link-fault axis: "none" or comm::FaultSpec::parse specs
  /// ("drop:0.05,dup:0.02"). Only the async-engine solvers inject
  /// faults; expansion rejects a non-"none" fault for a solver whose
  /// registry entry has no `fault` knob (reject_unread_knobs).
  std::vector<std::string> faults{ExperimentConfig{}.fault};

  /// Paper-scale multiplier applied at expansion time: every scenario's
  /// sample counts become round(base.n_train × scale) /
  /// round(base.n_test × scale) (clamped to ≥ 1 train sample). Axes and
  /// all other knobs are untouched, so the same spec file serves the
  /// committed small grid (scale = 1) and a paper-scale validation run
  /// (scale ≥ 4). Part of the spec fingerprint — each scale keeps its
  /// own resume journal.
  double scale = 1.0;
  /// Weak-scaling grids: interpret base.n_train as the *per-worker*
  /// shard — each scenario trains on n_train × workers rows (after
  /// `scale`), holding per-rank load constant along the workers axis
  /// (paper Figures 2/5). Train mode only; n_test stays fixed.
  bool weak_scaling = false;

  /// Grid mode: "train" (the default; the axes above) or "serving" —
  /// each scenario trains (or loads) a model once per (solver, dataset)
  /// and replays a synthetic request stream against it, expanding
  /// solver × dataset × device × network × arrival × batch_policy
  /// (workers/penalty/lambda/straggler stay at their base
  /// values for the training step).
  std::string mode{"train"};
  /// Serving-mode arrival axis (serve/arrival.hpp specs).
  std::vector<std::string> arrivals{serve::ServeConfig{}.arrival};
  /// Serving-mode batch-policy axis (serve/batching.hpp specs).
  std::vector<std::string> batch_policies{serve::ServeConfig{}.batch};
  /// Pre-trained model path; empty trains in-process per
  /// (solver, dataset) with the base config's cluster.
  std::string serve_model;

  ExperimentConfig base;
  /// The serving knobs every serving scenario shares: `requests`
  /// (serve_requests) and `dispatch_overhead_s` (dispatch_overhead); the
  /// arrival and batch axes set the rest of serve_fields().
  serve::ServeConfig serve;
};

/// Apply one `key = value` assignment to the spec. Grid axes take
/// comma-separated lists ("solvers = newton-admm, giant"); scalar keys
/// ("n_train", "iterations", ...) set one spec or base-config knob. The
/// key table in sweep.cpp is the single list of keys. Throws
/// InvalidArgument on unknown keys or malformed values.
void apply_sweep_assignment(SweepSpec& spec, const std::string& key,
                            const std::string& value);

/// Parse a sweep spec file: one `key = value` per line, `#` comments and
/// blank lines ignored. Starts from the default-constructed spec.
SweepSpec parse_sweep_file(const std::string& path);

/// Every sweep key as a string CLI flag (`n_train` -> `--n-train`,
/// default empty), in key-table order.
const OptionSet& sweep_key_options();

/// Apply every non-empty sweep-key flag `cli` parsed (registered from
/// sweep_key_options()) on top of `spec`. The raw flag text goes through
/// the same parser as a spec-file line; an empty flag keeps the spec or
/// default value.
void apply_sweep_flags(SweepSpec& spec, const CliParser& cli);

/// One expanded grid point.
struct Scenario {
  int index = 0;         ///< position in deterministic expansion order
  std::string solver;
  ExperimentConfig config;
  /// Serving mode: the scenario replays `serve` (serve_fields() from
  /// the spec and its arrival/batch axes; serve_config binds the rest
  /// from `config` at run time). Its arrival and batch are appended to
  /// the tag and reported only when the grid's mode is "serving".
  bool serving = false;
  serve::ServeConfig serve;

  /// Stable file-system-safe identifier, e.g.
  /// "003_giant_blobs_w4_p100_ib100_sps_lam1e-05".
  [[nodiscard]] std::string tag() const;
};

/// Expand the grid in fixed axis order, rightmost fastest: solver,
/// dataset, workers, device, network, penalty, lambda, straggler,
/// fault in train mode; solver, dataset, device, network,
/// arrival, batch policy in serving mode.
/// Throws InvalidArgument when a scenario sets a knob its solver never
/// reads (reject_unread_knobs), before anything runs.
std::vector<Scenario> expand_scenarios(const SweepSpec& spec);

/// 64-bit FNV-1a hash (hex) over the canonical serialization of every
/// spec field (each key plus the base knobs no key sets); journals are
/// bound to it so a resume against a different grid is detected.
std::string spec_fingerprint(const SweepSpec& spec);

struct ScenarioOutcome {
  Scenario scenario;
  core::RunResult result;  ///< valid when ok
  bool ok = false;
  bool from_journal = false;     ///< reconstructed on resume (trace empty)
  double comm_sim_seconds = 0.0; ///< cached from the trace for reports
  // Async-runtime columns, pre-formatted so journal restores stay
  // byte-identical to fresh runs: per-rank waits and the staleness
  // histogram as ';'-joined strings ("w0;w1;…", "s:count;…").
  double max_wait_seconds = 0.0;
  std::string rank_waits;
  std::string staleness_hist;
  // The generic result.metrics map ("retransmits", "gaps_detected",
  // "messages_dropped", "checkpoints", "restores", ...) lives in
  // result; journal restores rehydrate it there so CSV/JSON stay
  // byte-identical.
  /// Resident dataset bytes the scenario held while training: the full
  /// splits plus whatever the shards own. In-memory scenarios (zero-copy
  /// views) report just the full storage; streamed `libsvm:` ones report the
  /// summed per-rank shards (the full matrix never exists).
  std::uint64_t peak_dataset_bytes = 0;
  // Serving-mode columns (zero for train scenarios). Latencies are the
  // quantile-sketch readouts; final_test_accuracy carries the served
  // prediction accuracy.
  std::uint64_t serve_requests = 0;
  std::uint64_t serve_batches = 0;
  double throughput_rps = 0.0;
  double mean_batch = 0.0;
  double p50_latency_s = 0.0;
  double p99_latency_s = 0.0;
  double p999_latency_s = 0.0;
  std::string error;             ///< non-empty when !ok
};

struct SweepReport {
  std::vector<ScenarioOutcome> outcomes;  ///< in scenario order
  std::size_t resumed = 0;   ///< outcomes reconstructed from the journal
  std::size_t executed = 0;  ///< outcomes actually run this invocation
  data::DatasetProvider::Stats cache;  ///< dataset-cache counters

  /// False when `max_scenarios` stopped the run early; the report is
  /// partial and should not be written as final.
  [[nodiscard]] bool complete() const {
    return resumed + executed == outcomes.size();
  }

  [[nodiscard]] std::size_t failures() const;

  /// One row per scenario. Only deterministic columns (simulated time,
  /// objective, accuracy) — wall-clock stays out so reruns and different
  /// `--jobs` settings produce byte-identical files.
  void write_csv(const std::string& path) const;
  void write_json(const std::string& path) const;

  /// The CSV rows as strings (header first), for tests and the CLI.
  [[nodiscard]] std::vector<std::string> csv_rows() const;
};

/// One outcome as a flat JSON object: the JSON report row or, with
/// `journal`, the journal record. The two differ only in non-finite
/// numbers, which the report writes as null and the journal keeps as
/// bare inf/nan tokens so a restore is exact.
std::string outcome_json(const ScenarioOutcome& outcome, bool journal = false);

/// Inverse of outcome_json(o, true): the outcome of the scenario the
/// record names, or nullopt when the record is torn or malformed, or
/// describes a different scenario than `scenarios` holds at its index
/// (a record damaged after the header fingerprint matched; the caller
/// runs that scenario again).
std::optional<ScenarioOutcome> restore_outcome(
    const std::string& record, const std::vector<Scenario>& scenarios);

struct SweepOptions {
  int jobs = 1;            ///< scheduler threads (clamped to #scenarios)
  std::string trace_dir;   ///< if set, write one trace CSV per scenario
  /// If set, attach a telemetry tracer to every scenario and write one
  /// Chrome trace_event JSON per scenario tag into this directory
  /// (`<dir>/<tag>.trace.json`). Traces stamp virtual time only, so the
  /// files are byte-identical across `--jobs` levels. Not part of the
  /// spec fingerprint: tracing an existing journal's grid on resume is
  /// allowed (only freshly executed scenarios get trace files).
  std::string trace_event_dir;

  /// If set, append each finished scenario to this JSONL journal
  /// (flushed per line, so a killed run loses at most the in-flight
  /// scenarios).
  std::string journal_path;
  /// Skip scenarios already recorded in `journal_path`. Throws
  /// InvalidArgument when the journal was written for a different grid
  /// spec. A missing journal is not an error (fresh start).
  bool resume = false;
  /// Stop after this many scenarios have been executed this invocation
  /// (0 = no limit). Used by tests and CI to interrupt deterministically;
  /// the journal stays valid for a later resume.
  std::size_t max_scenarios = 0;

  /// Dataset-cache byte budget; 0 disables sharing entirely (every
  /// scenario regenerates, the pre-cache behavior).
  std::size_t cache_budget = data::DatasetProvider::kDefaultByteBudget;
  /// Use this provider instead of a sweep-local one (tests inject a
  /// provider to observe generation counts; `cache_budget` is then left
  /// untouched).
  data::DatasetProvider* provider = nullptr;

  /// Progress callback, invoked serially as scenarios finish (not for
  /// journal-restored scenarios).
  std::function<void(const ScenarioOutcome&, std::size_t done,
                     std::size_t total)>
      on_scenario_done;
};

/// Run every scenario of `spec` and aggregate the outcomes. Scenario
/// failures are captured per-outcome, not thrown.
SweepReport run_sweep(const SweepSpec& spec, const SweepOptions& options);

}  // namespace nadmm::runner
