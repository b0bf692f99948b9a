// Experiment harness: wires dataset → simulated cluster → solver and
// emits traces. The nadmm CLI (run/sweep/serve) and bench/e2e are thin
// drivers over this header.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "baselines/dane.hpp"
#include "baselines/disco.hpp"
#include "baselines/giant.hpp"
#include "baselines/sync_sgd.hpp"
#include "comm/cluster.hpp"
#include "core/newton_admm.hpp"
#include "core/trace.hpp"
#include "data/generators.hpp"
#include "data/provider.hpp"
#include "serve/server.hpp"
#include "solvers/async_admm.hpp"

namespace nadmm::runner {

/// Shared experiment knobs (paper defaults). runner::config_fields()
/// (runner/options.hpp) names every field for the CLI and sweep specs.
struct ExperimentConfig {
  std::string dataset = "blobs";  ///< higgs|mnist|cifar|e18|blobs|libsvm:<path>
  std::size_t n_train = 8'000;
  std::size_t n_test = 2'000;
  std::size_t e18_features = 1'400;  ///< scaled-down E18 dimension
  std::uint64_t seed = 42;
  int workers = 8;
  /// One la::device_from_string spec: every rank runs this device (the
  /// straggler is the only per-rank skew).
  std::string device = "p100";
  std::string network = "ib100";  ///< comm::network_from_string preset
  /// Straggler injection: "none", or "<rank>:<slowdown>" — divide that
  /// rank's flop rate and bandwidth by `slowdown` (e.g. "1:4" makes rank
  /// 1 four times slower; parse_straggler).
  std::string straggler = "none";
  double lambda = 1e-5;           ///< paper default
  std::string penalty = "sps";    ///< ADMM rule: fixed|rb|sps
  double rho0 = 1.0;              ///< initial ADMM penalty ρ₀
  int iterations = 100;           ///< paper runs 100 epochs
  int cg_iterations = 10;         ///< paper: 10
  double cg_tol = 1e-4;           ///< paper: 1e-4
  int line_search_iterations = 10;///< paper: 10
  int local_newton_steps = 1;     ///< Newton steps per ADMM epoch
  double objective_target = 0.0;  ///< early stop at F ≤ target (≤0: off)
  bool evaluate_accuracy = true;  ///< per-epoch test accuracy in the trace
  std::size_t sgd_batch = 128;    ///< sync-sgd minibatch size (paper: 128)
  double sgd_step = 0.1;          ///< sync-sgd step size
  int dane_epochs = 10;           ///< InexactDANE/AIDE epoch cap (paper: 10)
  int svrg_outer = 10;            ///< DANE inner SVRG budget
  double fo_step = 0.0;           ///< single-node first-order step (0: rule default)
  double gradient_tol = -1.0;     ///< single-node ‖g‖ stop (<0: solver default)
  int omp_threads = 0;            ///< OpenMP threads per rank (0 = auto)
  int staleness = 4;              ///< async-admm bounded-staleness τ (rounds)
  int sync_every = 4;             ///< stale-sync-admm barrier period k
  /// Link-fault injection for the async engine: "none", or a
  /// comma-separated "drop:p,dup:p,reorder:p,corrupt:p" spec
  /// (comm::FaultSpec::parse). The fault RNG is seeded from `seed`.
  std::string fault = "none";
  /// Elastic-membership kill: "none", or "<rank>:<epoch>" — kill that
  /// rank after the given epoch and rejoin it from the last checkpoint
  /// (parse_kill).
  std::string kill = "none";
  /// Coordinator checkpoint period in applied updates (0 = off; must be
  /// > 0 when `kill` is set).
  int checkpoint_every = 0;
};

/// The content-defining parameters of the config's dataset — scenarios
/// that agree on this key share one cached copy via DatasetProvider.
data::DatasetKey dataset_key(const ExperimentConfig& config);

/// Generate (deterministically) the dataset named by the config. One-shot
/// path with no caching; sweeps go through a DatasetProvider instead.
data::TrainTest make_data(const ExperimentConfig& config);

/// A parsed `straggler` spec: rank `rank` runs `slowdown` times slower.
struct Straggler {
  int rank = 0;
  double slowdown = 1.0;
  std::string label;  ///< the slowdown as written, for the device name
};

/// "none" (nullopt) or "<rank>:<slowdown>" with an int rank >= 0 and a
/// finite slowdown >= 1; throws InvalidArgument otherwise. The one parser
/// of the spec: --straggler, the stragglers axis and cluster_devices.
std::optional<Straggler> parse_straggler(const std::string& spec);

/// A parsed `kill` spec: kill rank `rank` after epoch `epoch`.
struct Kill {
  int rank = 0;
  int epoch = 1;
};

/// "none" (nullopt) or "<rank>:<epoch>" with an int rank >= 0 and an int
/// epoch >= 1; throws InvalidArgument otherwise. The one parser of the
/// spec: --kill, the kill sweep key and async_options.
std::optional<Kill> parse_kill(const std::string& spec);

/// Per-rank device models from the config: the one `device` on each of
/// `workers` ranks, with the `straggler` slowdown applied (the straggled
/// device's name gains "/x<slowdown>").
/// Throws InvalidArgument on malformed specs or a straggler rank outside
/// [0, workers).
std::vector<la::DeviceModel> cluster_devices(const ExperimentConfig& config);

/// The shard plan of the config: rank r owns the r-th of `workers`
/// balanced contiguous ranges.
data::ShardPlan shard_plan(const ExperimentConfig& config);

/// Shard a materialized train/test pair under the config's plan — one
/// RankData {train_view, test_view} per rank, zero-copy.
data::ShardedDataset make_sharded_data(const ExperimentConfig& config,
                                       const data::TrainTest& tt);

/// Construct the simulated cluster named by the config.
comm::SimCluster make_cluster(const ExperimentConfig& config);

/// Option builders pre-filled from the shared config.
core::NewtonAdmmOptions admm_options(const ExperimentConfig& config);
solvers::AsyncAdmmOptions async_options(const ExperimentConfig& config,
                                        bool stale_sync);
baselines::GiantOptions giant_options(const ExperimentConfig& config);
baselines::SyncSgdOptions sgd_options(const ExperimentConfig& config);
baselines::DaneOptions dane_options(const ExperimentConfig& config);
baselines::DiscoOptions disco_options(const ExperimentConfig& config);

/// Shard `train`/`test` the way `solver` expects: the config's shard
/// plan for distributed solvers, a one-part plan (materialized full
/// splits) for single-node solvers.
data::ShardedDataset shard_for_solver(const std::string& solver,
                                      const data::Dataset& train,
                                      const data::Dataset* test,
                                      const ExperimentConfig& config);

/// Dispatch by solver name through the SolverRegistry on data the caller
/// already sharded (shard_for_solver, or e.g. streamed per-rank libsvm
/// shards from DatasetProvider::get_sharded).
core::RunResult run_solver(const std::string& solver,
                           comm::SimCluster& cluster,
                           const data::ShardedDataset& data,
                           const ExperimentConfig& config);

/// `serving` (its serve_fields(): arrival, batch, requests, dispatch
/// overhead) with the request-stream seed, server device, network and
/// threads taken from `config`.
serve::ServeConfig serve_config(const ExperimentConfig& config,
                                serve::ServeConfig serving);

/// The softmax model `solver` trained on `config`'s data (`train` is its
/// train split): coefficients `x` with the provenance check_model_pool
/// compares.
serve::SavedModel saved_model(const std::string& solver,
                              const ExperimentConfig& config,
                              const data::Dataset& train,
                              std::vector<double> x);

/// Throws InvalidArgument naming the field (dataset, seed, n_train or
/// n_test) when the request pool `config` describes is not the data
/// `model` was trained on, compared through dataset_key (so `libsvm:`
/// models ignore the seed).
void check_model_pool(const serve::SavedModel& model,
                      const ExperimentConfig& config);

/// Write the full per-iteration trace as CSV (columns match
/// core::IterationStats).
void write_trace_csv(const core::RunResult& result, const std::string& path);

/// Print a short console summary of a run: about a dozen evenly spaced
/// iterations plus the last.
void print_trace_summary(const core::RunResult& result);

}  // namespace nadmm::runner
