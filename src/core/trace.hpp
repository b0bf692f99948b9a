// The epoch ledger every solver reports through, so the experiment
// harness can plot all of them in the same coordinates the paper's
// figures use (objective / accuracy vs. time):
//   * IterationStats — one outer iteration ("epoch");
//   * RunResult — a run's trace plus the totals mirrored from its last
//     entry. RunResult::append is the only writer of both, and
//     RunResult::record_waits takes the per-rank idle seconds from a
//     run's reports;
//   * EpochRecorder — the per-rank, collective epoch diagnostics of a
//     SimCluster solver (objective, test accuracy, simulated time, and
//     the ADMM residuals when the solver has them) on the paused clock,
//     appended to the run's result by the root.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "comm/cluster.hpp"
#include "data/dataset.hpp"
#include "model/softmax.hpp"
#include "support/check.hpp"
#include "support/timer.hpp"

namespace nadmm::core {

/// One outer iteration ("epoch") of any solver.
struct IterationStats {
  int iteration = 0;
  double objective = 0.0;        ///< F(x) on the full training set
  double test_accuracy = -1.0;   ///< fraction in [0,1]; −1 if no test set
  double sim_seconds = 0.0;      ///< cumulative simulated time (max over ranks)
  double wall_seconds = 0.0;     ///< cumulative wall-clock time
  double epoch_sim_seconds = 0.0;///< this iteration's simulated time
  double comm_sim_seconds = 0.0; ///< cumulative simulated communication time
  // ADMM-specific (0 for other solvers):
  double primal_residual = 0.0;  ///< √Σ‖x_i − z‖²
  double dual_residual = 0.0;    ///< √Σ‖ρ_i(z^{k+1} − z^k)‖²
  double rho_mean = 0.0;         ///< mean per-node penalty
};

/// Final result of a solver run.
struct RunResult {
  std::string solver;
  std::vector<double> x;              ///< final consensus / global iterate
  std::vector<IterationStats> trace;
  int iterations = 0;
  double final_objective = 0.0;
  double final_test_accuracy = -1.0;
  double total_sim_seconds = 0.0;
  double total_wall_seconds = 0.0;
  double avg_epoch_sim_seconds = 0.0;

  /// Simulated idle seconds per rank: barrier skew for synchronous
  /// solvers, mailbox/staleness-gate waits for asynchronous ones. Empty
  /// for single-node solvers, which run on no cluster.
  std::vector<double> rank_wait_seconds;
  /// staleness_hist[s] counts consensus updates applied while their
  /// worker was `s` rounds ahead of the slowest worker (asynchronous
  /// solvers only; empty otherwise). The bounded-staleness gate
  /// guarantees the top non-zero bucket is <= the --staleness bound.
  std::vector<std::uint64_t> staleness_hist;

  /// Generic run metrics (sorted, sparse: only non-zero values are
  /// stored so journal round-trips are byte-exact). Async engine
  /// solvers populate the wire/fault-tolerance counters: "retransmits"
  /// (data frames re-sent, all ranks), "gaps_detected" (out-of-order
  /// holds), "messages_dropped" (sends never delivered), "checkpoints"
  /// (coordinator snapshots), "restores" (kill-and-rejoin recoveries).
  /// New subsystems add keys without touching this struct; sweep
  /// CSV/JSON/journal carry the map generically.
  std::map<std::string, std::uint64_t> metrics;

  /// Append the next epoch (iterations run 1, 2, …): sets its
  /// epoch_sim_seconds from the previous entry, mirrors it into
  /// iterations, final_* and total_*, and re-derives
  /// avg_epoch_sim_seconds.
  void append(IterationStats it) {
    NADMM_CHECK(it.iteration == iterations + 1,
                "RunResult::append: epochs must be numbered 1, 2, ...");
    it.epoch_sim_seconds =
        it.sim_seconds - (trace.empty() ? 0.0 : trace.back().sim_seconds);
    iterations = it.iteration;
    final_objective = it.objective;
    final_test_accuracy = it.test_accuracy;
    total_sim_seconds = it.sim_seconds;
    total_wall_seconds = it.wall_seconds;
    avg_epoch_sim_seconds = total_sim_seconds / iterations;
    trace.push_back(it);
  }

  /// Take each rank's simulated idle seconds from a run's per-rank
  /// reports (SimCluster::run's or AsyncEngine::run's).
  template <class Reports>
  void record_waits(const Reports& reports) {
    rank_wait_seconds.clear();
    for (const auto& r : reports) rank_wait_seconds.push_back(r.wait_seconds);
  }

  /// Value of a metric, 0 when absent.
  [[nodiscard]] std::uint64_t metric(const std::string& name) const {
    const auto it = metrics.find(name);
    return it == metrics.end() ? 0 : it->second;
  }

  /// Add to a metric, keeping the map sparse (no zero entries).
  void add_metric(const std::string& name, std::uint64_t delta) {
    if (delta != 0) metrics[name] += delta;
  }

  [[nodiscard]] double max_wait_seconds() const {
    double w = 0.0;
    for (const double v : rank_wait_seconds) w = v > w ? v : w;
    return w;
  }

  /// Earliest cumulative simulated time at which the trace objective is
  /// ≤ threshold; −1 if never reached.
  [[nodiscard]] double sim_time_to_objective(double threshold) const {
    for (const auto& it : trace) {
      if (it.objective <= threshold) return it.sim_seconds;
    }
    return -1.0;
  }
};

/// ADMM consensus diagnostics of one epoch, already reduced across
/// ranks. All zero for solvers without a consensus step.
struct AdmmResiduals {
  double primal = 0.0;    ///< √Σ‖x_i − z‖²
  double dual = 0.0;      ///< √Σ‖ρ_i(z^{k+1} − z^k)‖²
  double rho_mean = 0.0;  ///< mean per-node penalty
};

/// Per-rank epoch diagnostics of one SimCluster solver run. Runs on a
/// paused simulated clock, so trace timings measure only the algorithm's
/// own compute + communication.
class EpochRecorder {
 public:
  /// `test_total` is the global test-set size for averaging the
  /// per-shard hit counts; it gates the accuracy allreduce and MUST be
  /// the same on every rank (0 reports accuracy as −1). `test_shard`
  /// may be empty on an individual rank (more ranks than test rows) —
  /// that rank still joins the allreduce with zero hits. The shard is
  /// taken by value (an O(1) shared-storage view copy) and owned by the
  /// recorder, so callers can pass a temporary. The wall clock starts
  /// when the recorder is built: build it last in the untimed setup.
  EpochRecorder(comm::RankCtx& ctx, model::SoftmaxObjective& local_loss,
                double lambda, data::Dataset test_shard,
                std::size_t test_total, RunResult& result);

  /// Record epoch k (1-based) at global iterate `w`, with the solver's
  /// consensus residuals if it has them. Every rank must call this
  /// collectively. Returns the objective F(w), identical on every rank.
  double record(int k, std::span<const double> w,
                const AdmmResiduals& admm = {});

 private:
  comm::RankCtx* ctx_;
  model::SoftmaxObjective* local_loss_;
  double lambda_;
  std::size_t test_total_;
  data::Dataset test_shard_;  ///< owned: test_eval_ points into it
  std::unique_ptr<model::SoftmaxObjective> test_eval_;
  RunResult* result_;
  WallTimer wall_;
};

}  // namespace nadmm::core
