// Newton-ADMM (paper Algorithm 2): distributed consensus ADMM where each
// node's subproblem (eq. 6a) is solved by inexact Newton-CG (Algorithm 1).
//
// Per outer iteration:
//   1. locally minimize f_i(x) + (ρ_i/2)‖x − (z + y_i/ρ_i)‖²  (Newton-CG,
//      warm-started from x_i^k);
//   2. one communication round: gather [ρ_i·x_i − y_i ; ρ_i] at the master,
//      form z^{k+1} = Σ(ρ_i x_i − y_i) / (λ + Σρ_i)  (eq. 7, the closed
//      form for ℓ2 regularization), broadcast z^{k+1};
//   3. locally update the dual y_i ← y_i + ρ_i(z^{k+1} − x_i)  (eq. 6c)
//      and adapt ρ_i with spectral penalty selection (paper step 8).
//
// This is the single gather+broadcast round the paper credits for the
// method's low communication cost (Remark 1).
#pragma once

#include "comm/cluster.hpp"
#include "core/penalty.hpp"
#include "core/trace.hpp"
#include "data/dataset.hpp"
#include "data/partition.hpp"
#include "solvers/cg.hpp"
#include "solvers/linesearch.hpp"

namespace nadmm::core {

struct NewtonAdmmOptions {
  int max_iterations = 100;           ///< ADMM outer iterations (epochs)
  int local_newton_steps = 1;         ///< Algorithm-1 iterations per epoch
  double lambda = 1e-5;               ///< ℓ2 regularization on z (paper λ)
  solvers::CgOptions cg;              ///< paper: 10 iters, tol 1e-4
  solvers::LineSearchOptions line_search;  ///< paper: i_max = 10
  PenaltyOptions penalty;
  double primal_tol = 0.0;            ///< 0 disables residual-based stopping
  double dual_tol = 0.0;
  /// Stop as soon as the (diagnostic) global objective F(z) falls to or
  /// below this value; ≤ 0 disables. Used by the time-to-θ benches.
  double objective_target = 0.0;
  bool evaluate_accuracy = true;      ///< evaluate test accuracy per epoch
};

/// Run Newton-ADMM on `cluster` over pre-sharded data: rank r trains on
/// `data.ranks[r].train` and evaluates accuracy on `data.ranks[r].test`
/// (the harness plans the shards — zero-copy contiguous views of
/// in-memory data, streamed per-rank shards for `libsvm:` sources).
/// Diagnostics run on a paused simulated clock, so trace timings reflect
/// only algorithm work.
RunResult newton_admm(comm::SimCluster& cluster,
                      const data::ShardedDataset& data,
                      const NewtonAdmmOptions& options);

}  // namespace nadmm::core
