// GIANT: Globally Improved Approximate Newton (Wang et al.), the paper's
// main second-order comparator.
//
// Per iteration, three communication rounds (vs. Newton-ADMM's one):
//   1. allreduce of local gradients → global gradient g;
//   2. each worker solves its *local* Newton system
//        (N·H_i + λI) p_i = −g  with CG, then allreduce to average p_i;
//   3. distributed line search: every worker evaluates its local objective
//      at ALL steps in the fixed set S = {2⁰, 2⁻¹, …, 2⁻ᵏ} and the values
//      are allreduced — the redundant evaluations the paper calls out as
//      GIANT's extra per-epoch cost.
#pragma once

#include "comm/cluster.hpp"
#include "core/trace.hpp"
#include "data/dataset.hpp"
#include "data/partition.hpp"
#include "solvers/cg.hpp"

namespace nadmm::baselines {

struct GiantOptions {
  int max_iterations = 100;
  double lambda = 1e-5;
  solvers::CgOptions cg;          ///< paper: 10 iterations, tol 1e-4
  int line_search_steps = 10;     ///< k: S = {2^0 … 2^-k}, paper i_max = 10
  double armijo_beta = 1e-4;
  /// Stop once the diagnostic global objective reaches this value; ≤ 0
  /// disables. Used by the time-to-θ benches.
  double objective_target = 0.0;
  bool record_trace = true;
  bool evaluate_accuracy = true;
};

/// Run GIANT over pre-sharded data (rank r trains on
/// `data.ranks[r].train`; the harness plans the shards).
core::RunResult giant(comm::SimCluster& cluster,
                      const data::ShardedDataset& data,
                      const GiantOptions& options);

}  // namespace nadmm::baselines
