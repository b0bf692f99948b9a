// InexactDANE and AIDE (Reddi et al.), the paper's slow-epoch
// second-order comparators in Figure 1.
//
// InexactDANE iteration (η, µ as in the paper's setup: η = 1, µ = 0):
//   1. allreduce the local gradients of φ_i(w) = f_i(w) + (λ/2N)‖w‖² to
//      form the average gradient ḡ;
//   2. each node solves, with SVRG,
//        min_x φ_i(x) − ⟨∇φ_i(w) − η·ḡ, x⟩ + (µ/2)‖x − w‖²;
//   3. allreduce to average the local solutions into w⁺.
// The SVRG inner loop is what makes each epoch orders of magnitude more
// expensive than a Newton-CG epoch — the effect Figure 1 shows.
//
// AIDE wraps InexactDANE in catalyst acceleration: the inner solve runs
// on F + (τ/2)‖x − y_t‖² and iterates are extrapolated with
// ζ = (1 − √q)/(1 + √q), q = λ/(λ + τ).
#pragma once

#include "comm/cluster.hpp"
#include "core/trace.hpp"
#include "data/dataset.hpp"
#include "data/partition.hpp"
#include "solvers/svrg.hpp"

namespace nadmm::baselines {

struct DaneOptions {
  int max_iterations = 10;    ///< paper runs only 10 epochs (they are slow)
  double lambda = 1e-5;
  double eta = 1.0;           ///< paper: η = 1.0
  double mu = 0.0;            ///< paper: µ = 0.0
  std::size_t svrg_batch = 16;
  solvers::SvrgOptions svrg;  ///< inner-solver budget
  // AIDE acceleration:
  bool accelerate = false;    ///< false → InexactDANE, true → AIDE
  double tau = 1.0;           ///< catalyst smoothing (paper sweeps this)
  bool evaluate_accuracy = true;
};

/// Run InexactDANE / AIDE over pre-sharded data (rank r trains on
/// `data.ranks[r].train`; the harness plans the shards).
core::RunResult inexact_dane(comm::SimCluster& cluster,
                             const data::ShardedDataset& data,
                             const DaneOptions& options);

}  // namespace nadmm::baselines
