// DiSCO (Zhang & Lin): distributed inexact damped Newton.
//
// Cited by the paper as related work; implemented here as an extension
// (DESIGN.md §6) because it demonstrates the opposite end of the
// communication spectrum: its Newton system is solved by a *distributed*
// CG in which every Hessian-vector product is an allreduce — 1 + #CG
// rounds per iteration versus Newton-ADMM's single round.
#pragma once

#include "comm/cluster.hpp"
#include "core/trace.hpp"
#include "data/dataset.hpp"
#include "data/partition.hpp"
#include "solvers/cg.hpp"

namespace nadmm::baselines {

struct DiscoOptions {
  int max_iterations = 100;
  double lambda = 1e-5;
  solvers::CgOptions cg;  ///< distributed CG budget per outer iteration
  bool evaluate_accuracy = true;
};

/// Run DiSCO over pre-sharded data (rank r trains on
/// `data.ranks[r].train`; the harness plans the shards).
core::RunResult disco(comm::SimCluster& cluster,
                      const data::ShardedDataset& data,
                      const DiscoOptions& options);

}  // namespace nadmm::baselines
