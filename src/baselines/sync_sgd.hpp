// Synchronous distributed minibatch SGD — the paper's first-order
// comparator (Figure 4).
//
// Every step: each worker computes the gradient of one local minibatch,
// the gradients are allreduced, and all workers apply the same update.
// One allreduce per *minibatch* — ~n/(N·batch) communication rounds per
// epoch versus Newton-ADMM's single round, which is the communication
// profile the paper's comparison hinges on.
#pragma once

#include <cstdint>

#include "comm/cluster.hpp"
#include "core/trace.hpp"
#include "data/dataset.hpp"
#include "data/partition.hpp"

namespace nadmm::baselines {

struct SyncSgdOptions {
  int epochs = 100;
  std::size_t batch_size = 128;  ///< paper: 128
  double step_size = 0.1;        ///< applied to the *mean* gradient
  double lambda = 1e-5;
  std::uint64_t seed = 7;
  bool record_trace = true;
  bool evaluate_accuracy = true;
};

/// Run synchronous SGD over pre-sharded data (rank r trains on
/// `data.ranks[r].train`; minibatches are zero-copy views of the shard).
core::RunResult sync_sgd(comm::SimCluster& cluster,
                         const data::ShardedDataset& data,
                         const SyncSgdOptions& options);

}  // namespace nadmm::baselines
