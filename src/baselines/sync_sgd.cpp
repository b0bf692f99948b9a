#include "baselines/sync_sgd.hpp"

#include <algorithm>
#include <numeric>

#include "data/partition.hpp"
#include "la/vector_ops.hpp"
#include "model/softmax.hpp"
#include "solvers/minibatch.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace nadmm::baselines {

core::RunResult sync_sgd(comm::SimCluster& cluster,
                         const data::ShardedDataset& data,
                         const SyncSgdOptions& options) {
  NADMM_CHECK(options.epochs >= 1, "sync_sgd: need >= 1 epoch");
  NADMM_CHECK(options.step_size > 0.0, "sync_sgd: step size must be positive");
  NADMM_CHECK(data.parts() == cluster.size(),
              "sync_sgd: shard plan does not match the cluster size");

  core::RunResult result;
  result.solver = "sync-sgd";
  const std::size_t dim = data.dim();
  const double n_total = static_cast<double>(data.train_samples);
  const double lambda_mean = options.lambda / n_total;

  result.record_waits(cluster.run([&](comm::RankCtx& ctx) {
    const int rank = ctx.rank();
    ctx.clock().pause();
    const data::RankData& rd = data.ranks[static_cast<std::size_t>(rank)];
    const data::Dataset& shard = rd.train;
    model::SoftmaxObjective local(shard, /*l2_lambda=*/0.0);

    auto batch_data = solvers::make_batches(shard, options.batch_size);
    std::vector<model::SoftmaxObjective> batches;
    batches.reserve(batch_data.size());
    for (const auto& b : batch_data) batches.emplace_back(b, 0.0);
    // Every rank must execute the same number of allreduces per epoch.
    const auto steps_per_epoch = static_cast<std::size_t>(
        ctx.allreduce_min(static_cast<double>(batches.size())));
    core::EpochRecorder recorder(ctx, local, options.lambda, data,
                                 options.evaluate_accuracy, result);
    ctx.clock().resume();

    std::vector<double> w(dim, 0.0), packed(dim + 1);
    std::vector<std::size_t> order(batches.size());
    std::iota(order.begin(), order.end(), 0);
    Rng rng(options.seed + 1315423911ULL * static_cast<std::uint64_t>(rank));

    for (int epoch = 0; epoch < options.epochs; ++epoch) {
      // Shuffle the local batch visit order (Fisher–Yates).
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.uniform_index(i)]);
      }
      for (std::size_t s = 0; s < steps_per_epoch; ++s) {
        auto& batch = batches[order[s % order.size()]];
        batch.gradient(w, std::span<double>(packed.data(), dim));
        packed[dim] = static_cast<double>(batch.num_samples());
        ctx.allreduce_sum(packed);
        const double batch_total = packed[dim];
        // Mean-gradient step: w ← w − η (Σ∇f_b / Σ|b| + (λ/n)·w).
        const double inv = 1.0 / batch_total;
        for (std::size_t j = 0; j < dim; ++j) {
          w[j] -= options.step_size * (packed[j] * inv + lambda_mean * w[j]);
        }
        nadmm::flops::add(4 * dim);
      }
      recorder.record(epoch + 1, w);
    }
    if (ctx.is_root()) result.x = w;
  }));
  return result;
}

}  // namespace nadmm::baselines
