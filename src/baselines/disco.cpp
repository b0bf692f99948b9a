#include "baselines/disco.hpp"

#include <cmath>

#include "data/partition.hpp"
#include "la/vector_ops.hpp"
#include "model/softmax.hpp"
#include "support/check.hpp"

namespace nadmm::baselines {

core::RunResult disco(comm::SimCluster& cluster,
                      const data::ShardedDataset& data,
                      const DiscoOptions& options) {
  NADMM_CHECK(options.max_iterations >= 1, "disco: need >= 1 iteration");
  NADMM_CHECK(data.parts() == cluster.size(),
              "disco: shard plan does not match the cluster size");

  core::RunResult result;
  result.solver = "disco";
  const std::size_t dim = data.dim();

  result.record_waits(cluster.run([&](comm::RankCtx& ctx) {
    const int rank = ctx.rank();
    ctx.clock().pause();
    const data::RankData& rd = data.ranks[static_cast<std::size_t>(rank)];
    model::SoftmaxObjective local(rd.train, /*l2_lambda=*/0.0);
    core::EpochRecorder recorder(ctx, local, options.lambda, data,
                                 options.evaluate_accuracy, result);
    ctx.clock().resume();

    std::vector<double> w(dim, 0.0), g(dim), p(dim), hp(dim);

    for (int k = 0; k < options.max_iterations; ++k) {
      // Global gradient (one allreduce).
      local.gradient(w, g);
      ctx.allreduce_sum(g);
      la::axpy(options.lambda, w, g);

      // Distributed CG: the TRUE global Hessian, one allreduce per product.
      solvers::conjugate_gradient(
          [&](std::span<const double> v, std::span<double> hv) {
            local.hessian_vec(w, v, hv);
            ctx.allreduce_sum(hv);
            la::axpy(options.lambda, v, hv);
          },
          g, p, options.cg);

      // Damped Newton step of self-concordant analysis: δ = √(pᵀHp) on the
      // *standardized* (mean) objective — DiSCO's analysis is stated for
      // averaged losses, so the sum-scaled decrement is divided by n.
      // w ← w − p/(1+δ) … our p already solves Hp = −g, so apply +.
      local.hessian_vec(w, p, hp);
      ctx.allreduce_sum(hp);
      la::axpy(options.lambda, p, hp);
      const double n_total = static_cast<double>(data.train_samples);
      const double delta =
          std::sqrt(std::max(0.0, la::dot(p, hp) / n_total));
      la::axpy(1.0 / (1.0 + delta), p, w);

      recorder.record(k + 1, w);
    }
    if (ctx.is_root()) result.x = w;
  }));
  return result;
}

}  // namespace nadmm::baselines
