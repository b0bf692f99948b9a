#include "baselines/giant.hpp"

#include <cmath>

#include "data/partition.hpp"
#include "la/vector_ops.hpp"
#include "model/softmax.hpp"
#include "support/check.hpp"

namespace nadmm::baselines {

core::RunResult giant(comm::SimCluster& cluster,
                      const data::ShardedDataset& data,
                      const GiantOptions& options) {
  NADMM_CHECK(options.max_iterations >= 1, "giant: need >= 1 iteration");
  NADMM_CHECK(options.line_search_steps >= 0, "giant: bad line_search_steps");
  NADMM_CHECK(data.parts() == cluster.size(),
              "giant: shard plan does not match the cluster size");

  core::RunResult result;
  result.solver = "giant";
  const int n_ranks = cluster.size();
  const std::size_t dim = data.dim();
  const std::size_t n_steps =
      static_cast<std::size_t>(options.line_search_steps) + 1;

  result.record_waits(cluster.run([&](comm::RankCtx& ctx) {
    const int rank = ctx.rank();
    ctx.clock().pause();
    const data::RankData& rd = data.ranks[static_cast<std::size_t>(rank)];
    model::SoftmaxObjective local(rd.train, /*l2_lambda=*/0.0);
    core::EpochRecorder recorder(ctx, local, options.lambda, data,
                                 options.evaluate_accuracy, result);
    ctx.clock().resume();

    std::vector<double> w(dim, 0.0), g(dim), p(dim), trial(dim);
    std::vector<double> ls_values(n_steps + 1);  // + slot for f_i(w)
    const double scale = static_cast<double>(n_ranks);

    for (int k = 0; k < options.max_iterations; ++k) {
      // Round 1: global gradient.
      local.gradient(w, g);
      ctx.allreduce_sum(g);
      la::axpy(options.lambda, w, g);

      // Local Newton system with the rank's Hessian as a (scaled)
      // estimator of the global one: (N·H_i + λI) p_i = −g.
      solvers::conjugate_gradient(
          [&](std::span<const double> v, std::span<double> hv) {
            local.hessian_vec(w, v, hv);
            la::scal(scale, hv);
            la::axpy(options.lambda, v, hv);
          },
          g, p, options.cg);

      // Round 2: average the local directions.
      ctx.allreduce_sum(p);
      la::scal(1.0 / scale, p);

      // Round 3: distributed line search over the fixed step set
      // S = {2^0 … 2^-k}. Every worker evaluates every step (the cost
      // structure the paper contrasts with Newton-ADMM's local search).
      // f_i(w) first, while the gradient's forward pass is still cached;
      // then the steps smallest first, so the pass left cached is the
      // full step's, the one usually accepted (the recorder and the next
      // gradient then reuse it).
      ls_values[n_steps] = local.value(w);
      for (std::size_t s = n_steps; s-- > 0;) {
        const double alpha = std::ldexp(1.0, -static_cast<int>(s));
        la::copy(w, trial);
        la::axpy(alpha, p, trial);
        ls_values[s] = local.value(trial);
      }
      ctx.allreduce_sum(ls_values);

      const double pg = la::dot(p, g);
      const double w_sq = la::nrm2_sq(w);
      const double pw = la::dot(p, w);
      const double p_sq = la::nrm2_sq(p);
      const double f0 = ls_values[n_steps] + 0.5 * options.lambda * w_sq;
      double accepted = 0.0;
      double f_accepted = f0;
      for (std::size_t s = 0; s < n_steps; ++s) {
        const double alpha = std::ldexp(1.0, -static_cast<int>(s));
        const double reg = 0.5 * options.lambda *
                           (w_sq + 2.0 * alpha * pw + alpha * alpha * p_sq);
        const double f_alpha = ls_values[s] + reg;
        if (f_alpha <= f0 + alpha * options.armijo_beta * pg) {
          accepted = alpha;
          f_accepted = f_alpha;
          break;  // steps are sorted descending: first hit is the largest
        }
      }
      if (accepted == 0.0) {
        // No Armijo step: fall back to the best decreasing step, if any.
        for (std::size_t s = 0; s < n_steps; ++s) {
          const double alpha = std::ldexp(1.0, -static_cast<int>(s));
          const double reg = 0.5 * options.lambda *
                             (w_sq + 2.0 * alpha * pw + alpha * alpha * p_sq);
          const double f_alpha = ls_values[s] + reg;
          if (f_alpha < f_accepted) {
            accepted = alpha;
            f_accepted = f_alpha;
          }
        }
      }
      if (accepted > 0.0) la::axpy(accepted, p, w);

      const double objective = recorder.record(k + 1, w);
      if (options.objective_target > 0.0 &&
          objective <= options.objective_target) {
        break;  // objective came via allreduce: uniform across ranks
      }
      if (accepted == 0.0) break;  // stagnated
    }
    if (ctx.is_root()) result.x = w;
  }));
  return result;
}

}  // namespace nadmm::baselines
