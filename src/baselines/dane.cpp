#include "baselines/dane.hpp"

#include <cmath>

#include "data/partition.hpp"
#include "la/vector_ops.hpp"
#include "model/softmax.hpp"
#include "solvers/minibatch.hpp"
#include "support/check.hpp"

namespace nadmm::baselines {

core::RunResult inexact_dane(comm::SimCluster& cluster,
                             const data::ShardedDataset& data,
                             const DaneOptions& options) {
  NADMM_CHECK(options.max_iterations >= 1, "dane: need >= 1 iteration");
  NADMM_CHECK(options.tau > 0.0 || !options.accelerate,
              "dane: AIDE needs tau > 0");
  NADMM_CHECK(data.parts() == cluster.size(),
              "dane: shard plan does not match the cluster size");

  core::RunResult result;
  result.solver = options.accelerate ? "aide" : "inexact-dane";
  const int n_ranks = cluster.size();
  const std::size_t dim = data.dim();
  const double n_ranks_d = static_cast<double>(n_ranks);
  const bool eval_accuracy =
      options.evaluate_accuracy && data.test_samples > 0;

  result.record_waits(cluster.run([&](comm::RankCtx& ctx) {
    const int rank = ctx.rank();
    ctx.clock().pause();
    const data::RankData& rd = data.ranks[static_cast<std::size_t>(rank)];
    const data::Dataset& shard = rd.train;
    model::SoftmaxObjective local(shard, /*l2_lambda=*/0.0);
    auto batch_data = solvers::make_batches(shard, options.svrg_batch);
    std::vector<model::SoftmaxObjective> batches;
    batches.reserve(batch_data.size());
    for (const auto& b : batch_data) batches.emplace_back(b, 0.0);
    core::EpochRecorder recorder(ctx, local, options.lambda,
                                 eval_accuracy ? rd.test : data::Dataset{},
                                 eval_accuracy ? data.test_samples : 0,
                                 result);
    ctx.clock().resume();

    std::vector<double> w(dim, 0.0), x_prev(dim, 0.0), y_t(dim, 0.0),
        g_loc(dim), g_avg(dim), linear(dim);
    const double reg_share = options.lambda / n_ranks_d;
    const double cat_share = options.accelerate ? options.tau / n_ranks_d : 0.0;
    const double q = options.lambda / (options.lambda + options.tau);
    const double zeta =
        options.accelerate ? (1.0 - std::sqrt(q)) / (1.0 + std::sqrt(q)) : 0.0;

    solvers::SvrgOptions svrg_opts = options.svrg;

    for (int k = 0; k < options.max_iterations; ++k) {
      // Round 1: average gradient of the (catalyst-augmented) objective.
      local.gradient(w, g_loc);
      for (std::size_t j = 0; j < dim; ++j) {
        g_loc[j] += reg_share * w[j] + cat_share * (w[j] - y_t[j]);
      }
      nadmm::flops::add(4 * dim);
      la::copy(g_loc, g_avg);
      ctx.allreduce_sum(g_avg);
      la::scal(1.0 / n_ranks_d, g_avg);

      // Local subproblem: min f_i(x) + ⟨linear,x⟩ + ridge/2‖x‖² + µ/2‖x−w‖².
      // ridge = reg_share + cat_share carries φ_i's quadratic terms, so the
      // linear part is the DANE correction plus the catalyst cross-term:
      //   linear = −(∇φ_i(w) − η·ḡ) − cat_share·y_t.
      for (std::size_t j = 0; j < dim; ++j) {
        linear[j] = -(g_loc[j] - options.eta * g_avg[j]) - cat_share * y_t[j];
      }
      nadmm::flops::add(3 * dim);
      svrg_opts.seed = options.svrg.seed +
                       static_cast<std::uint64_t>(k) * 1000003ULL +
                       static_cast<std::uint64_t>(rank);
      auto sv = solvers::svrg_minimize(batches, linear,
                                       reg_share + cat_share, options.mu, w,
                                       w, svrg_opts);

      // Round 2: average the local solutions.
      ctx.allreduce_sum(sv.x);
      la::scal(1.0 / n_ranks_d, sv.x);

      if (options.accelerate) {
        // Catalyst extrapolation.
        for (std::size_t j = 0; j < dim; ++j) {
          y_t[j] = sv.x[j] + zeta * (sv.x[j] - x_prev[j]);
        }
        nadmm::flops::add(3 * dim);
        la::copy(sv.x, x_prev);
      }
      la::copy(sv.x, w);

      recorder.record(k + 1, w);
    }
    if (ctx.is_root()) result.x = w;
  }));
  return result;
}

}  // namespace nadmm::baselines
