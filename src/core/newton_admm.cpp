#include "core/newton_admm.hpp"

#include <cmath>

#include "core/admm_worker.hpp"
#include "data/partition.hpp"
#include "la/vector_ops.hpp"
#include "support/check.hpp"

namespace nadmm::core {

RunResult newton_admm(comm::SimCluster& cluster,
                      const data::ShardedDataset& data,
                      const NewtonAdmmOptions& options) {
  NADMM_CHECK(options.max_iterations >= 1, "newton_admm: need >= 1 iteration");
  NADMM_CHECK(options.local_newton_steps >= 1,
              "newton_admm: need >= 1 local Newton step");
  NADMM_CHECK(options.lambda >= 0.0, "newton_admm: lambda must be >= 0");
  NADMM_CHECK(data.parts() == cluster.size(),
              "newton_admm: shard plan does not match the cluster size");

  RunResult result;
  result.solver = "newton-admm";
  const int n_ranks = cluster.size();
  const std::size_t dim = data.dim();
  // Whether the accuracy allreduce runs is a global property (uniform
  // across ranks even when some rank's test shard is empty).
  const bool eval_accuracy =
      options.evaluate_accuracy && data.test_samples > 0;

  result.record_waits(cluster.run([&](comm::RankCtx& ctx) {
    const int rank = ctx.rank();
    // --- setup (untimed: data distribution is not part of an epoch) ---
    ctx.clock().pause();
    const data::RankData& rd = data.ranks[static_cast<std::size_t>(rank)];
    AdmmWorker worker(rd.train, options, dim);
    EpochRecorder recorder(ctx, worker.objective(), options.lambda,
                           eval_accuracy ? rd.test : data::Dataset{},
                           eval_accuracy ? data.test_samples : 0, result);
    ctx.clock().resume();

    std::vector<double> gathered;  // root only

    for (int k = 0; k < options.max_iterations; ++k) {
      // --- local x-update (eq. 6a), ĥ, and the packed contribution ---
      const auto packed = worker.local_step();
      const double rho = worker.round_rho();

      // --- one communication round: gather, z-update (eq. 7), scatter ---
      ctx.gather(packed, gathered, /*root=*/0);
      worker.snapshot_z_prev();
      const auto z = worker.z();
      if (ctx.is_root()) {
        double rho_sum = 0.0;
        la::fill(z, 0.0);
        for (int r = 0; r < n_ranks; ++r) {
          const double* src = gathered.data() +
                              static_cast<std::size_t>(r) * (dim + 1);
          for (std::size_t j = 0; j < dim; ++j) z[j] += src[j];
          rho_sum += src[dim];
        }
        const double denom = options.lambda + rho_sum;
        la::scal(1.0 / denom, z);
        nadmm::flops::add(static_cast<std::uint64_t>(n_ranks) * dim + dim);
      }
      ctx.broadcast(z, /*root=*/0);

      // --- local dual update (eq. 6c) and penalty adaptation (step 8) ---
      worker.apply_consensus(k);

      // --- consensus residuals and the epoch record, on the paused clock ---
      ctx.clock().pause();
      const double dx = la::dist2(worker.x(), z);
      const double dz = la::dist2(z, worker.z_prev());
      AdmmResiduals residuals;
      residuals.primal = std::sqrt(ctx.allreduce_sum(dx * dx));
      residuals.dual = std::sqrt(ctx.allreduce_sum(rho * rho * dz * dz));
      residuals.rho_mean = ctx.allreduce_sum(worker.rho()) / n_ranks;
      ctx.clock().resume();
      const double objective = recorder.record(k + 1, z, residuals);
      // Residuals and objective came via allreduce: uniform across ranks.
      if (options.primal_tol > 0.0 && options.dual_tol > 0.0 &&
          residuals.primal <= options.primal_tol &&
          residuals.dual <= options.dual_tol) {
        break;
      }
      if (options.objective_target > 0.0 &&
          objective <= options.objective_target) {
        break;
      }
    }
    if (ctx.is_root()) result.x.assign(worker.z().begin(), worker.z().end());
  }));
  return result;
}

}  // namespace nadmm::core
