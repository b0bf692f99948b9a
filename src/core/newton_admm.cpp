#include "core/newton_admm.hpp"

#include <cmath>
#include <memory>

#include "core/admm_worker.hpp"
#include "data/partition.hpp"
#include "la/vector_ops.hpp"
#include "model/softmax.hpp"
#include "support/check.hpp"
#include "support/timer.hpp"

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

  const auto reports = cluster.run([&](comm::RankCtx& ctx) {
    const int rank = ctx.rank();
    // --- setup (untimed: data distribution is not part of an epoch) ---
    ctx.clock().pause();
    const data::RankData& rd = data.ranks[static_cast<std::size_t>(rank)];
    AdmmWorker worker(rd.train, options, dim);
    const data::Dataset& test_shard = rd.test;
    model::SoftmaxObjective* test_eval = nullptr;
    std::unique_ptr<model::SoftmaxObjective> test_eval_owner;
    if (eval_accuracy && !test_shard.empty()) {
      test_eval_owner = std::make_unique<model::SoftmaxObjective>(test_shard, 0.0);
      test_eval = test_eval_owner.get();
    }
    ctx.clock().resume();

    std::vector<double> gathered;  // root only

    WallTimer wall;
    double prev_sim_time = 0.0;
    bool stop = false;

    for (int k = 0; k < options.max_iterations && !stop; ++k) {
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

      // --- diagnostics on the paused clock ---
      ctx.clock().pause();
      const double iter_sim_time = ctx.allreduce_max(ctx.clock().total_seconds());
      double objective = ctx.allreduce_sum(worker.objective().value(z));
      if (options.lambda > 0.0) {
        objective += 0.5 * options.lambda * la::nrm2_sq(z);
      }
      const double primal_sq = ctx.allreduce_sum(
          [&] {
            const double d = la::dist2(worker.x(), z);
            return d * d;
          }());
      const double dz = la::dist2(z, worker.z_prev());
      const double dual_sq = ctx.allreduce_sum(rho * rho * dz * dz);
      const double rho_mean = ctx.allreduce_sum(worker.rho()) / n_ranks;
      double accuracy = -1.0;
      if (eval_accuracy) {
        // Every rank joins the allreduce; a rank whose test shard is
        // empty (more ranks than test rows) contributes zero hits.
        const double local_hits =
            test_eval != nullptr
                ? test_eval->accuracy(z) *
                      static_cast<double>(test_shard.num_samples())
                : 0.0;
        accuracy = ctx.allreduce_sum(local_hits) /
                   static_cast<double>(data.test_samples);
      }
      if (ctx.is_root() && options.record_trace) {
        IterationStats s;
        s.iteration = k + 1;
        s.objective = objective;
        s.test_accuracy = accuracy;
        s.sim_seconds = iter_sim_time;
        s.wall_seconds = wall.seconds();
        s.epoch_sim_seconds = iter_sim_time - prev_sim_time;
        s.comm_sim_seconds = ctx.clock().comm_seconds();
        s.primal_residual = std::sqrt(primal_sq);
        s.dual_residual = std::sqrt(dual_sq);
        s.rho_mean = rho_mean;
        result.trace.push_back(s);
      }
      prev_sim_time = iter_sim_time;
      if (options.primal_tol > 0.0 && options.dual_tol > 0.0 &&
          std::sqrt(primal_sq) <= options.primal_tol &&
          std::sqrt(dual_sq) <= options.dual_tol) {
        stop = true;  // identical on every rank: residuals came via allreduce
      }
      if (options.objective_target > 0.0 &&
          objective <= options.objective_target) {
        stop = true;  // objective came via allreduce: uniform across ranks
      }
      if (ctx.is_root()) {
        result.iterations = k + 1;
        result.final_objective = objective;
        result.final_test_accuracy = accuracy;
        result.total_sim_seconds = iter_sim_time;
        result.total_wall_seconds = wall.seconds();
      }
      ctx.clock().resume();
    }
    if (ctx.is_root()) result.x.assign(worker.z().begin(), worker.z().end());
  });

  result.rank_wait_seconds.reserve(reports.size());
  for (const auto& r : reports) {
    result.rank_wait_seconds.push_back(r.wait_seconds);
  }
  if (result.iterations > 0) {
    result.avg_epoch_sim_seconds =
        result.total_sim_seconds / result.iterations;
  }
  return result;
}

}  // namespace nadmm::core
