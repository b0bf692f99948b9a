#include "core/trace.hpp"

#include "la/vector_ops.hpp"

namespace nadmm::core {

EpochRecorder::EpochRecorder(comm::RankCtx& ctx,
                             const model::SoftmaxObjective& local_loss,
                             double lambda, const data::ShardedDataset& data,
                             bool evaluate_accuracy, RunResult& result)
    : ctx_(&ctx),
      local_loss_(&local_loss),
      lambda_(lambda),
      test_total_(scores_accuracy(data, evaluate_accuracy) ? data.test_samples
                                                           : 0),
      result_(&result) {
  const data::Dataset& shard =
      data.ranks[static_cast<std::size_t>(ctx.rank())].test;
  if (test_total_ > 0 && !shard.empty()) {
    test_eval_ = std::make_unique<model::SoftmaxObjective>(shard, 0.0);
  }
}

double EpochRecorder::record(int k, std::span<const double> w,
                             const AdmmResiduals& admm) {
  ctx_->clock().pause();
  const double sim_time = ctx_->allreduce_max(ctx_->clock().total_seconds());
  double objective = ctx_->allreduce_sum(local_loss_->value(w));
  if (lambda_ > 0.0) objective += 0.5 * lambda_ * la::nrm2_sq(w);
  double accuracy = -1.0;
  if (test_total_ > 0) {
    const double hits =
        test_eval_ != nullptr
            ? test_eval_->accuracy(w) *
                  static_cast<double>(test_eval_->num_samples())
            : 0.0;
    accuracy = ctx_->allreduce_sum(hits) / static_cast<double>(test_total_);
  }
  if (ctx_->is_root()) {
    IterationStats s;
    s.iteration = k;
    s.objective = objective;
    s.test_accuracy = accuracy;
    s.sim_seconds = sim_time;
    s.wall_seconds = wall_.seconds();
    s.comm_sim_seconds = ctx_->clock().comm_seconds();
    s.primal_residual = admm.primal;
    s.dual_residual = admm.dual;
    s.rho_mean = admm.rho_mean;
    result_->append(s);
  }
  ctx_->clock().resume();
  return objective;
}

}  // namespace nadmm::core
