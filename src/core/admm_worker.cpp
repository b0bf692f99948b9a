#include "core/admm_worker.hpp"

#include <utility>

#include "la/flops.hpp"
#include "la/vector_ops.hpp"
#include "support/check.hpp"
#include "support/telemetry.hpp"

namespace nadmm::core {

AdmmWorker::AdmmWorker(data::Dataset shard, const NewtonAdmmOptions& options,
                       std::size_t dim)
    : dim_(dim),
      shard_(std::move(shard)),
      local_(shard_, /*l2_lambda=*/0.0),
      x_(dim, 0.0),
      y_(dim, 0.0),
      y_hat_(dim, 0.0),
      z_(dim, 0.0),
      z_prev_(dim, 0.0),
      center_(dim, 0.0),
      packed_(dim + 1, 0.0),
      prox_(local_, options.penalty.rho0, std::vector<double>(dim, 0.0)),
      penalty_(options.penalty, dim) {
  NADMM_CHECK(dim_ == local_.dim(), "admm worker: dimension mismatch");
  newton_opts_.max_iterations = options.local_newton_steps;
  newton_opts_.gradient_tol = 0.0;  // always take the configured steps
  newton_opts_.cg = options.cg;
  newton_opts_.line_search = options.line_search;
}

std::span<const double> AdmmWorker::local_step() {
  TELEM_SPAN("core", "local_step");
  const double rho = penalty_.rho();
  round_rho_ = rho;
  // --- local x-update (eq. 6a) ---
  for (std::size_t j = 0; j < dim_; ++j) center_[j] = z_[j] + y_[j] / rho;
  nadmm::flops::add(2 * dim_);
  prox_.set_center(center_);
  prox_.set_rho(rho);
  auto local_result = solvers::newton_cg(prox_, x_, newton_opts_);
  x_ = std::move(local_result.x);

  // Intermediate dual ĥ_i = y_i + ρ_i(z^k − x_i^{k+1}) for SPS.
  for (std::size_t j = 0; j < dim_; ++j) {
    y_hat_[j] = y_[j] + rho * (z_[j] - x_[j]);
  }
  nadmm::flops::add(3 * dim_);

  // Packed consensus contribution [ρ·x − y ; ρ].
  for (std::size_t j = 0; j < dim_; ++j) packed_[j] = rho * x_[j] - y_[j];
  packed_[dim_] = rho;
  nadmm::flops::add(2 * dim_);
  return packed_;
}

void AdmmWorker::snapshot_z_prev() { la::copy(z_, z_prev_); }

namespace {
constexpr std::uint16_t kWorkerSnapshotVersion = 1;
constexpr std::uint16_t kConsensusSnapshotVersion = 1;
}  // namespace

void AdmmWorker::save_checkpoint(binio::ByteWriter& w) const {
  w.put_u16(kWorkerSnapshotVersion);
  w.put_u64(dim_);
  w.put_f64_span(x_);
  w.put_f64_span(y_);
  w.put_f64_span(y_hat_);
  w.put_f64_span(z_);
  w.put_f64_span(z_prev_);
  w.put_f64(round_rho_);
  penalty_.save(w);
}

void AdmmWorker::restore_checkpoint(binio::ByteReader& r) {
  const std::uint16_t version = r.get_u16();
  NADMM_CHECK(version == kWorkerSnapshotVersion,
              "worker snapshot: unsupported version " +
                  std::to_string(version));
  NADMM_CHECK(r.get_u64() == dim_, "worker snapshot: dimension mismatch");
  x_ = r.get_f64_vector();
  y_ = r.get_f64_vector();
  y_hat_ = r.get_f64_vector();
  z_ = r.get_f64_vector();
  z_prev_ = r.get_f64_vector();
  NADMM_CHECK(x_.size() == dim_ && y_.size() == dim_ && y_hat_.size() == dim_ &&
                  z_.size() == dim_ && z_prev_.size() == dim_,
              "worker snapshot: iterate dimension mismatch");
  round_rho_ = r.get_f64();
  penalty_.restore(r);
  static_cast<void>(local_.value(x_));
}

void AdmmWorker::apply_consensus(int k) {
  const double rho = round_rho_;
  // --- local dual update (eq. 6c) and penalty adaptation (step 8) ---
  for (std::size_t j = 0; j < dim_; ++j) y_[j] += rho * (z_[j] - x_[j]);
  nadmm::flops::add(3 * dim_);
  penalty_.observe(k, x_, z_, z_prev_, y_, y_hat_);
}

ConsensusState::ConsensusState(int workers, std::size_t dim, double lambda)
    : lambda_(lambda),
      sum_(dim, 0.0),
      contrib_(static_cast<std::size_t>(workers),
               std::vector<double>(dim, 0.0)),
      rho_(static_cast<std::size_t>(workers), 0.0) {
  NADMM_CHECK(workers >= 1, "consensus state needs at least one worker");
  NADMM_CHECK(lambda >= 0.0, "consensus state: lambda must be >= 0");
}

void ConsensusState::apply(int w, std::span<const double> packed) {
  TELEM_SPAN("core", "consensus_apply");
  NADMM_CHECK(w >= 0 && static_cast<std::size_t>(w) < contrib_.size(),
              "consensus apply: worker index out of range");
  NADMM_CHECK(packed.size() == sum_.size() + 1,
              "consensus apply: expected [c ; rho] of dim+1 values");
  auto& prev = contrib_[static_cast<std::size_t>(w)];
  for (std::size_t j = 0; j < sum_.size(); ++j) {
    sum_[j] += packed[j] - prev[j];
    prev[j] = packed[j];
  }
  nadmm::flops::add(2 * sum_.size());
  rho_sum_ += packed[sum_.size()] - rho_[static_cast<std::size_t>(w)];
  rho_[static_cast<std::size_t>(w)] = packed[sum_.size()];
}

void ConsensusState::save(binio::ByteWriter& w) const {
  w.put_u16(kConsensusSnapshotVersion);
  w.put_u64(contrib_.size());
  w.put_u64(sum_.size());
  w.put_f64(rho_sum_);
  w.put_f64_span(sum_);
  for (const auto& c : contrib_) w.put_f64_span(c);
  w.put_f64_span(rho_);
}

void ConsensusState::restore(binio::ByteReader& r) {
  const std::uint16_t version = r.get_u16();
  NADMM_CHECK(version == kConsensusSnapshotVersion,
              "consensus snapshot: unsupported version " +
                  std::to_string(version));
  NADMM_CHECK(r.get_u64() == contrib_.size(),
              "consensus snapshot: worker count mismatch");
  NADMM_CHECK(r.get_u64() == sum_.size(),
              "consensus snapshot: dimension mismatch");
  const std::size_t dim = sum_.size();
  rho_sum_ = r.get_f64();
  sum_ = r.get_f64_vector();
  NADMM_CHECK(sum_.size() == dim, "consensus snapshot: sum dimension mismatch");
  for (auto& c : contrib_) {
    c = r.get_f64_vector();
    NADMM_CHECK(c.size() == sum_.size(),
                "consensus snapshot: contribution dimension mismatch");
  }
  rho_ = r.get_f64_vector();
  NADMM_CHECK(rho_.size() == contrib_.size(),
              "consensus snapshot: rho count mismatch");
}

void ConsensusState::compute_z(std::span<double> z) const {
  TELEM_SPAN("core", "consensus_merge");
  NADMM_CHECK(z.size() == sum_.size(), "consensus z: dimension mismatch");
  const double denom = lambda_ + rho_sum_;
  const double inv = 1.0 / denom;
  for (std::size_t j = 0; j < sum_.size(); ++j) z[j] = sum_[j] * inv;
  nadmm::flops::add(sum_.size());
}

}  // namespace nadmm::core
