// Reusable per-rank ADMM state.
//
// The synchronous solver (core/newton_admm.cpp) and the asynchronous
// runtimes (solvers/async_admm.cpp) execute the same local algebra —
// the eq. 6a Newton-CG x-update, the SPS intermediate dual, the packed
// [ρ·x − y ; ρ] message, and the eq. 6c dual update with penalty
// adaptation. AdmmWorker owns that state so the two runtimes differ only
// in *when* consensus arrives, not in what each rank computes; the
// synchronous solver's numerics are bit-identical to the pre-refactor
// inline code (same operations in the same order, same flop credits).
//
// ConsensusState is the coordinator-side half: the eq. 7 z-update
// maintained incrementally, so folding one worker's new contribution in
// costs O(dim) instead of the O(workers · dim) recompute-from-scratch
// (bench/bench_async.cpp gates this ratio in CI).
#pragma once

#include <span>
#include <vector>

#include "core/newton_admm.hpp"
#include "core/penalty.hpp"
#include "data/dataset.hpp"
#include "model/prox.hpp"
#include "model/softmax.hpp"
#include "solvers/newton.hpp"
#include "support/binio.hpp"

namespace nadmm::core {

class AdmmWorker {
 public:
  /// Takes ownership of this rank's shard. `dim` is the global parameter
  /// dimension p·(C−1).
  AdmmWorker(data::Dataset shard, const NewtonAdmmOptions& options,
             std::size_t dim);

  // The prox objective holds a reference into local_, which points into
  // shard_ — the worker must stay put (heap-allocate to store in
  // containers).
  AdmmWorker(const AdmmWorker&) = delete;
  AdmmWorker& operator=(const AdmmWorker&) = delete;

  /// One local x-update (eq. 6a) against the stored consensus z: warm-
  /// started Newton-CG on the prox-augmented objective, the SPS
  /// intermediate dual ĥ, and the packed message [ρ·x − y ; ρ] (dim+1
  /// values) ready to gather or send. The ρ used here is remembered as
  /// round_rho() until the matching apply_consensus.
  std::span<const double> local_step();

  /// Snapshot z into z_prev before new consensus overwrites it (the
  /// synchronous broadcast writes straight into z()).
  void snapshot_z_prev();

  /// Dual update (eq. 6c) with this round's ρ, then penalty adaptation
  /// (paper step 8) from the fresh iterates. `k` is the 0-based round.
  void apply_consensus(int k);

  /// Mutable consensus buffer: the coordinator's merge and the broadcast
  /// land here.
  [[nodiscard]] std::span<double> z() { return z_; }
  [[nodiscard]] std::span<const double> z_prev() const { return z_prev_; }
  [[nodiscard]] std::span<const double> x() const { return x_; }
  /// Current controller penalty (for the next round / diagnostics).
  [[nodiscard]] double rho() const { return penalty_.rho(); }
  /// The penalty used by the last local_step (diagnostic residuals).
  [[nodiscard]] double round_rho() const { return round_rho_; }
  /// The local loss f_i (λ = 0), scored through its const value.
  [[nodiscard]] const model::SoftmaxObjective& objective() const { return local_; }

  /// Versioned binary snapshot of the iterate state (x, y, ĥ, z, z_prev,
  /// round ρ, penalty memory). The shard and options are not serialized:
  /// a restored worker must be constructed over the same shard and
  /// configuration, after which replaying the post-checkpoint consensus
  /// stream reproduces the live worker bit-for-bit (center_/packed_ are
  /// per-step scratch rebuilt by the next local_step). Restore (on a
  /// paused clock) also warms the forward cache at x, as a live worker's
  /// last Newton-CG step left it, so the next local_step is priced alike.
  void save_checkpoint(binio::ByteWriter& w) const;
  void restore_checkpoint(binio::ByteReader& r);

 private:
  std::size_t dim_;
  data::Dataset shard_;
  model::SoftmaxObjective local_;
  std::vector<double> x_, y_, y_hat_, z_, z_prev_, center_, packed_;
  model::ProxAugmentedObjective prox_;
  PenaltyController penalty_;
  solvers::NewtonOptions newton_opts_;
  double round_rho_ = 0.0;
};

/// Incremental eq. 7 coordinator state:
///   z = Σᵢ(ρᵢ·xᵢ − yᵢ) / (λ + Σᵢρᵢ).
/// Contributions arrive per worker as the packed [c ; ρ] message;
/// `apply` replaces that worker's previous contribution by delta-updating
/// the running sums.
class ConsensusState {
 public:
  ConsensusState(int workers, std::size_t dim, double lambda);

  /// Fold worker `w`'s packed contribution [c₀..c_{dim−1} ; ρ] in,
  /// replacing whatever `w` contributed before. O(dim).
  void apply(int w, std::span<const double> packed);

  /// Write the current consensus into `z`. O(dim).
  void compute_z(std::span<double> z) const;

  [[nodiscard]] double rho(int w) const {
    return rho_[static_cast<std::size_t>(w)];
  }
  [[nodiscard]] double rho_sum() const { return rho_sum_; }
  [[nodiscard]] std::size_t dim() const { return sum_.size(); }

  /// Versioned binary snapshot of the merge state (running sums + the
  /// per-worker contributions they were built from). λ comes from the
  /// constructor; restore validates worker count and dimension.
  void save(binio::ByteWriter& w) const;
  void restore(binio::ByteReader& r);

 private:
  double lambda_;
  double rho_sum_ = 0.0;
  std::vector<double> sum_;                   ///< Σᵢ cᵢ
  std::vector<std::vector<double>> contrib_;  ///< last cᵢ per worker
  std::vector<double> rho_;                   ///< last ρᵢ per worker
};

}  // namespace nadmm::core
