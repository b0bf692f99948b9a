// Stale-consensus ADMM on the event-driven runtime (comm/async.hpp).
//
// All ranks are workers; rank 0 additionally coordinates. Each worker
// loops: local Newton-CG x-update (the same core::AdmmWorker step the
// synchronous solver uses) → send [ρ·x − y ; ρ] to the coordinator →
// wait for a consensus reply → dual update → next round. The coordinator
// folds every update into the incremental eq. 7 z-update *on arrival*
// (core::ConsensusState) and replies with the freshest z — no barrier.
//
// Two controls bound how stale the consensus may get:
//   * staleness τ (fully asynchronous mode, sync_every == 0): a worker's
//     reply is deferred while it is more than τ completed rounds ahead of
//     the slowest worker. τ = 0 degenerates to lockstep (synchronous)
//     ADMM; larger τ lets fast ranks run ahead of stragglers.
//   * sync_every k (stale-sync mode, sync_every > 0): workers run freely
//     between barriers, but every k-th round the coordinator holds all
//     replies until the whole cluster reaches the barrier.
//
// An "epoch" is size() applied updates (the same number of local solves
// as one synchronous iteration), which keeps traces and time-to-target
// comparisons between the three solvers meaningful.
#pragma once

#include "comm/cluster.hpp"
#include "core/newton_admm.hpp"
#include "core/trace.hpp"
#include "data/dataset.hpp"

namespace nadmm::solvers {

struct AsyncAdmmOptions {
  /// Local-step knobs, λ, iteration budget, objective target and
  /// accuracy evaluation are shared with the synchronous solver.
  core::NewtonAdmmOptions admm;
  /// τ: how many completed rounds a worker may be ahead of the slowest
  /// worker before its reply is deferred. Ignored when sync_every > 0.
  int staleness = 4;
  /// k > 0: barrier every k rounds (the stale-sync solver); 0: fully
  /// asynchronous with the τ gate.
  int sync_every = 0;
  /// Link-fault injection spec for the engine's reliable channel
  /// ("none" disables the channel; see comm::FaultSpec::parse).
  std::string fault = "none";
  /// Seed for the per-link fault RNG (the experiment seed).
  std::uint64_t seed = 42;
  /// Checkpoint the coordinator + worker mirrors every K applied
  /// updates (0 = off). Required > 0 when a kill is scheduled.
  int checkpoint_every = 0;
  /// Kill rank `kill_rank` once epoch `kill_epoch` completes, then
  /// rejoin it as a fresh worker restored from the last checkpoint +
  /// replay. kill_rank < 0 disables. The restore is validated in-run:
  /// the rejoined state must be byte-identical to the lost one.
  int kill_rank = -1;
  int kill_epoch = 1;
};

/// Run stale-consensus ADMM on the cluster's rank/device/network spec
/// (the cluster's threads are not used — the async engine replays the
/// protocol on virtual time). Rank r trains on `data.ranks[r].train`.
/// Each epoch the coordinator scores z through each worker's const
/// objective value — F(z) and the test hit count summed in rank order, as
/// core::EpochRecorder sums them — on the paused clock, never touching a
/// worker's forward cache, so materialized and streamed plans train and
/// are priced bit-identically. `result.solver` is "async-admm" when
/// sync_every == 0 and "stale-sync-admm" otherwise.
core::RunResult async_admm(comm::SimCluster& cluster,
                           const data::ShardedDataset& data,
                           const AsyncAdmmOptions& options);

}  // namespace nadmm::solvers
