#include "solvers/async_admm.hpp"

#include <algorithm>
#include <climits>
#include <memory>
#include <utility>

#include "comm/async.hpp"
#include "core/admm_worker.hpp"
#include "data/partition.hpp"
#include "la/vector_ops.hpp"
#include "model/metrics.hpp"
#include "model/softmax.hpp"
#include "support/binio.hpp"
#include "support/check.hpp"
#include "support/telemetry.hpp"
#include "support/timer.hpp"

namespace nadmm::solvers {

namespace {

enum : int {
  kTagUpdate = 1,     ///< worker → coordinator: [round, barrier, c.. , ρ]
  kTagConsensus = 2,  ///< coordinator → worker: [z..]
  kTagStop = 3,       ///< coordinator → worker: run is over
};

constexpr std::uint16_t kCheckpointVersion = 1;

/// One applied update, as logged since the last checkpoint: enough to
/// replay the coordinator's commit + reply-gate decisions.
struct CommitEntry {
  int w = 0;
  int round = 0;
  bool flagged = false;
  std::vector<double> packed;  ///< [c ; ρ], dim+1 values
};

/// One consensus delivery a worker applied since the last checkpoint.
struct ReplyEntry {
  int k = 0;              ///< round index passed to apply_consensus
  std::vector<double> z;  ///< the payload the worker copied in
};

std::vector<std::uint8_t> worker_bytes(const core::AdmmWorker& worker) {
  binio::ByteWriter w;
  worker.save_checkpoint(w);
  return w.take();
}

std::vector<std::uint8_t> consensus_bytes(const core::ConsensusState& acc) {
  binio::ByteWriter w;
  acc.save(w);
  return w.take();
}

}  // namespace

core::RunResult async_admm(comm::SimCluster& cluster,
                           const data::ShardedDataset& data,
                           const AsyncAdmmOptions& options) {
  const core::NewtonAdmmOptions& admm = options.admm;
  NADMM_CHECK(admm.max_iterations >= 1, "async_admm: need >= 1 iteration");
  NADMM_CHECK(admm.lambda >= 0.0, "async_admm: lambda must be >= 0");
  NADMM_CHECK(options.staleness >= 0, "async_admm: staleness must be >= 0");
  NADMM_CHECK(options.sync_every >= 0, "async_admm: sync_every must be >= 0");
  NADMM_CHECK(data.parts() == cluster.size(),
              "async_admm: shard plan does not match the cluster size");
  NADMM_CHECK(options.checkpoint_every >= 0,
              "async_admm: checkpoint_every must be >= 0");
  const comm::FaultSpec fault_spec = comm::FaultSpec::parse(options.fault);
  if (options.kill_rank >= 0) {
    NADMM_CHECK(options.kill_rank < cluster.size(),
                "async_admm: kill rank out of range");
    NADMM_CHECK(options.kill_epoch >= 1,
                "async_admm: kill epoch must be >= 1");
    NADMM_CHECK(options.checkpoint_every > 0,
                "async_admm: a kill needs checkpoints — set "
                "--checkpoint-every > 0");
  }

  const int n = cluster.size();
  const std::size_t dim = data.dim();
  // In stale-sync mode the barrier is the only brake on fast workers.
  const int staleness =
      options.sync_every > 0 ? INT_MAX : options.staleness;

  core::RunResult result;
  result.solver = options.sync_every > 0 ? "stale-sync-admm" : "async-admm";

  // --- untimed setup: shards, workers, diagnostic objective ---
  std::vector<std::unique_ptr<core::AdmmWorker>> workers;
  workers.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    workers.push_back(std::make_unique<core::AdmmWorker>(
        data.ranks[static_cast<std::size_t>(r)].train, admm, dim));
  }
  const bool eval_accuracy = admm.evaluate_accuracy && data.test_samples > 0;

  // Coordinator diagnostics. Materialized plans evaluate the full splits
  // (identical numerics to the pre-shard-plan solver); streamed sources
  // have no full matrix, so the objective is the per-shard sum (rank
  // order) and accuracy is the summed per-shard hit count — the same
  // value up to float association, and exactly the same hit count.
  std::unique_ptr<model::SoftmaxObjective> global;
  if (data.has_full()) {
    global = std::make_unique<model::SoftmaxObjective>(data.full_train,
                                                       /*l2_lambda=*/0.0);
  }
  std::vector<std::unique_ptr<model::SoftmaxObjective>> test_evals;
  if (eval_accuracy && !data.has_full()) {
    for (int r = 0; r < n; ++r) {
      const data::Dataset& shard = data.ranks[static_cast<std::size_t>(r)].test;
      test_evals.push_back(
          shard.empty() ? nullptr
                        : std::make_unique<model::SoftmaxObjective>(shard, 0.0));
    }
  }
  const auto diag_objective = [&](std::span<const double> zv) {
    if (global != nullptr) return global->value(zv);
    double sum = 0.0;
    for (auto& w : workers) sum += w->objective().value(zv);
    return sum;
  };
  const auto diag_accuracy = [&](std::span<const double> zv) {
    if (data.has_full()) return model::accuracy(data.full_test, zv);
    double hits = 0.0;
    for (int r = 0; r < n; ++r) {
      auto& eval = test_evals[static_cast<std::size_t>(r)];
      if (eval == nullptr) continue;
      hits += eval->accuracy(zv) *
              static_cast<double>(
                  data.ranks[static_cast<std::size_t>(r)].test.num_samples());
    }
    return hits / static_cast<double>(data.test_samples);
  };

  // --- coordinator state (the event loop is single-threaded) ---
  core::ConsensusState acc(n, dim, admm.lambda);
  std::vector<double> z(dim, 0.0);
  std::vector<int> rounds(static_cast<std::size_t>(n), 0);
  std::vector<int> worker_round(static_cast<std::size_t>(n), 0);
  std::vector<char> deferred(static_cast<std::size_t>(n), 0);
  std::vector<int> barrier;  // arrival order of parked sync-round workers
  barrier.reserve(static_cast<std::size_t>(n));
  std::uint64_t commits = 0;
  int epochs = 0;
  bool stopping = false;
  double prev_sim_time = 0.0;
  std::vector<std::uint64_t>& hist = result.staleness_hist;
  WallTimer wall;

  // --- checkpoint/restart state (all untimed: crash-consistency
  // machinery, not part of the simulated protocol cost) ---
  const bool checkpointing = options.checkpoint_every > 0;
  std::vector<std::uint8_t> checkpoint;      ///< last serialized snapshot
  std::uint64_t checkpoint_commits = 0;      ///< commits at that snapshot
  std::vector<CommitEntry> commit_log;       ///< updates since the snapshot
  std::vector<std::vector<ReplyEntry>> reply_log(static_cast<std::size_t>(n));
  bool pending_kill = false;
  bool killed = false;

  comm::AsyncEngine engine(cluster.devices(), cluster.network(),
                           cluster.omp_threads_per_rank());
  if (options.fault != "none" && !options.fault.empty()) {
    engine.set_faults(fault_spec, options.seed);
  }

  // One local Newton round on this rank, then ship the contribution.
  const auto do_round = [&](comm::AsyncRank& ctx) {
    const int r = ctx.rank();
    const auto packed = workers[static_cast<std::size_t>(r)]->local_step();
    const int round = ++worker_round[static_cast<std::size_t>(r)];
    std::vector<double> payload(dim + 3);
    payload[0] = round;
    payload[1] =
        (options.sync_every > 0 && round % options.sync_every == 0) ? 1.0 : 0.0;
    std::copy(packed.begin(), packed.end(), payload.begin() + 2);
    ctx.send(0, kTagUpdate, std::move(payload));
  };

  const auto reply_z = [&](comm::AsyncRank& ctx, int to) {
    ctx.send(to, kTagConsensus, z);
  };
  const auto reply_stop = [&](comm::AsyncRank& ctx, int to) {
    ctx.send(to, kTagStop, {});
  };

  // Serialize the full recoverable state: coordinator bookkeeping, the
  // consensus accumulator, and every worker's iterate snapshot. Taken at
  // handler exit (the triggering update fully applied), so replaying the
  // since-checkpoint logs reproduces any later handler state exactly.
  const auto take_checkpoint = [&] {
    binio::ByteWriter w;
    w.put_u16(kCheckpointVersion);
    w.put_u64(commits);
    w.put_i64(epochs);
    for (int r = 0; r < n; ++r) {
      w.put_i64(rounds[static_cast<std::size_t>(r)]);
    }
    for (int r = 0; r < n; ++r) {
      w.put_i64(worker_round[static_cast<std::size_t>(r)]);
    }
    for (int r = 0; r < n; ++r) {
      w.put_u8(
          static_cast<std::uint8_t>(deferred[static_cast<std::size_t>(r)]));
    }
    w.put_u64(barrier.size());
    for (const int b : barrier) w.put_i64(b);
    acc.save(w);
    for (int r = 0; r < n; ++r) {
      binio::ByteWriter inner;
      workers[static_cast<std::size_t>(r)]->save_checkpoint(inner);
      w.put_u64(inner.size());
      w.put_bytes(inner.bytes());
    }
    checkpoint = w.take();
    checkpoint_commits = commits;
    commit_log.clear();
    for (auto& log : reply_log) log.clear();
    result.add_metric("checkpoints", 1);
    telem::count("checkpoints");
    telem::instant("fault", "checkpoint");
  };

  const auto maybe_checkpoint = [&](comm::AsyncRank& ctx) {
    if (!checkpointing || stopping) return;
    if (commits - checkpoint_commits <
        static_cast<std::uint64_t>(options.checkpoint_every)) {
      return;
    }
    ctx.clock().pause();  // crash-consistency machinery is untimed
    take_checkpoint();
    ctx.clock().resume();
  };

  // Kill-and-rejoin: discard the victim's live state, restore from the
  // last checkpoint, replay the since-checkpoint logs, and prove the
  // rebuilt state byte-identical to what was lost before adopting it.
  const auto perform_kill = [&](comm::AsyncRank& ctx) {
    pending_kill = false;
    killed = true;
    const int victim = options.kill_rank;
    NADMM_CHECK(!checkpoint.empty(),
                "async_admm: kill at epoch " +
                    std::to_string(options.kill_epoch) +
                    " precedes the first checkpoint — lower "
                    "--checkpoint-every");
    ctx.clock().pause();
    binio::ByteReader r(checkpoint, "solver checkpoint");
    const std::uint16_t version = r.get_u16();
    NADMM_CHECK(version == kCheckpointVersion,
                "solver checkpoint: unsupported version " +
                    std::to_string(version));
    const std::uint64_t commits0 = r.get_u64();
    const int epochs0 = static_cast<int>(r.get_i64());
    std::vector<int> rounds0(static_cast<std::size_t>(n), 0);
    for (auto& v : rounds0) v = static_cast<int>(r.get_i64());
    std::vector<int> worker_round0(static_cast<std::size_t>(n), 0);
    for (auto& v : worker_round0) v = static_cast<int>(r.get_i64());
    std::vector<char> deferred0(static_cast<std::size_t>(n), 0);
    for (auto& v : deferred0) v = static_cast<char>(r.get_u8());
    std::vector<int> barrier0(static_cast<std::size_t>(r.get_u64()), 0);
    for (auto& v : barrier0) v = static_cast<int>(r.get_i64());
    core::ConsensusState acc2(n, dim, admm.lambda);
    acc2.restore(r);

    // Rebuild the victim worker over the same shard/config and replay
    // every consensus delivery it applied since the checkpoint.
    std::unique_ptr<core::AdmmWorker> rejoined;
    for (int rank = 0; rank < n; ++rank) {
      const std::uint64_t len = r.get_u64();
      const auto record = r.get_raw(static_cast<std::size_t>(len));
      if (rank != victim) continue;
      rejoined = std::make_unique<core::AdmmWorker>(
          data.ranks[static_cast<std::size_t>(victim)].train, admm, dim);
      binio::ByteReader wr(record, "worker checkpoint record");
      rejoined->restore_checkpoint(wr);
      wr.expect_end();
    }
    r.expect_end();
    for (const ReplyEntry& e : reply_log[static_cast<std::size_t>(victim)]) {
      rejoined->snapshot_z_prev();
      std::copy(e.z.begin(), e.z.end(), rejoined->z().begin());
      rejoined->apply_consensus(e.k);
      rejoined->local_step();
    }
    // The live worker it replaces holds a warm softmax forward pass at
    // its current x (the last point its Newton-CG evaluated); a cold
    // cache would make the rejoined worker's next local_step recompute
    // it, leaking extra flops into the simulated timeline. Warm it here
    // on the paused clock so the flop ledger matches a run that never
    // lost the rank.
    static_cast<void>(rejoined->objective().value(rejoined->x()));
    NADMM_CHECK(
        worker_bytes(*workers[static_cast<std::size_t>(victim)]) ==
            worker_bytes(*rejoined),
        "async_admm kill-rejoin: worker replay diverged from the lost state");
    workers[static_cast<std::size_t>(victim)] = std::move(rejoined);

    if (victim == 0) {
      // The coordinator died too: replay the commit log through the same
      // per-update logic the live handler ran, then prove every piece of
      // coordinator state matches before adopting the rebuilt copy.
      std::vector<int> rounds2 = rounds0;
      std::vector<char> deferred2 = deferred0;
      std::vector<int> barrier2 = barrier0;
      std::uint64_t commits2 = commits0;
      int epochs2 = epochs0;
      for (const CommitEntry& e : commit_log) {
        rounds2[static_cast<std::size_t>(e.w)] = e.round;
        acc2.apply(e.w, e.packed);
        ++commits2;
        if (commits2 % static_cast<std::uint64_t>(n) == 0) ++epochs2;
        if (e.flagged) {
          barrier2.push_back(e.w);
          if (static_cast<int>(barrier2.size()) == n) barrier2.clear();
          continue;
        }
        const int min_r = *std::min_element(rounds2.begin(), rounds2.end());
        if (rounds2[static_cast<std::size_t>(e.w)] - min_r > staleness) {
          deferred2[static_cast<std::size_t>(e.w)] = 1;
        }
        for (int d = 0; d < n; ++d) {
          if (deferred2[static_cast<std::size_t>(d)] &&
              rounds2[static_cast<std::size_t>(d)] - min_r <= staleness) {
            deferred2[static_cast<std::size_t>(d)] = 0;
          }
        }
      }
      std::vector<int> worker_round2 = worker_round0;
      for (int rank = 0; rank < n; ++rank) {
        worker_round2[static_cast<std::size_t>(rank)] += static_cast<int>(
            reply_log[static_cast<std::size_t>(rank)].size());
      }
      NADMM_CHECK(consensus_bytes(acc2) == consensus_bytes(acc),
                  "async_admm kill-rejoin: consensus replay diverged");
      NADMM_CHECK(rounds2 == rounds && worker_round2 == worker_round &&
                      deferred2 == deferred && barrier2 == barrier &&
                      commits2 == commits && epochs2 == epochs,
                  "async_admm kill-rejoin: coordinator replay diverged");
      std::vector<double> z2(dim, 0.0);
      acc2.compute_z(z2);
      NADMM_CHECK(z2 == z,
                  "async_admm kill-rejoin: consensus iterate diverged");
      acc = std::move(acc2);
      z = std::move(z2);
      rounds = std::move(rounds2);
      worker_round = std::move(worker_round2);
      deferred = std::move(deferred2);
      barrier = std::move(barrier2);
    }
    result.add_metric("restores", 1);
    telem::count("restores");
    telem::instant("fault", "restore");
    ctx.clock().resume();
  };

  const auto coordinator_handle = [&](comm::AsyncRank& ctx,
                                      const comm::AsyncMessage& msg) {
    const int w = msg.from;
    if (stopping) {
      reply_stop(ctx, w);
      return;
    }
    // Deferred to the start of the next update so the kill lands on a
    // clean handler boundary (the logs cut exactly at applied updates).
    if (pending_kill) perform_kill(ctx);
    // Observed staleness: completed rounds ahead of the slowest worker
    // when this update's round started. The reply gate bounded it then,
    // and the minimum only grows, so hist's top bucket stays <= τ.
    const int min_before = *std::min_element(rounds.begin(), rounds.end());
    const auto s = static_cast<std::size_t>(
        rounds[static_cast<std::size_t>(w)] - min_before);
    if (hist.size() <= s) hist.resize(s + 1, 0);
    ++hist[s];

    rounds[static_cast<std::size_t>(w)] = static_cast<int>(msg.payload[0]);
    const bool flagged = msg.payload[1] != 0.0;
    acc.apply(w, std::span<const double>(msg.payload).subspan(2));
    acc.compute_z(z);
    ++commits;
    if (checkpointing) {
      commit_log.push_back(
          {w, rounds[static_cast<std::size_t>(w)], flagged,
           std::vector<double>(msg.payload.begin() + 2, msg.payload.end())});
    }

    if (commits % static_cast<std::uint64_t>(n) == 0) {
      // --- epoch diagnostics on the paused clock ---
      ctx.clock().pause();
      ++epochs;
      double objective = diag_objective(z);
      if (admm.lambda > 0.0) {
        objective += 0.5 * admm.lambda * la::nrm2_sq(z);
      }
      const double accuracy = eval_accuracy ? diag_accuracy(z) : -1.0;
      const double sim_time = ctx.now();
      if (admm.record_trace) {
        core::IterationStats it;
        it.iteration = epochs;
        it.objective = objective;
        it.test_accuracy = accuracy;
        it.sim_seconds = sim_time;
        it.wall_seconds = wall.seconds();
        it.epoch_sim_seconds = sim_time - prev_sim_time;
        it.comm_sim_seconds = ctx.clock().comm_seconds();
        it.rho_mean = acc.rho_sum() / n;
        result.trace.push_back(it);
      }
      prev_sim_time = sim_time;
      result.iterations = epochs;
      result.final_objective = objective;
      result.final_test_accuracy = accuracy;
      result.total_sim_seconds = sim_time;
      result.total_wall_seconds = wall.seconds();
      if (epochs >= admm.max_iterations ||
          (admm.objective_target > 0.0 &&
           objective <= admm.objective_target)) {
        stopping = true;
      }
      if (options.kill_rank >= 0 && !killed && !stopping &&
          epochs == options.kill_epoch) {
        pending_kill = true;
      }
      // Epoch boundary: sample every registered telemetry counter as a
      // Chrome counter event (virtual-time x-axis in the trace).
      telem::snapshot_metrics();
      ctx.clock().resume();
    }

    if (stopping) {
      reply_stop(ctx, w);
      for (int d = 0; d < n; ++d) {
        if (deferred[static_cast<std::size_t>(d)]) {
          deferred[static_cast<std::size_t>(d)] = 0;
          reply_stop(ctx, d);
        }
      }
      for (const int b : barrier) reply_stop(ctx, b);
      barrier.clear();
      return;
    }

    if (flagged) {
      barrier.push_back(w);
      if (static_cast<int>(barrier.size()) == n) {
        for (const int b : barrier) reply_z(ctx, b);
        barrier.clear();
      }
      maybe_checkpoint(ctx);
      return;
    }
    const int min_r = *std::min_element(rounds.begin(), rounds.end());
    if (rounds[static_cast<std::size_t>(w)] - min_r <= staleness) {
      reply_z(ctx, w);
    } else {
      deferred[static_cast<std::size_t>(w)] = 1;
    }
    // This commit may have raised the minimum round; release any parked
    // worker whose lead is back within the bound (rank order — the loop
    // is deterministic either way, but keep replies canonical).
    for (int d = 0; d < n; ++d) {
      if (deferred[static_cast<std::size_t>(d)] &&
          rounds[static_cast<std::size_t>(d)] - min_r <= staleness) {
        deferred[static_cast<std::size_t>(d)] = 0;
        reply_z(ctx, d);
      }
    }
    maybe_checkpoint(ctx);
  };

  const auto reports = engine.run(
      [&](comm::AsyncRank& ctx) { do_round(ctx); },
      [&](comm::AsyncRank& ctx, const comm::AsyncMessage& msg) {
        switch (msg.tag) {
          case kTagUpdate:
            coordinator_handle(ctx, msg);
            break;
          case kTagConsensus: {
            if (checkpointing) {
              reply_log[static_cast<std::size_t>(ctx.rank())].push_back(
                  {worker_round[static_cast<std::size_t>(ctx.rank())] - 1,
                   msg.payload});
            }
            auto& worker = *workers[static_cast<std::size_t>(ctx.rank())];
            worker.snapshot_z_prev();
            std::copy(msg.payload.begin(), msg.payload.end(),
                      worker.z().begin());
            worker.apply_consensus(
                worker_round[static_cast<std::size_t>(ctx.rank())] - 1);
            do_round(ctx);
            break;
          }
          case kTagStop:
            ctx.halt();
            break;
          default:
            NADMM_CHECK(false, "async_admm: unknown message tag");
        }
      });

  result.x = z;
  result.rank_wait_seconds.reserve(reports.size());
  for (const auto& r : reports) {
    result.rank_wait_seconds.push_back(r.wait_seconds);
    result.add_metric("retransmits", r.retransmits);
    result.add_metric("gaps_detected", r.gaps_detected);
    result.add_metric("messages_dropped", r.messages_dropped);
  }
  if (result.iterations > 0) {
    result.avg_epoch_sim_seconds =
        result.total_sim_seconds / result.iterations;
  }
  return result;
}

}  // namespace nadmm::solvers
