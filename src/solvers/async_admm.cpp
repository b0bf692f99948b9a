#include "solvers/async_admm.hpp"

#include <algorithm>
#include <climits>
#include <memory>
#include <utility>

#include "comm/async.hpp"
#include "core/admm_worker.hpp"
#include "data/partition.hpp"
#include "la/vector_ops.hpp"
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

constexpr std::uint16_t kCheckpointVersion = 2;

/// One applied update, as logged since the last checkpoint: enough to
/// replay the coordinator's commit + release decisions.
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

/// One rank's recoverable worker state: its round counter and its
/// AdmmWorker snapshot.
std::vector<std::uint8_t> worker_bytes(const core::AdmmWorker& worker,
                                       int round) {
  binio::ByteWriter w;
  w.put_i64(round);
  worker.save_checkpoint(w);
  return w.take();
}

/// The coordinator's protocol state. The live handler and the kill
/// replay drive it through the same commit + release calls, so the
/// staleness gate, the sync barrier and the checkpoint field list each
/// exist once.
struct Coordinator {
  Coordinator(int workers, std::size_t dim, double lambda, int tau)
      : n(workers),
        staleness(tau),
        rounds(static_cast<std::size_t>(workers), 0),
        deferred(static_cast<std::size_t>(workers), 0),
        acc(workers, dim, lambda),
        z(dim, 0.0) {}

  /// Fold worker `w`'s update of round `round` into the consensus and
  /// recompute z. True when the commit completes an epoch (every n
  /// commits).
  bool commit(int w, int round, std::span<const double> packed) {
    rounds[static_cast<std::size_t>(w)] = round;
    acc.apply(w, packed);
    acc.compute_z(z);
    ++commits;
    if (commits % static_cast<std::uint64_t>(n) != 0) return false;
    ++epochs;
    return true;
  }

  /// The workers to answer with the current z after `w`'s commit, in
  /// canonical order. A flagged (sync-round) update parks `w` at the
  /// barrier until all n workers arrive, then releases them in arrival
  /// order. Otherwise `w` is answered unless it leads the slowest worker
  /// by more than τ, and every parked worker whose lead this commit
  /// brought back within τ is released in rank order.
  std::vector<int> release(int w, bool flagged) {
    std::vector<int> out;
    if (flagged) {
      barrier.push_back(w);
      if (static_cast<int>(barrier.size()) == n) out.swap(barrier);
      return out;
    }
    const int min_r = *std::min_element(rounds.begin(), rounds.end());
    if (rounds[static_cast<std::size_t>(w)] - min_r <= staleness) {
      out.push_back(w);
    } else {
      deferred[static_cast<std::size_t>(w)] = 1;
    }
    for (int d = 0; d < n; ++d) {
      if (deferred[static_cast<std::size_t>(d)] &&
          rounds[static_cast<std::size_t>(d)] - min_r <= staleness) {
        deferred[static_cast<std::size_t>(d)] = 0;
        out.push_back(d);
      }
    }
    return out;
  }

  void save(binio::ByteWriter& w) const {
    w.put_u64(commits);
    w.put_i64(epochs);
    for (const int r : rounds) w.put_i64(r);
    for (const char d : deferred) w.put_u8(static_cast<std::uint8_t>(d));
    w.put_u64(barrier.size());
    for (const int b : barrier) w.put_i64(b);
    acc.save(w);
    w.put_f64_span(z);
  }

  void restore(binio::ByteReader& r) {
    commits = r.get_u64();
    epochs = static_cast<int>(r.get_i64());
    for (auto& v : rounds) v = static_cast<int>(r.get_i64());
    for (auto& v : deferred) v = static_cast<char>(r.get_u8());
    const std::uint64_t parked = r.get_u64();
    NADMM_CHECK(parked <= static_cast<std::uint64_t>(n),
                "solver checkpoint: barrier larger than the cluster");
    barrier.resize(static_cast<std::size_t>(parked));
    for (auto& v : barrier) v = static_cast<int>(r.get_i64());
    acc.restore(r);
    z = r.get_f64_vector();
    NADMM_CHECK(z.size() == acc.dim(),
                "solver checkpoint: consensus dimension mismatch");
  }

  /// save()'s bytes: what the kill replay compares.
  [[nodiscard]] std::vector<std::uint8_t> bytes() const {
    binio::ByteWriter w;
    save(w);
    return w.take();
  }

  int n;
  int staleness;
  std::vector<int> rounds;     ///< last committed round per worker
  std::vector<char> deferred;  ///< workers parked by the staleness gate
  std::vector<int> barrier;    ///< arrival order of parked sync-round workers
  std::uint64_t commits = 0;
  int epochs = 0;
  core::ConsensusState acc;
  std::vector<double> z;  ///< the consensus the next reply carries
};

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

  // --- untimed setup: workers and the coordinator's test scorers ---
  std::vector<std::unique_ptr<core::AdmmWorker>> workers;
  workers.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    workers.push_back(std::make_unique<core::AdmmWorker>(
        data.ranks[static_cast<std::size_t>(r)].train, admm, dim));
  }
  // The coordinator scores z on each worker's objective through its
  // const value, which leaves the forward pass the worker's next
  // local_step reuses in place. F(z) and the test hit count are summed
  // in rank order, as core::EpochRecorder's allreduce sums them.
  const bool eval_accuracy =
      core::scores_accuracy(data, admm.evaluate_accuracy);
  std::vector<std::unique_ptr<model::SoftmaxObjective>> test_evals;
  for (const data::RankData& rd : data.ranks) {
    if (eval_accuracy && !rd.test.empty()) {
      test_evals.push_back(
          std::make_unique<model::SoftmaxObjective>(rd.test, 0.0));
    }
  }
  const auto diagnose = [&](core::IterationStats& it,
                            std::span<const double> zv) {
    it.objective = 0.0;
    for (const auto& w : workers) it.objective += w->objective().value(zv);
    if (admm.lambda > 0.0) it.objective += 0.5 * admm.lambda * la::nrm2_sq(zv);
    if (!eval_accuracy) return;
    double hits = 0.0;
    for (auto& eval : test_evals) {
      hits += eval->accuracy(zv) * static_cast<double>(eval->num_samples());
    }
    it.test_accuracy = hits / static_cast<double>(data.test_samples);
  };

  // --- coordinator and worker state (the event loop is single-threaded) ---
  Coordinator coord(n, dim, admm.lambda, staleness);
  std::vector<int> worker_round(static_cast<std::size_t>(n), 0);
  bool stopping = false;
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
    ctx.send(0, kTagUpdate, payload);
  };

  // Serialize the full recoverable state: the coordinator, then every
  // rank's worker record. Taken at handler exit (the triggering update
  // fully applied), so replaying the since-checkpoint logs reproduces
  // any later handler state exactly.
  const auto take_checkpoint = [&] {
    binio::ByteWriter w;
    w.put_u16(kCheckpointVersion);
    coord.save(w);
    for (std::size_t r = 0; r < workers.size(); ++r) {
      const auto record = worker_bytes(*workers[r], worker_round[r]);
      w.put_u64(record.size());
      w.put_bytes(record);
    }
    checkpoint = w.take();
    checkpoint_commits = coord.commits;
    commit_log.clear();
    for (auto& log : reply_log) log.clear();
    result.add_metric("checkpoints", 1);
    telem::count("checkpoints");
    telem::instant("fault", "checkpoint");
  };

  const auto maybe_checkpoint = [&](comm::AsyncRank& ctx) {
    if (!checkpointing || stopping) return;
    if (coord.commits - checkpoint_commits <
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
    Coordinator rebuilt(n, dim, admm.lambda, staleness);
    rebuilt.restore(r);

    // Rebuild the victim worker over the same shard/config and replay
    // every consensus delivery it applied since the checkpoint.
    std::unique_ptr<core::AdmmWorker> rejoined;
    int rejoined_round = 0;
    for (int rank = 0; rank < n; ++rank) {
      const std::uint64_t len = r.get_u64();
      const auto record = r.get_raw(static_cast<std::size_t>(len));
      if (rank != victim) continue;
      rejoined = std::make_unique<core::AdmmWorker>(
          data.ranks[static_cast<std::size_t>(victim)].train, admm, dim);
      binio::ByteReader wr(record, "worker checkpoint record");
      rejoined_round = static_cast<int>(wr.get_i64());
      rejoined->restore_checkpoint(wr);
      wr.expect_end();
    }
    r.expect_end();
    for (const ReplyEntry& e : reply_log[static_cast<std::size_t>(victim)]) {
      rejoined->snapshot_z_prev();
      std::copy(e.z.begin(), e.z.end(), rejoined->z().begin());
      rejoined->apply_consensus(e.k);
      rejoined->local_step();
      ++rejoined_round;
    }
    NADMM_CHECK(
        worker_bytes(*workers[static_cast<std::size_t>(victim)],
                     worker_round[static_cast<std::size_t>(victim)]) ==
            worker_bytes(*rejoined, rejoined_round),
        "async_admm kill-rejoin: worker replay diverged from the lost state");
    workers[static_cast<std::size_t>(victim)] = std::move(rejoined);

    if (victim == 0) {
      // The coordinator died too: replay the commit log through the same
      // commit + release the live handler ran, then prove the rebuilt
      // state byte-identical before adopting it.
      for (const CommitEntry& e : commit_log) {
        rebuilt.commit(e.w, e.round, e.packed);
        rebuilt.release(e.w, e.flagged);
      }
      NADMM_CHECK(rebuilt.bytes() == coord.bytes(),
                  "async_admm kill-rejoin: coordinator replay diverged");
      coord = std::move(rebuilt);
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
      ctx.send(w, kTagStop, {});
      return;
    }
    // Deferred to the start of the next update so the kill lands on a
    // clean handler boundary (the logs cut exactly at applied updates).
    if (pending_kill) perform_kill(ctx);
    // Observed staleness: completed rounds ahead of the slowest worker
    // when this update's round started. The reply gate bounded it then,
    // and the minimum only grows, so hist's top bucket stays <= τ.
    const auto& rounds = coord.rounds;
    const auto s = static_cast<std::size_t>(
        rounds[static_cast<std::size_t>(w)] -
        *std::min_element(rounds.begin(), rounds.end()));
    if (hist.size() <= s) hist.resize(s + 1, 0);
    ++hist[s];

    const int round = static_cast<int>(msg.payload[0]);
    const bool flagged = msg.payload[1] != 0.0;
    const auto packed = std::span<const double>(msg.payload).subspan(2);
    const bool epoch_done = coord.commit(w, round, packed);
    if (checkpointing) {
      commit_log.push_back({w, round, flagged, {packed.begin(), packed.end()}});
    }

    if (epoch_done) {
      // --- epoch diagnostics on the paused clock ---
      ctx.clock().pause();
      core::IterationStats it;
      it.iteration = coord.epochs;
      diagnose(it, coord.z);
      it.sim_seconds = ctx.now();
      it.wall_seconds = wall.seconds();
      it.comm_sim_seconds = ctx.clock().comm_seconds();
      it.rho_mean = coord.acc.rho_sum() / n;
      result.append(it);
      if (coord.epochs >= admm.max_iterations ||
          (admm.objective_target > 0.0 &&
           it.objective <= admm.objective_target)) {
        stopping = true;
      }
      if (options.kill_rank >= 0 && !killed && !stopping &&
          coord.epochs == options.kill_epoch) {
        pending_kill = true;
      }
      // Epoch boundary: sample every registered telemetry counter as a
      // Chrome counter event (virtual-time x-axis in the trace).
      telem::snapshot_metrics();
      ctx.clock().resume();
    }

    if (stopping) {
      // The run is over: stop this worker and every parked one.
      ctx.send(w, kTagStop, {});
      for (int d = 0; d < n; ++d) {
        if (coord.deferred[static_cast<std::size_t>(d)]) {
          ctx.send(d, kTagStop, {});
        }
      }
      for (const int b : coord.barrier) ctx.send(b, kTagStop, {});
      return;
    }
    for (const int to : coord.release(w, flagged)) {
      ctx.send(to, kTagConsensus, coord.z);
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

  result.x = coord.z;
  result.record_waits(reports);
  for (const auto& r : reports) {
    result.add_metric("retransmits", r.retransmits);
    result.add_metric("gaps_detected", r.gaps_detected);
    result.add_metric("messages_dropped", r.messages_dropped);
  }
  return result;
}

}  // namespace nadmm::solvers
