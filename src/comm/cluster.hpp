// In-process simulated distributed runtime.
//
// Substitutes for the paper's MPI cluster (DESIGN.md §2): ranks are
// std::threads running the same SPMD function; collectives are built on a
// generation-counting barrier plus shared staging buffers, and charge
// their NetworkModel cost to every participant's SimClock. All collectives
// must be called by all ranks in the same order (MPI semantics). If any
// rank throws, the cluster aborts the collectives on the other ranks
// (ClusterAborted) and `SimCluster::run` rethrows the first exception.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "comm/clock.hpp"
#include "comm/network_model.hpp"
#include "la/device.hpp"

namespace nadmm::comm {

/// Thrown on surviving ranks when a peer rank failed mid-collective.
class ClusterAborted : public std::runtime_error {
 public:
  ClusterAborted() : std::runtime_error("cluster aborted: a peer rank failed") {}
};

namespace detail {

/// Reusable barrier that can be aborted: on abort, every current and
/// future waiter throws ClusterAborted instead of deadlocking.
class FailableBarrier {
 public:
  explicit FailableBarrier(int participants) : participants_(participants) {}

  void arrive_and_wait();
  void abort();
  /// Clear the abort flag so the cluster can be reused after a failed run.
  void reset();
  [[nodiscard]] bool aborted() const { return failed_.load(); }

 private:
  const int participants_;
  std::mutex mutex_;
  std::condition_variable cv_;
  int waiting_ = 0;
  std::uint64_t generation_ = 0;
  std::atomic<bool> failed_{false};
};

}  // namespace detail

class SimCluster;

/// Per-rank handle passed to the SPMD function. Provides MPI-like
/// collectives; every call charges simulated communication time.
class RankCtx {
 public:
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return size_; }
  [[nodiscard]] bool is_root() const { return rank_ == 0; }
  [[nodiscard]] SimClock& clock() { return clock_; }
  [[nodiscard]] const NetworkModel& network() const;

  /// Synchronize all ranks (no data, no simulated cost).
  void barrier();

  /// In-place elementwise sum across ranks; every rank ends with the total.
  void allreduce_sum(std::span<double> data);

  /// Scalar conveniences.
  [[nodiscard]] double allreduce_sum(double value);
  [[nodiscard]] double allreduce_max(double value);
  [[nodiscard]] double allreduce_min(double value);

  /// Root ends with the concatenation [rank0 | rank1 | ...]; `out` is
  /// resized on the root and untouched elsewhere. All contributions must
  /// have identical length.
  void gather(std::span<const double> in, std::vector<double>& out,
              int root = 0);

  /// Broadcast root's buffer to all ranks (in-place on non-roots).
  void broadcast(std::span<double> data, int root = 0);

 private:
  friend class SimCluster;
  RankCtx(int rank, int size, SimCluster& cluster, la::DeviceModel device)
      : rank_(rank), size_(size), cluster_(&cluster), clock_(std::move(device)) {}

  int rank_;
  int size_;
  SimCluster* cluster_;
  SimClock clock_;
};

/// Rank statistics returned by SimCluster::run.
struct RankReport {
  double compute_seconds = 0.0;
  double comm_seconds = 0.0;
  /// Simulated idle time: for synchronous runs this is the end-to-end
  /// barrier skew (slowest rank's busy time minus this rank's), the time
  /// a fast rank spent parked at barriers waiting for stragglers.
  double wait_seconds = 0.0;
};

/// Owns the shared collective state and the rank threads.
class SimCluster {
 public:
  /// `n` ranks, one shared device model, and a network model. OpenMP
  /// threads inside each rank are limited so that n ranks never
  /// oversubscribe the host; `omp_threads_per_rank` > 0 overrides the
  /// automatic split (the sweep scheduler pins ranks to one thread so
  /// concurrent scenarios neither oversubscribe nor perturb results).
  SimCluster(int n, la::DeviceModel device, NetworkModel network,
             int omp_threads_per_rank = 0);

  /// Heterogeneous cluster: one device model per rank (`devices.size()`
  /// ranks). This is how straggling ranks are modeled — give one rank a
  /// down-rated device and every barrier pays for it.
  SimCluster(std::vector<la::DeviceModel> devices, NetworkModel network,
             int omp_threads_per_rank = 0);

  SimCluster(const SimCluster&) = delete;
  SimCluster& operator=(const SimCluster&) = delete;

  /// Run `fn(ctx)` on every rank; blocks until all ranks finish. Returns
  /// one report per rank. Rethrows the first rank exception, if any.
  std::vector<RankReport> run(const std::function<void(RankCtx&)>& fn);

  [[nodiscard]] int size() const { return size_; }
  [[nodiscard]] const NetworkModel& network() const { return network_; }
  [[nodiscard]] const la::DeviceModel& device(int rank) const {
    return devices_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] const std::vector<la::DeviceModel>& devices() const {
    return devices_;
  }
  [[nodiscard]] int omp_threads_per_rank() const {
    return omp_threads_per_rank_;
  }

 private:
  friend class RankCtx;

  int size_;
  std::vector<la::DeviceModel> devices_;
  NetworkModel network_;
  int omp_threads_per_rank_;
  detail::FailableBarrier barrier_;

  // Collective staging: written between barrier generations only.
  std::vector<std::span<const double>> contributions_;
  // Mutable views for allreduce: round 2 writes the totals directly into
  // every rank's buffer, so the collective needs only two barriers.
  std::vector<std::span<double>> reduce_slots_;
  std::vector<double> scalar_slots_;

  std::mutex error_mutex_;
  std::exception_ptr first_error_;
};

}  // namespace nadmm::comm
