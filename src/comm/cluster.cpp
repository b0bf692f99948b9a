#include "comm/cluster.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <thread>

#include "la/vector_ops.hpp"
#include "support/check.hpp"

namespace nadmm::comm {

namespace detail {

void FailableBarrier::arrive_and_wait() {
  std::unique_lock lock(mutex_);
  if (failed_.load()) throw ClusterAborted();
  const std::uint64_t generation = generation_;
  if (++waiting_ == participants_) {
    waiting_ = 0;
    ++generation_;
    cv_.notify_all();
    return;
  }
  cv_.wait(lock, [&] { return generation_ != generation || failed_.load(); });
  if (generation_ == generation && failed_.load()) throw ClusterAborted();
}

void FailableBarrier::abort() {
  const std::scoped_lock lock(mutex_);
  failed_.store(true);
  cv_.notify_all();
}

void FailableBarrier::reset() {
  const std::scoped_lock lock(mutex_);
  failed_.store(false);
  waiting_ = 0;
}

}  // namespace detail

SimCluster::SimCluster(int n, la::DeviceModel device, NetworkModel network,
                       int omp_threads_per_rank)
    : SimCluster(std::vector<la::DeviceModel>(
                     static_cast<std::size_t>(std::max(n, 0)), std::move(device)),
                 std::move(network), omp_threads_per_rank) {}

SimCluster::SimCluster(std::vector<la::DeviceModel> devices,
                       NetworkModel network, int omp_threads_per_rank)
    : size_(static_cast<int>(devices.size())),
      devices_(std::move(devices)),
      network_(std::move(network)),
      omp_threads_per_rank_(omp_threads_per_rank),
      barrier_(size_),
      contributions_(static_cast<std::size_t>(size_)),
      reduce_slots_(static_cast<std::size_t>(size_)),
      scalar_slots_(static_cast<std::size_t>(size_), 0.0) {
  NADMM_CHECK(size_ >= 1, "cluster needs at least one rank");
}

std::vector<RankReport> SimCluster::run(
    const std::function<void(RankCtx&)>& fn) {
  first_error_ = nullptr;
  barrier_.reset();
  std::vector<RankReport> reports(static_cast<std::size_t>(size_));

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int omp_threads =
      omp_threads_per_rank_ > 0
          ? omp_threads_per_rank_
          : std::max(1, static_cast<int>(hw) / std::max(1, size_));

  auto worker = [&](int rank) {
    // Limit each rank's OpenMP team so N ranks never oversubscribe the
    // host (the ICV set here is per-thread).
#ifdef _OPENMP
    omp_set_num_threads(omp_threads);
#else
    static_cast<void>(omp_threads);
#endif
    nadmm::flops::reset();
    RankCtx ctx(rank, size_, *this, devices_[static_cast<std::size_t>(rank)]);
    try {
      fn(ctx);
      ctx.clock_.sync_compute();
    } catch (...) {
      {
        const std::scoped_lock lock(error_mutex_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      barrier_.abort();
    }
    RankReport& report = reports[static_cast<std::size_t>(rank)];
    report.compute_seconds = ctx.clock_.compute_seconds();
    report.comm_seconds = ctx.clock_.comm_seconds();
    report.wait_seconds = ctx.clock_.wait_seconds();
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(size_));
  for (int r = 0; r < size_; ++r) threads.emplace_back(worker, r);
  for (auto& t : threads) t.join();

  // Barrier skew: the run ends when the slowest rank does, so every
  // other rank spent the difference parked at barriers.
  double max_busy = 0.0;
  for (const auto& r : reports) {
    max_busy = std::max(max_busy, r.compute_seconds + r.comm_seconds);
  }
  for (auto& r : reports) {
    r.wait_seconds += max_busy - (r.compute_seconds + r.comm_seconds);
  }

  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
  return reports;
}

const NetworkModel& RankCtx::network() const { return cluster_->network_; }

void RankCtx::barrier() {
  clock_.sync_compute();
  cluster_->barrier_.arrive_and_wait();
}

void RankCtx::allreduce_sum(std::span<double> data) {
  clock_.sync_compute();
  SimCluster& c = *cluster_;
  const std::size_t len = data.size();
  c.reduce_slots_[static_cast<std::size_t>(rank_)] = data;
  c.barrier_.arrive_and_wait();

  // Round 2: each rank owns a disjoint slice of the element range, sums
  // it across all ranks in rank order (deterministic), and writes the
  // total directly back into every rank's buffer. The comm charge is
  // folded into this round, so the whole collective costs two barriers
  // (the seed used a third round just to copy totals out of a shared
  // scratch buffer).
  const std::size_t lo = len * static_cast<std::size_t>(rank_) /
                         static_cast<std::size_t>(size_);
  const std::size_t hi = len * (static_cast<std::size_t>(rank_) + 1) /
                         static_cast<std::size_t>(size_);
  for (std::size_t j = lo; j < hi; ++j) {
    double acc = 0.0;
    for (int r = 0; r < size_; ++r) {
      acc += c.reduce_slots_[static_cast<std::size_t>(r)][j];
    }
    for (int r = 0; r < size_; ++r) {
      c.reduce_slots_[static_cast<std::size_t>(r)][j] = acc;
    }
  }
  clock_.add_comm(c.network_.allreduce(len * sizeof(double), size_));
  c.barrier_.arrive_and_wait();
}

double RankCtx::allreduce_sum(double value) {
  allreduce_sum(std::span<double>(&value, 1));
  return value;
}

double RankCtx::allreduce_max(double value) {
  clock_.sync_compute();
  SimCluster& c = *cluster_;
  c.scalar_slots_[static_cast<std::size_t>(rank_)] = value;
  c.barrier_.arrive_and_wait();
  double best = c.scalar_slots_[0];
  for (int r = 1; r < size_; ++r)
    best = std::max(best, c.scalar_slots_[static_cast<std::size_t>(r)]);
  clock_.add_comm(c.network_.allreduce(sizeof(double), size_));
  c.barrier_.arrive_and_wait();
  return best;
}

double RankCtx::allreduce_min(double value) { return -allreduce_max(-value); }

void RankCtx::gather(std::span<const double> in, std::vector<double>& out,
                     int root) {
  clock_.sync_compute();
  SimCluster& c = *cluster_;
  c.contributions_[static_cast<std::size_t>(rank_)] = in;
  if (rank_ == root) {
    out.resize(in.size() * static_cast<std::size_t>(size_));
  }
  c.barrier_.arrive_and_wait();
  if (rank_ == root) {
    for (int r = 0; r < size_; ++r) {
      const auto src = c.contributions_[static_cast<std::size_t>(r)];
      NADMM_CHECK(src.size() == in.size(),
                  "gather: all contributions must have equal length");
      std::copy(src.begin(), src.end(),
                out.begin() + static_cast<std::ptrdiff_t>(
                                  static_cast<std::size_t>(r) * in.size()));
    }
  }
  clock_.add_comm(c.network_.gather(in.size() * sizeof(double), size_));
  c.barrier_.arrive_and_wait();
}

void RankCtx::broadcast(std::span<double> data, int root) {
  clock_.sync_compute();
  SimCluster& c = *cluster_;
  if (rank_ == root) c.contributions_[static_cast<std::size_t>(root)] = data;
  c.barrier_.arrive_and_wait();
  if (rank_ != root) {
    const auto src = c.contributions_[static_cast<std::size_t>(root)];
    NADMM_CHECK(src.size() == data.size(), "broadcast: buffer size mismatch");
    std::copy(src.begin(), src.end(), data.begin());
  }
  clock_.add_comm(c.network_.broadcast(data.size() * sizeof(double), size_));
  c.barrier_.arrive_and_wait();
}

}  // namespace nadmm::comm
