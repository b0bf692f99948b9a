// α–β network cost model for the simulated cluster.
//
// The paper's experiments run MPI over 100 Gbps InfiniBand and argue that
// Newton-ADMM's one-communication-round-per-iteration design matters most
// on slower interconnects. We model each point-to-point message as
// `α + bytes/β` (latency + serialization) and collectives as binomial
// trees, which matches the paper's O(log N) gather/scatter remark.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>

namespace nadmm::comm {

// Charging discipline (audited for the async engine, see comm/async.hpp):
//   * Synchronous collectives (comm/cluster.cpp) are barriers — every
//     participant is blocked for the whole collective, so the full
//     formula below is charged to every rank's SimClock.
//   * Asynchronous point-to-point sends must NOT charge `point_to_point`
//     to both endpoints (that would price every message twice). The
//     engine charges the sender `serialization(bytes)` only (its link is
//     busy pushing the message out) and folds the full in-flight time
//     `point_to_point(bytes)` into the delivery timestamp; the receiver
//     pays nothing directly — if it is idle when the message lands, the
//     gap is booked as wait time, not communication.
struct NetworkModel {
  std::string name;
  double latency_s;        ///< α: per-message latency in seconds
  double bandwidth_bps;    ///< β: bytes per second (not bits)

  /// Full in-flight time of one message: α + bytes/β.
  [[nodiscard]] double point_to_point(std::uint64_t bytes) const {
    return latency_s + serialization(bytes);
  }

  /// Sender-side link occupancy alone (the bytes/β term). This is what an
  /// asynchronous sender's clock is charged; the latency α is time the
  /// message spends on the wire, not time either endpoint is busy.
  [[nodiscard]] double serialization(std::uint64_t bytes) const {
    return static_cast<double>(bytes) / bandwidth_bps;
  }

  /// Tree depth for N participants.
  [[nodiscard]] static int tree_depth(int n) {
    int d = 0;
    int span = 1;
    while (span < n) {
      span *= 2;
      ++d;
    }
    return d;
  }

  /// Reduce-then-broadcast allreduce over a binomial tree: each of the
  /// 2·⌈log2 N⌉ rounds moves the full message.
  [[nodiscard]] double allreduce(std::uint64_t bytes, int n) const {
    if (n <= 1) return 0.0;
    return 2.0 * tree_depth(n) * point_to_point(bytes);
  }

  [[nodiscard]] double broadcast(std::uint64_t bytes, int n) const {
    if (n <= 1) return 0.0;
    return tree_depth(n) * point_to_point(bytes);
  }

  /// Gather of one `bytes_per_rank` chunk from each rank: ⌈log2 N⌉ latency
  /// rounds; the root's link carries all (N−1) remote chunks.
  [[nodiscard]] double gather(std::uint64_t bytes_per_rank, int n) const {
    if (n <= 1) return 0.0;
    return tree_depth(n) * latency_s +
           static_cast<double>(n - 1) * static_cast<double>(bytes_per_rank) /
               bandwidth_bps;
  }
};

/// 100 Gbps InfiniBand (the paper's cluster): ~1.5 µs latency, 12.5 GB/s.
inline NetworkModel infiniband_100g() { return {"ib100", 1.5e-6, 12.5e9}; }

/// 10 Gbps Ethernet: ~30 µs latency, 1.25 GB/s.
inline NetworkModel ethernet_10g() { return {"eth10", 30e-6, 1.25e9}; }

/// 1 Gbps Ethernet: ~80 µs latency, 125 MB/s.
inline NetworkModel ethernet_1g() { return {"eth1", 80e-6, 125e6}; }

/// Wide-area link: 5 ms latency, 100 Mbps.
inline NetworkModel wan() { return {"wan", 5e-3, 12.5e6}; }

/// Zero-cost network (isolates compute effects in ablations).
inline NetworkModel ideal_network() { return {"ideal", 0.0, 1e18}; }

/// Look up a preset by name; throws nadmm::InvalidArgument on unknown names.
NetworkModel network_from_string(const std::string& spec);

}  // namespace nadmm::comm
