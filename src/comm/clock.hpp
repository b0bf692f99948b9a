// Per-rank simulated clock.
//
// Tracks two components:
//   * compute seconds — flops executed and bytes moved on this rank
//     (polled from the thread-local counters in la/flops.hpp), priced by
//     the device's roofline: each sync interval costs
//     max(flops / flop_rate, bytes / bandwidth);
//   * communication seconds — collective costs from the NetworkModel;
//   * wait seconds — idle time spent blocked on a peer (the async event
//     engine advances a rank's clock to a message's delivery time with
//     wait_until; synchronous collectives never wait, their barrier skew
//     is reported separately by SimCluster).
// Figures report simulated time so results are deterministic and
// independent of host load; wall-clock is tracked alongside for sanity.
#pragma once

#include <cstdint>

#include "la/device.hpp"
#include "la/flops.hpp"

namespace nadmm::comm {

class SimClock {
 public:
  explicit SimClock(la::DeviceModel device = la::p100_device())
      : device_(std::move(device)),
        flops_at_last_sync_(nadmm::flops::read()),
        bytes_at_last_sync_(nadmm::flops::read_bytes()) {}

  /// Fold any flops/bytes executed since the last call into compute time
  /// under the device roofline. Must be called from the rank's own thread.
  void sync_compute() {
    const std::uint64_t now = nadmm::flops::read();
    const std::uint64_t now_bytes = nadmm::flops::read_bytes();
    if (now < flops_at_last_sync_ || now_bytes < bytes_at_last_sync_) {
      // The thread-local counters were reset behind our back (e.g. a
      // caller ran flops::reset() after constructing the clock).
      // Resynchronize instead of underflowing the unsigned deltas.
      flops_at_last_sync_ = now;
      bytes_at_last_sync_ = now_bytes;
      return;
    }
    const std::uint64_t df = now - flops_at_last_sync_;
    const std::uint64_t db = now_bytes - bytes_at_last_sync_;
    // An empty interval prices to exactly 0 s (max(0/peak, 0/bw)), so
    // skipping it moves no bit.
    if (!paused_ && (df != 0 || db != 0)) {
      total_flops_ += df;
      total_bytes_ += db;
      compute_s_ += device_.seconds_for(df, db);
    }
    flops_at_last_sync_ = now;
    bytes_at_last_sync_ = now_bytes;
  }

  /// Charge communication time (from the NetworkModel formulas).
  void add_comm(double seconds) {
    if (!paused_) comm_s_ += seconds;
  }

  /// Diagnostics (trace objective values, accuracy evaluations) run inside
  /// a paused scope so they do not distort the simulated epoch times the
  /// figures report. Nesting is not supported.
  void pause() {
    sync_compute();
    paused_ = true;
  }
  void resume() {
    flops_at_last_sync_ = nadmm::flops::read();
    bytes_at_last_sync_ = nadmm::flops::read_bytes();
    paused_ = false;
  }

  /// Charge explicit compute seconds (for work not expressed in flops).
  void add_compute(double seconds) { compute_s_ += seconds; }

  /// Advance the clock to absolute simulated time `t`, booking the gap as
  /// idle wait (a rank sleeping until a message delivery). No-op when `t`
  /// is not in the future.
  void wait_until(double t) {
    const double now = total_seconds();
    if (t > now) wait_s_ += t - now;
  }

  /// Simulated time including compute executed since the last
  /// sync_compute(), priced as if it were folded in right now. Unlike
  /// sync_compute() this never mutates the clock, so observers (the
  /// telemetry tracer stamps spans with it) cannot perturb the priced
  /// timeline: the roofline max() is non-additive, so introducing extra
  /// sync points would change where interval boundaries fall.
  [[nodiscard]] double projected_seconds() const {
    if (paused_) return total_seconds();
    const std::uint64_t now = nadmm::flops::read();
    const std::uint64_t now_bytes = nadmm::flops::read_bytes();
    if (now < flops_at_last_sync_ || now_bytes < bytes_at_last_sync_) {
      // Counters were reset behind our back; pending deltas are unknowable.
      return total_seconds();
    }
    return total_seconds() + device_.seconds_for(now - flops_at_last_sync_,
                                                 now_bytes - bytes_at_last_sync_);
  }

  [[nodiscard]] double compute_seconds() const { return compute_s_; }
  [[nodiscard]] double comm_seconds() const { return comm_s_; }
  [[nodiscard]] double wait_seconds() const { return wait_s_; }
  [[nodiscard]] double total_seconds() const {
    return compute_s_ + comm_s_ + wait_s_;
  }
  [[nodiscard]] std::uint64_t total_flops() const { return total_flops_; }
  [[nodiscard]] std::uint64_t total_bytes() const { return total_bytes_; }
  [[nodiscard]] const la::DeviceModel& device() const { return device_; }

  void reset() {
    compute_s_ = comm_s_ = wait_s_ = 0.0;
    total_flops_ = 0;
    total_bytes_ = 0;
    flops_at_last_sync_ = nadmm::flops::read();
    bytes_at_last_sync_ = nadmm::flops::read_bytes();
  }

 private:
  la::DeviceModel device_;
  bool paused_ = false;
  double compute_s_ = 0.0;
  double comm_s_ = 0.0;
  double wait_s_ = 0.0;
  std::uint64_t total_flops_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t flops_at_last_sync_ = 0;
  std::uint64_t bytes_at_last_sync_ = 0;
};

}  // namespace nadmm::comm
