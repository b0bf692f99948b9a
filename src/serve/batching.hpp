// Pluggable request-batching policies for the serving loop.
//
// The server queues arriving requests and asks its policy when to cut a
// batch for the scoring gemm:
//   * immediate      — every request dispatches alone (lowest latency at
//                      low load; collapses when per-dispatch overhead
//                      saturates the device);
//   * size:<B>       — wait for B requests (best amortization; the tail
//                      latency is unbounded during traffic lulls);
//   * deadline:<B>:<T> — dispatch at B requests or once the oldest queued
//                      request has waited T seconds, whichever comes
//                      first (near-size throughput with a bounded tail).
// Policies are pure decision rules; the timer mechanics live in the
// server (serve/server.hpp).
#pragma once

#include <memory>
#include <string>

namespace nadmm::serve {

class BatchPolicy {
 public:
  virtual ~BatchPolicy() = default;
  /// Canonical spec string ("deadline:16:0.005"), echoed in reports.
  [[nodiscard]] virtual std::string name() const = 0;
  /// Most requests one dispatch may gather.
  [[nodiscard]] virtual std::size_t max_batch() const = 0;
  /// True when `queued` pending requests should dispatch without waiting.
  [[nodiscard]] virtual bool ready(std::size_t queued) const = 0;
  /// Longest the oldest queued request may wait before a flush timer
  /// fires (seconds); < 0 disables the timer (flush only on `ready` or
  /// end of stream).
  [[nodiscard]] virtual double max_delay() const { return -1.0; }
};

class ImmediatePolicy final : public BatchPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "immediate"; }
  [[nodiscard]] std::size_t max_batch() const override { return 1; }
  [[nodiscard]] bool ready(std::size_t queued) const override {
    return queued >= 1;
  }
};

class MaxSizePolicy final : public BatchPolicy {
 public:
  explicit MaxSizePolicy(std::size_t batch);
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t max_batch() const override { return batch_; }
  [[nodiscard]] bool ready(std::size_t queued) const override {
    return queued >= batch_;
  }

 private:
  std::size_t batch_;
};

class DeadlinePolicy final : public BatchPolicy {
 public:
  DeadlinePolicy(std::size_t batch, double delay_s);
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t max_batch() const override { return batch_; }
  [[nodiscard]] bool ready(std::size_t queued) const override {
    return queued >= batch_;
  }
  [[nodiscard]] double max_delay() const override { return delay_s_; }

 private:
  std::size_t batch_;
  double delay_s_;
};

/// Build a policy from its spec string:
///   immediate | size:<B> | deadline:<B>:<seconds>
/// Throws InvalidArgument (naming the spec) on malformed input.
std::unique_ptr<BatchPolicy> make_batch_policy(const std::string& spec);

}  // namespace nadmm::serve
