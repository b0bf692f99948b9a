// Event-driven asynchronous runtime on virtual time.
//
// The synchronous SimCluster can only express SPMD ranks meeting at
// barriers — it cannot model the paper's most interesting regime, where
// ranks are heterogeneous, the interconnect is slow, and nobody waits.
// This engine fills that gap: each rank owns a mailbox of timestamped
// messages; point-to-point sends are priced by the NetworkModel (the
// sender's clock is charged the serialization term only, and the full
// in-flight time `point_to_point` becomes the delivery timestamp — see
// the charging-discipline note in network_model.hpp); a message handler
// runs on the destination rank at max(rank clock, delivery time), with
// any gap booked as idle wait.
//
// Messages are priced as wire frames (comm/wire.hpp): header + payload,
// not bare payload bytes. With faults enabled (`set_faults`), remote
// sends actually travel as encoded frames through a per-link reliable
// channel — sequence numbers, checksums, ack/nack, timeout retransmit —
// and a seeded FaultModel drops/duplicates/reorders/corrupts frames in
// flight. The app handler still sees exactly one in-order delivery per
// send (or none, if the channel abandons the frame after repeated loss).
//
// Determinism: delivery follows the strict total order
// (delivery_time, seq), where `seq` is a global send counter — unique,
// so no further tiebreak (e.g. by rank) can ever be reached. The event
// loop is single-threaded, and fault decisions consume a fixed number
// of per-link RNG draws per transmission, so two runs of the same
// (configuration, fault spec, seed) replay byte-identical schedules
// regardless of host load, sweep-pool interleaving, or how many
// scenarios run concurrently.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <map>
#include <span>
#include <vector>

#include "comm/clock.hpp"
#include "comm/fault.hpp"
#include "comm/network_model.hpp"
#include "comm/wire.hpp"
#include "la/device.hpp"

namespace nadmm::comm {

/// One timestamped mailbox entry. The engine keeps messages in a pool of
/// recycled slots: a handler reads its message in place, and the
/// reference is valid only until the handler returns — copy out whatever
/// must outlive the call (the slot and its payload buffer are reused).
struct AsyncMessage {
  int from = -1;
  int to = -1;
  int tag = 0;               ///< protocol-defined discriminator
  double send_time = 0.0;     ///< sender's clock when the send was issued
  double delivery_time = 0.0; ///< send_time + point_to_point(frame bytes)
  std::uint64_t seq = 0;      ///< global send order (deterministic tiebreak)
  std::vector<double> payload;

  // Engine-internal routing for the fault-mode reliable channel; app
  // handlers only ever observe event_kind == 0 (an app delivery).
  std::uint8_t event_kind = 0;        ///< detail::EventKind
  std::uint64_t link_seq = 0;         ///< per-link seq / ack cursor
  int peer = -1;                      ///< retry-timer link destination
  std::vector<std::uint8_t> frame;    ///< encoded bytes (fault-mode data)
};

/// Per-rank statistics returned by AsyncEngine::run.
struct AsyncRankReport {
  double compute_seconds = 0.0;
  double comm_seconds = 0.0;   ///< serialization charges for sent frames
  double wait_seconds = 0.0;   ///< idle time between handler invocations
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  /// Messages addressed to this rank that were never delivered: dropped
  /// on a halted mailbox, or abandoned by the reliable channel after
  /// exhausting retransmit attempts.
  std::uint64_t messages_dropped = 0;
  std::uint64_t retransmits = 0;     ///< data frames re-sent by this rank
  std::uint64_t gaps_detected = 0;   ///< out-of-order holds at this rank
};

class AsyncEngine;

/// Handle passed to the start and message handlers of one rank.
class AsyncRank {
 public:
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const;
  /// This rank's current virtual time (compute + comm + wait).
  [[nodiscard]] double now() { return clock_.total_seconds(); }
  [[nodiscard]] SimClock& clock() { return clock_; }
  [[nodiscard]] const NetworkModel& network() const;

  /// Post a copy of `payload` to rank `to`. The message is delivered at
  /// now() + point_to_point(frame bytes), but never before the previous
  /// send on the same link (per-link FIFO); the sender's clock is charged
  /// the serialization term. Loopback sends (to == rank()) are free and
  /// deliver at now().
  void send(int to, int tag, std::span<const double> payload);
  void send(int to, int tag, std::initializer_list<double> payload) {
    send(to, tag, std::span<const double>(payload.begin(), payload.size()));
  }

  /// Self-message after `delay` simulated seconds (a timer). Free.
  void send_self(int tag, double delay, std::span<const double> payload = {});
  void send_self(int tag, double delay, std::initializer_list<double> payload) {
    send_self(tag, delay,
              std::span<const double>(payload.begin(), payload.size()));
  }

  /// Stop accepting messages: anything still in flight toward this rank
  /// is dropped on delivery (and counted in messages_dropped).
  void halt() { halted_ = true; }
  [[nodiscard]] bool halted() const { return halted_; }

 private:
  friend class AsyncEngine;
  AsyncRank(int rank, AsyncEngine& engine, la::DeviceModel device)
      : rank_(rank), engine_(&engine), clock_(std::move(device)) {}

  int rank_;
  AsyncEngine* engine_;
  SimClock clock_;
  bool halted_ = false;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t gaps_ = 0;
};

/// The virtual-time scheduler. Construct with one device model per rank,
/// then `run(on_start, on_message)`: every rank's start handler executes
/// at time 0 (in rank order), after which messages are delivered in the
/// (delivery_time, seq) total order until the queue drains or
/// every rank has halted.
class AsyncEngine {
 public:
  /// `omp_threads` pins the OpenMP team used by handler compute; 0 keeps
  /// the calling thread's current setting (the whole event loop runs on
  /// one thread, so there is no per-rank split to derive).
  AsyncEngine(std::vector<la::DeviceModel> devices, NetworkModel network,
              int omp_threads = 0);

  /// Route remote sends through the fault-injecting reliable channel.
  /// Must be called before run(). A spec with all probabilities zero
  /// still enables the channel (frames, acks, timers flow), which is
  /// how the retransmit-overhead bench isolates channel cost.
  void set_faults(const FaultSpec& spec, std::uint64_t seed);

  using StartFn = std::function<void(AsyncRank&)>;
  using MessageFn = std::function<void(AsyncRank&, const AsyncMessage&)>;

  /// Execute the protocol; single use (construct a fresh engine per run).
  std::vector<AsyncRankReport> run(const StartFn& on_start,
                                   const MessageFn& on_message);

  [[nodiscard]] int size() const { return static_cast<int>(devices_.size()); }
  [[nodiscard]] const NetworkModel& network() const { return network_; }
  [[nodiscard]] std::uint64_t messages_delivered() const { return delivered_; }

 private:
  friend class AsyncRank;

  /// Reliable-channel state for one directed link (from, to).
  struct Unacked {
    std::vector<std::uint8_t> frame;  ///< canonical encoded bytes
    int attempts = 1;                 ///< transmissions so far
  };
  struct LinkSender {
    std::uint64_t next_seq = 0;
    std::map<std::uint64_t, Unacked> unacked;  ///< deterministic order
    bool timer_pending = false;
  };
  struct LinkReceiver {
    std::uint64_t expected = 0;                ///< next in-order seq
    std::map<std::uint64_t, wire::Frame> held; ///< out-of-order buffer
    /// Last seq nacked while `expected` was stuck there — suppresses a
    /// nack storm when many successors of one lost frame arrive; the
    /// retransmit timer backstops a lost retransmission.
    std::uint64_t last_nacked = ~0ULL;
  };

  /// Heap entry: the delivery order key and the slot holding the message.
  struct EventKey {
    double delivery_time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// Take a free slot, stamp it with the next `seq` and queue it for
  /// `delivery_time`. The caller fills in the rest (payload, frame, tag…)
  /// before returning to the event loop; buffers keep their capacity.
  AsyncMessage& push_event(std::uint8_t kind, int from, int to,
                           double send_time, double delivery_time);

  std::size_t link_index(int from, int to) const {
    return static_cast<std::size_t>(from) * devices_.size() +
           static_cast<std::size_t>(to);
  }
  void channel_send(AsyncRank& sender, int to, int tag,
                    std::span<const double> payload);
  void transmit(double base_time, int from, int to, std::uint64_t seq);
  void send_control(wire::FrameKind kind, int from, int to,
                    std::uint64_t cursor, double base_time);
  void settle_links(std::vector<AsyncRank>& ranks);
  void handle_data(AsyncMessage& event, const MessageFn& on_message);
  void handle_control(const AsyncMessage& event);
  void handle_timer(const AsyncMessage& event);
  void deliver_app(AsyncRank& rank, const AsyncMessage& event,
                   const MessageFn& on_message);

  std::vector<la::DeviceModel> devices_;
  NetworkModel network_;
  int omp_threads_;
  std::vector<EventKey> queue_;  ///< binary min-heap, see event_after
  /// Message slots. A deque, so a handler's message stays put while the
  /// handler's sends grow the pool; `free_slots_` lists reusable ones.
  std::deque<AsyncMessage> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t delivered_ = 0;
  /// Delivery time of the last plain-path send per link (from, to).
  std::vector<double> link_last_delivery_;
  bool ran_ = false;

  bool faults_enabled_ = false;
  FaultSpec fault_spec_;
  std::uint64_t fault_seed_ = 0;
  std::vector<FaultModel> fault_links_;
  std::vector<LinkSender> link_senders_;
  std::vector<LinkReceiver> link_receivers_;
  std::vector<AsyncRank>* running_ranks_ = nullptr;
};

}  // namespace nadmm::comm
