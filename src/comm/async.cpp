#include "comm/async.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <utility>

#include "support/check.hpp"
#include "support/telemetry.hpp"

namespace nadmm::comm {

namespace {

/// Strict-weak ordering for the min-heap: the earliest
/// (delivery_time, seq) pair is the next event. `seq` is globally unique
/// (and increases with send order, so same-timestamp messages keep their
/// send order per rank), making the order total and independent of heap
/// internals — and of which pool slot a message happens to occupy.
constexpr auto event_after = [](const auto& a, const auto& b) {
  if (a.delivery_time != b.delivery_time) {
    return a.delivery_time > b.delivery_time;
  }
  return a.seq > b.seq;
};

/// AsyncMessage::event_kind values. kApp is the only kind an app
/// handler ever observes; the rest are the reliable channel's plumbing.
constexpr std::uint8_t kAppEv = 0;
constexpr std::uint8_t kDataEv = 1;    ///< encoded frame in flight
constexpr std::uint8_t kAckEv = 2;     ///< cumulative ack (link_seq = next)
constexpr std::uint8_t kNackEv = 3;    ///< gap report (link_seq = missing)
constexpr std::uint8_t kTimerEv = 4;   ///< per-link retransmit timeout

/// Retransmission cap per frame. With un-faulted control frames a live
/// receiver is only unreachable if every copy drops, probability
/// p_drop^16 — negligible at the committed grids' 5–10% loss. The cap's
/// real job is draining frames addressed to halted ranks.
constexpr int kMaxAttempts = 16;

}  // namespace

int AsyncRank::size() const { return engine_->size(); }

void AsyncRank::send(int to, int tag, std::span<const double> payload) {
  NADMM_CHECK(to >= 0 && to < engine_->size(),
              "async send: destination rank out of range");
  clock_.sync_compute();  // timestamp after any compute since the last sync
  ++sent_;
  telem::instant("wire", "send");
  telem::count("sends");
  if (engine_->faults_enabled_ && to != rank_) {
    engine_->channel_send(*this, to, tag, payload);
    return;
  }
  const double send_time = clock_.total_seconds();
  double delivery_time = send_time;  // loopback: no wire, no charge
  if (to != rank_) {
    const std::uint64_t bytes = wire::frame_bytes(payload.size());
    // Per-link FIFO: never deliver before the link's previous message.
    // Priced times alone can invert by a rounding step when latency is
    // 0 and frames differ in size (a request overtaken by a shorter
    // Done); the equal-time tie then falls to the earlier seq.
    double& last = engine_->link_last_delivery_[engine_->link_index(rank_, to)];
    delivery_time = std::max(
        last, send_time + engine_->network_.point_to_point(bytes));
    last = delivery_time;
    clock_.add_comm(engine_->network_.serialization(bytes));
  }
  AsyncMessage& m =
      engine_->push_event(kAppEv, rank_, to, send_time, delivery_time);
  m.tag = tag;
  m.payload.assign(payload.begin(), payload.end());
}

void AsyncRank::send_self(int tag, double delay,
                          std::span<const double> payload) {
  NADMM_CHECK(delay >= 0.0, "async send_self: delay must be >= 0");
  clock_.sync_compute();
  const double send_time = clock_.total_seconds();
  AsyncMessage& m = engine_->push_event(kAppEv, rank_, rank_, send_time,
                                        send_time + delay);
  m.tag = tag;
  m.payload.assign(payload.begin(), payload.end());
  ++sent_;
}

AsyncEngine::AsyncEngine(std::vector<la::DeviceModel> devices,
                         NetworkModel network, int omp_threads)
    : devices_(std::move(devices)),
      network_(std::move(network)),
      omp_threads_(omp_threads) {
  NADMM_CHECK(!devices_.empty(), "async engine needs at least one rank");
}

void AsyncEngine::set_faults(const FaultSpec& spec, std::uint64_t seed) {
  NADMM_CHECK(!ran_, "async engine: set_faults must precede run()");
  faults_enabled_ = true;
  fault_spec_ = spec;
  fault_seed_ = seed;
  const std::size_t n = devices_.size();
  fault_links_.clear();
  fault_links_.reserve(n * n);
  for (std::size_t from = 0; from < n; ++from) {
    for (std::size_t to = 0; to < n; ++to) {
      fault_links_.emplace_back(spec, seed, static_cast<int>(from),
                                static_cast<int>(to));
    }
  }
  link_senders_.assign(n * n, LinkSender{});
  link_receivers_.assign(n * n, LinkReceiver{});
}

AsyncMessage& AsyncEngine::push_event(std::uint8_t kind, int from, int to,
                                      double send_time, double delivery_time) {
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  AsyncMessage& m = slots_[slot];
  m.event_kind = kind;
  m.from = from;
  m.to = to;
  m.tag = 0;
  m.send_time = send_time;
  m.delivery_time = delivery_time;
  m.seq = next_seq_++;
  m.link_seq = 0;
  m.peer = -1;
  queue_.push_back({delivery_time, m.seq, slot});
  std::push_heap(queue_.begin(), queue_.end(), event_after);
  return m;
}

void AsyncEngine::channel_send(AsyncRank& sender, int to, int tag,
                               std::span<const double> payload) {
  LinkSender& ls = link_senders_[link_index(sender.rank_, to)];
  wire::Frame frame;
  frame.kind = wire::FrameKind::kData;
  frame.from = sender.rank_;
  frame.to = to;
  frame.tag = tag;
  frame.link_seq = ls.next_seq++;
  frame.payload.assign(payload.begin(), payload.end());
  std::vector<std::uint8_t> bytes;
  {
    TELEM_SPAN("wire", "encode");
    bytes = wire::encode(frame);
  }
  sender.clock_.add_comm(network_.serialization(bytes.size()));
  ls.unacked.emplace(frame.link_seq, Unacked{std::move(bytes), 1});
  transmit(sender.clock_.total_seconds(), sender.rank_, to, frame.link_seq);
}

void AsyncEngine::transmit(double base_time, int from, int to,
                           std::uint64_t seq) {
  const std::size_t link = link_index(from, to);
  LinkSender& ls = link_senders_[link];
  const Unacked& entry = ls.unacked.at(seq);
  const double transit = network_.point_to_point(entry.frame.size());
  const FaultDecision fate = fault_links_[link].next(transit);
  if (fate.drop) {
    telem::instant("wire", "drop");
    telem::count("wire_drops");
  }
  if (!fate.drop) {
    AsyncMessage& ev = push_event(kDataEv, from, to, base_time,
                                  base_time + transit + fate.delay);
    ev.link_seq = seq;
    ev.frame.assign(entry.frame.begin(), entry.frame.end());
    if (fate.corrupt) {
      const std::uint64_t bit =
          fate.corrupt_bit % (static_cast<std::uint64_t>(ev.frame.size()) * 8);
      ev.frame[static_cast<std::size_t>(bit / 8)] ^=
          static_cast<std::uint8_t>(1U << (bit % 8));
    }
    if (fate.duplicate) {
      AsyncMessage& dup = push_event(kDataEv, from, to, base_time,
                                     base_time + transit + fate.dup_delay);
      dup.link_seq = seq;
      dup.frame.assign(entry.frame.begin(), entry.frame.end());  // uncorrupted
    }
  }
  if (!ls.timer_pending) {
    // The timeout covers the worst reorder delay (3 transits) plus the
    // ack's return trip. That does not make every timeout a real loss:
    // the receiver acks at its own clock, which can run far past the
    // frame's arrival while it computes, and the link's one timer, armed
    // by an earlier frame, is not restarted when acks arrive. So a timer
    // can fire before a delivered frame's ack is back and resend frames
    // that were never lost (ROADMAP: "The reliable channel retransmits
    // frames that were never lost").
    const double rto =
        4.0 * (transit + network_.point_to_point(wire::frame_bytes(0)));
    AsyncMessage& timer =
        push_event(kTimerEv, from, from, base_time, base_time + rto);
    timer.peer = to;
    ls.timer_pending = true;
  }
}

void AsyncEngine::send_control(wire::FrameKind kind, int from, int to,
                               std::uint64_t cursor, double base_time) {
  // Control frames are header-only and never faulted: the channel's
  // recovery signal has to be reliable for retransmission to converge,
  // and a lost ack is indistinguishable from a lost frame anyway (the
  // timer retransmits, the receiver discards the duplicate).
  AsyncRank& sender = (*running_ranks_)[static_cast<std::size_t>(from)];
  sender.clock_.add_comm(network_.serialization(wire::frame_bytes(0)));
  if (kind == wire::FrameKind::kAck) {
    telem::instant("wire", "ack");
    telem::count("acks");
  } else {
    telem::instant("wire", "nack");
    telem::count("nacks");
  }
  AsyncMessage& ev = push_event(
      kind == wire::FrameKind::kAck ? kAckEv : kNackEv, from, to, base_time,
      base_time + network_.point_to_point(wire::frame_bytes(0)));
  ev.link_seq = cursor;
}

void AsyncEngine::settle_links(std::vector<AsyncRank>& ranks) {
  // Post-drain accounting for the reliable channel. While events are
  // still in flight, a sender cannot tell a lost frame from a slow one:
  // counting a frame dropped the moment its retry budget runs out would
  // double-count it if a reorder-delayed copy later reaches the (live)
  // receiver. So retirement (retry cap, halted sender) merely stops
  // retransmission, and the verdict is passed here, once the queue has
  // drained and nothing can arrive anymore: a seq still unacked below
  // the receiver's cursor was delivered (its final ack simply raced
  // teardown) and counts as received already; at or above the cursor it
  // was never app-delivered — count it dropped at its destination.
  const std::size_t n = devices_.size();
  for (std::size_t link = 0; link < link_senders_.size(); ++link) {
    LinkSender& ls = link_senders_[link];
    LinkReceiver& lr = link_receivers_[link];
    AsyncRank& dst = ranks[link % n];
    for (const auto& [seq, entry] : ls.unacked) {
      static_cast<void>(entry);
      if (seq >= lr.expected) ++dst.dropped_;
    }
    ls.unacked.clear();
    lr.held.clear();  // held frames are counted via their unacked entries
  }
}

void AsyncEngine::deliver_app(AsyncRank& rank, const AsyncMessage& event,
                              const MessageFn& on_message) {
  if (rank.halted_) {
    ++rank.dropped_;  // mailbox closed: dropped on delivery
    return;
  }
  rank.clock_.wait_until(event.delivery_time);
  rank.clock_.resume();
  ++rank.received_;
  ++delivered_;
  {
    TELEM_SPAN("comm", "deliver");
    on_message(rank, event);
  }
  rank.clock_.sync_compute();
}

void AsyncEngine::handle_data(AsyncMessage& event,
                              const MessageFn& on_message) {
  AsyncRank& dst = (*running_ranks_)[static_cast<std::size_t>(event.to)];
  // A halted mailbox sends no ack: the sender's retry cap converts the
  // frame into a counted drop, keeping conservation exact.
  if (dst.halted_) return;
  const std::size_t link = link_index(event.from, event.to);
  LinkReceiver& lr = link_receivers_[link];
  dst.clock_.wait_until(event.delivery_time);

  wire::Frame frame;
  try {
    TELEM_SPAN("wire", "decode");
    frame = wire::decode(event.frame);
  } catch (const RuntimeError&) {
    // Corrupted in flight — the checksum (or framing) rejected it.
    if (lr.last_nacked != lr.expected) {
      lr.last_nacked = lr.expected;
      send_control(wire::FrameKind::kNack, event.to, event.from, lr.expected,
                   dst.clock_.total_seconds());
    }
    return;
  }

  if (frame.link_seq < lr.expected) {
    // Stale duplicate (or spurious retransmit): discard, refresh ack.
    send_control(wire::FrameKind::kAck, event.to, event.from, lr.expected,
                 dst.clock_.total_seconds());
    return;
  }
  if (frame.link_seq > lr.expected) {
    if (lr.held.find(frame.link_seq) == lr.held.end()) {
      ++dst.gaps_;
      telem::count("gaps_detected");
      lr.held.emplace(frame.link_seq, std::move(frame));
    }
    if (lr.last_nacked != lr.expected) {
      lr.last_nacked = lr.expected;
      send_control(wire::FrameKind::kNack, event.to, event.from, lr.expected,
                   dst.clock_.total_seconds());
    }
    return;
  }

  // The data event's slot becomes the app message in place: times and
  // seq stay the frame's, and the payload buffer trades places with the
  // decoded one.
  const auto deliver = [&](wire::Frame& f) {
    event.event_kind = kAppEv;
    event.from = f.from;
    event.to = f.to;
    event.tag = f.tag;
    event.payload.swap(f.payload);
    dst.clock_.resume();
    ++dst.received_;
    ++delivered_;
    {
      TELEM_SPAN("comm", "deliver");
      on_message(dst, event);
    }
    dst.clock_.sync_compute();
  };

  deliver(frame);
  ++lr.expected;
  // Drain any held successors now unblocked (stop if the handler halted
  // the rank mid-drain: its mailbox just closed).
  while (!dst.halted_) {
    auto it = lr.held.find(lr.expected);
    if (it == lr.held.end()) break;
    deliver(it->second);
    lr.held.erase(it);
    ++lr.expected;
  }
  send_control(wire::FrameKind::kAck, event.to, event.from, lr.expected,
               dst.clock_.total_seconds());
}

void AsyncEngine::handle_control(const AsyncMessage& event) {
  // An ack/nack from R to S reports on the S->R link.
  const int link_from = event.to;
  const int link_to = event.from;
  const std::size_t link = link_index(link_from, link_to);
  LinkSender& ls = link_senders_[link];
  AsyncRank& sender = (*running_ranks_)[static_cast<std::size_t>(link_from)];
  if (!sender.halted_) sender.clock_.wait_until(event.delivery_time);
  // Cumulative: everything below the cursor is delivered.
  while (!ls.unacked.empty() && ls.unacked.begin()->first < event.link_seq) {
    ls.unacked.erase(ls.unacked.begin());
  }
  if (event.event_kind != kNackEv) return;
  auto it = ls.unacked.find(event.link_seq);
  if (it == ls.unacked.end() || sender.halted_) return;
  ++it->second.attempts;
  // Retry budget exhausted: retire the frame (stop retransmitting) but
  // keep the entry — settle_links() decides delivered-vs-dropped after
  // the queue drains, when no late copy can still be in flight.
  if (it->second.attempts > kMaxAttempts) return;
  ++sender.retransmits_;
  telem::instant("wire", "retransmit");
  telem::count("retransmits");
  sender.clock_.add_comm(network_.serialization(it->second.frame.size()));
  transmit(sender.clock_.total_seconds(), link_from, link_to, event.link_seq);
}

void AsyncEngine::handle_timer(const AsyncMessage& event) {
  const int from = event.to;   // the timer lands on the link's sender
  const int to = event.peer;
  const std::size_t link = link_index(from, to);
  LinkSender& ls = link_senders_[link];
  ls.timer_pending = false;
  if (ls.unacked.empty()) return;
  AsyncRank& sender = (*running_ranks_)[static_cast<std::size_t>(from)];
  if (sender.halted_) {
    // The sender is done and will never service this link again, but
    // copies of its unacked frames (and their acks) may still be in
    // flight — leave the entries for settle_links() to judge once the
    // queue has drained.
    return;
  }
  sender.clock_.wait_until(event.delivery_time);
  telem::instant("wire", "rto");
  // transmit() only queues events, so the unacked map holds still while
  // this loop walks it.
  for (auto& [seq, entry] : ls.unacked) {
    ++entry.attempts;
    if (entry.attempts > kMaxAttempts) continue;  // retired, see above
    ++sender.retransmits_;
    telem::instant("wire", "retransmit");
    telem::count("retransmits");
    sender.clock_.add_comm(network_.serialization(entry.frame.size()));
    transmit(sender.clock_.total_seconds(), from, to, seq);
  }
}

std::vector<AsyncRankReport> AsyncEngine::run(const StartFn& on_start,
                                              const MessageFn& on_message) {
  NADMM_CHECK(!ran_, "async engine: run() is single use");
  NADMM_CHECK(static_cast<bool>(on_message), "async engine needs a handler");
  ran_ = true;

#ifdef _OPENMP
  if (omp_threads_ > 0) omp_set_num_threads(omp_threads_);
#else
  static_cast<void>(omp_threads_);
#endif

  link_last_delivery_.assign(devices_.size() * devices_.size(), 0.0);
  std::vector<AsyncRank> ranks;
  ranks.reserve(devices_.size());
  for (std::size_t r = 0; r < devices_.size(); ++r) {
    ranks.push_back(AsyncRank(static_cast<int>(r), *this, devices_[r]));
  }
  running_ranks_ = &ranks;

  // The whole loop runs on this one thread, so the thread-local flop
  // counters are shared by every rank's clock: resume() resynchronizes a
  // clock's counter snapshot before its handler runs, and sync_compute()
  // folds the handler's delta in afterwards.
  if (on_start) {
    for (auto& rank : ranks) {
      // Bind the rank's telemetry track (and its clock for virtual
      // stamps) around every handler; spans opened inside inherit both.
      telem::TrackScope track(rank.rank_, &rank.clock_);
      rank.clock_.resume();
      on_start(rank);
      rank.clock_.sync_compute();
    }
  }

  while (!queue_.empty()) {
    std::pop_heap(queue_.begin(), queue_.end(), event_after);
    const std::uint32_t slot = queue_.back().slot;
    queue_.pop_back();
    // Handlers may grow the deque but never move this slot; it returns to
    // the free list once its handler is done with it.
    AsyncMessage& m = slots_[slot];
    // Every event advances the clock of the rank it lands on (data and
    // app events on m.to, control and timers on the link's sender —
    // also m.to by construction).
    telem::TrackScope track(m.to,
                            &ranks[static_cast<std::size_t>(m.to)].clock_);
    switch (m.event_kind) {
      case kAppEv:
        deliver_app(ranks[static_cast<std::size_t>(m.to)], m, on_message);
        break;
      case kDataEv:
        handle_data(m, on_message);
        break;
      case kAckEv:
      case kNackEv:
        handle_control(m);
        break;
      case kTimerEv:
        handle_timer(m);
        break;
      default:
        NADMM_ASSERT(false && "unknown async event kind");
    }
    free_slots_.push_back(slot);
  }
  running_ranks_ = nullptr;
  settle_links(ranks);

  // Conservation: every app-level send was delivered exactly once or
  // counted as dropped at its destination — nothing vanishes silently.
  std::uint64_t total_sent = 0;
  std::uint64_t total_received = 0;
  std::uint64_t total_dropped = 0;
  for (const auto& rank : ranks) {
    total_sent += rank.sent_;
    total_received += rank.received_;
    total_dropped += rank.dropped_;
  }
  NADMM_ASSERT(total_sent == total_received + total_dropped);

  std::vector<AsyncRankReport> reports(devices_.size());
  for (std::size_t r = 0; r < devices_.size(); ++r) {
    const SimClock& clock = ranks[r].clock_;
    AsyncRankReport& report = reports[r];
    report.compute_seconds = clock.compute_seconds();
    report.comm_seconds = clock.comm_seconds();
    report.wait_seconds = clock.wait_seconds();
    report.messages_sent = ranks[r].sent_;
    report.messages_received = ranks[r].received_;
    report.messages_dropped = ranks[r].dropped_;
    report.retransmits = ranks[r].retransmits_;
    report.gaps_detected = ranks[r].gaps_;
  }
  return reports;
}

}  // namespace nadmm::comm
