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
/// internals.
bool event_after(const AsyncMessage& a, const AsyncMessage& b) {
  if (a.delivery_time != b.delivery_time) {
    return a.delivery_time > b.delivery_time;
  }
  return a.seq > b.seq;
}

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

const NetworkModel& AsyncRank::network() const { return engine_->network(); }

void AsyncRank::send(int to, int tag, std::vector<double> payload) {
  NADMM_CHECK(to >= 0 && to < engine_->size(),
              "async send: destination rank out of range");
  clock_.sync_compute();  // timestamp after any compute since the last sync
  ++sent_;
  telem::instant("wire", "send");
  telem::count("sends");
  if (engine_->faults_enabled_ && to != rank_) {
    engine_->channel_send(*this, to, tag, std::move(payload));
    return;
  }
  AsyncMessage m;
  m.from = rank_;
  m.to = to;
  m.tag = tag;
  m.send_time = clock_.total_seconds();
  if (to == rank_) {
    m.delivery_time = m.send_time;  // loopback: no wire, no charge
  } else {
    const std::uint64_t bytes = wire::frame_bytes(payload.size());
    // Per-link FIFO: never deliver before the link's previous message.
    // Priced times alone can invert by a rounding step when latency is
    // 0 and frames differ in size (a request overtaken by a shorter
    // Done); the equal-time tie then falls to the earlier seq.
    double& last = engine_->link_last_delivery_[engine_->link_index(rank_, to)];
    m.delivery_time = std::max(
        last, m.send_time + engine_->network_.point_to_point(bytes));
    last = m.delivery_time;
    clock_.add_comm(engine_->network_.serialization(bytes));
  }
  m.payload = std::move(payload);
  engine_->push_event(std::move(m));
}

void AsyncRank::send_self(int tag, double delay, std::vector<double> payload) {
  NADMM_CHECK(delay >= 0.0, "async send_self: delay must be >= 0");
  clock_.sync_compute();
  AsyncMessage m;
  m.from = rank_;
  m.to = rank_;
  m.tag = tag;
  m.send_time = clock_.total_seconds();
  m.delivery_time = m.send_time + delay;
  m.payload = std::move(payload);
  ++sent_;
  engine_->push_event(std::move(m));
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

void AsyncEngine::push_event(AsyncMessage message) {
  message.seq = next_seq_++;
  queue_.push_back(std::move(message));
  std::push_heap(queue_.begin(), queue_.end(), event_after);
}

AsyncMessage AsyncEngine::pop_event() {
  std::pop_heap(queue_.begin(), queue_.end(), event_after);
  AsyncMessage m = std::move(queue_.back());
  queue_.pop_back();
  return m;
}

void AsyncEngine::channel_send(AsyncRank& sender, int to, int tag,
                               std::vector<double> payload) {
  LinkSender& ls = link_senders_[link_index(sender.rank_, to)];
  wire::Frame frame;
  frame.kind = wire::FrameKind::kData;
  frame.from = sender.rank_;
  frame.to = to;
  frame.tag = tag;
  frame.link_seq = ls.next_seq++;
  frame.payload = std::move(payload);
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
    AsyncMessage ev;
    ev.event_kind = kDataEv;
    ev.from = from;
    ev.to = to;
    ev.link_seq = seq;
    ev.send_time = base_time;
    ev.frame = entry.frame;
    if (fate.corrupt) {
      const std::uint64_t bit =
          fate.corrupt_bit % (static_cast<std::uint64_t>(ev.frame.size()) * 8);
      ev.frame[static_cast<std::size_t>(bit / 8)] ^=
          static_cast<std::uint8_t>(1U << (bit % 8));
    }
    ev.delivery_time = base_time + transit + fate.delay;
    push_event(std::move(ev));
    if (fate.duplicate) {
      AsyncMessage dup;
      dup.event_kind = kDataEv;
      dup.from = from;
      dup.to = to;
      dup.link_seq = seq;
      dup.send_time = base_time;
      dup.frame = entry.frame;  // the copy travels uncorrupted
      dup.delivery_time = base_time + transit + fate.dup_delay;
      push_event(std::move(dup));
    }
  }
  if (!ls.timer_pending) {
    // Generous timeout: covers the worst reorder delay (3 transits)
    // plus the ack's return trip, so a delivered frame is always acked
    // before its timer fires — abandonment then implies real loss.
    const double rto =
        4.0 * (transit + network_.point_to_point(wire::frame_bytes(0)));
    AsyncMessage timer;
    timer.event_kind = kTimerEv;
    timer.from = from;
    timer.to = from;
    timer.peer = to;
    timer.send_time = base_time;
    timer.delivery_time = base_time + rto;
    push_event(std::move(timer));
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
  AsyncMessage ev;
  ev.event_kind = kind == wire::FrameKind::kAck ? kAckEv : kNackEv;
  ev.from = from;
  ev.to = to;
  ev.link_seq = cursor;
  ev.send_time = base_time;
  ev.delivery_time = base_time + network_.point_to_point(wire::frame_bytes(0));
  push_event(std::move(ev));
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

void AsyncEngine::handle_data(const AsyncMessage& event,
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

  const auto deliver = [&](wire::Frame& f) {
    AsyncMessage app;
    app.from = f.from;
    app.to = f.to;
    app.tag = f.tag;
    app.send_time = event.send_time;
    app.delivery_time = event.delivery_time;
    app.seq = event.seq;
    app.payload = std::move(f.payload);
    dst.clock_.resume();
    ++dst.received_;
    ++delivered_;
    {
      TELEM_SPAN("comm", "deliver");
      on_message(dst, app);
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
  std::vector<std::uint64_t> pending;
  pending.reserve(ls.unacked.size());
  for (const auto& [seq, entry] : ls.unacked) {
    static_cast<void>(entry);
    pending.push_back(seq);
  }
  for (const std::uint64_t seq : pending) {
    auto it = ls.unacked.find(seq);
    if (it == ls.unacked.end()) continue;
    ++it->second.attempts;
    if (it->second.attempts > kMaxAttempts) continue;  // retired, see above
    ++sender.retransmits_;
    telem::instant("wire", "retransmit");
    telem::count("retransmits");
    sender.clock_.add_comm(network_.serialization(it->second.frame.size()));
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
    AsyncMessage m = pop_event();
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
