// Tests for the event-driven async runtime (comm/async.*), the
// stale-consensus solvers built on it (solvers/async_admm.*), and the
// heterogeneous-cluster / straggler plumbing in the runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "comm/async.hpp"
#include "comm/fault.hpp"
#include "core/trace.hpp"
#include "runner/harness.hpp"
#include "runner/registry.hpp"
#include "runner/sweep.hpp"
#include "support/check.hpp"

namespace nadmm {
namespace {

// ------------------------------------------------------------- engine

la::DeviceModel unit_device() { return {"unit", 1.0}; }  // 1 GF/s

TEST(AsyncEngine, DeliversInVirtualTimeOrder) {
  // Rank 0 posts three self-timers out of order; delivery must follow
  // (delivery_time, seq) regardless of send order.
  comm::AsyncEngine engine({unit_device()}, comm::ideal_network());
  std::vector<int> tags;
  engine.run(
      [&](comm::AsyncRank& ctx) {
        ctx.send_self(/*tag=*/3, /*delay=*/3.0);
        ctx.send_self(/*tag=*/1, /*delay=*/1.0);
        ctx.send_self(/*tag=*/2, /*delay=*/2.0);
        ctx.send_self(/*tag=*/11, /*delay=*/1.0);  // ties break by seq
      },
      [&](comm::AsyncRank&, const comm::AsyncMessage& msg) {
        tags.push_back(msg.tag);
      });
  EXPECT_EQ(tags, (std::vector<int>{1, 11, 2, 3}));
}

TEST(AsyncEngine, KeepsPerLinkFifoOnAZeroLatencyNetwork) {
  // On `ideal` (latency 0, 1e18 B/s) a 64-byte frame and the 48-byte
  // frame sent right after it land within half an ulp of each other, so
  // rounding alone could let the second overtake the first. Each timer
  // sends a two-double message, then an empty one: the receiver must see
  // them in send order, every time.
  constexpr int kRounds = 2000;
  comm::AsyncEngine engine({unit_device(), unit_device()},
                           comm::ideal_network());
  std::vector<int> tags;
  int rounds = 0;
  engine.run(
      [&](comm::AsyncRank& ctx) {
        if (ctx.rank() == 0) ctx.send_self(/*tag=*/0, /*delay=*/0.5);
      },
      [&](comm::AsyncRank& ctx, const comm::AsyncMessage& msg) {
        if (ctx.rank() == 1) {
          tags.push_back(msg.tag);
          return;
        }
        ctx.send(1, /*tag=*/1, {1.0, 2.0});
        ctx.send(1, /*tag=*/2, {});
        if (++rounds < kRounds) ctx.send_self(/*tag=*/0, /*delay=*/2.5e-4);
      });
  ASSERT_EQ(tags.size(), static_cast<std::size_t>(2 * kRounds));
  for (std::size_t i = 0; i < tags.size(); ++i) {
    ASSERT_EQ(tags[i], i % 2 == 0 ? 1 : 2) << "delivery " << i;
  }
}

TEST(AsyncEngine, SenderPaysSerializationReceiverWaits) {
  // A 125-double message travels as a wire frame: 48-byte header +
  // 1000 payload bytes. On a 1 ms / 1 MB/s network the sender's clock
  // must be charged the serialization term only (not the full in-flight
  // time), and the idle receiver books the delivery gap as wait time —
  // nobody is double-charged.
  comm::NetworkModel net{"t", 1e-3, 1e6};
  const std::uint64_t bytes = comm::wire::frame_bytes(125);
  EXPECT_EQ(bytes, 1048u);
  const double ser = net.serialization(bytes);
  EXPECT_DOUBLE_EQ(ser, 1.048e-3);
  EXPECT_DOUBLE_EQ(net.point_to_point(bytes), net.latency_s + ser);

  comm::AsyncEngine engine({unit_device(), unit_device()}, net);
  double delivery = -1.0;
  const auto reports = engine.run(
      [&](comm::AsyncRank& ctx) {
        if (ctx.rank() == 0) {
          ctx.send(1, /*tag=*/7, std::vector<double>(125, 1.0));
        }
      },
      [&](comm::AsyncRank& ctx, const comm::AsyncMessage& msg) {
        delivery = msg.delivery_time;
        EXPECT_EQ(ctx.rank(), 1);
        EXPECT_EQ(msg.from, 0);
        EXPECT_EQ(msg.tag, 7);
      });
  EXPECT_DOUBLE_EQ(delivery, net.latency_s + ser);
  EXPECT_DOUBLE_EQ(reports[0].comm_seconds, ser);    // serialization only
  EXPECT_DOUBLE_EQ(reports[0].wait_seconds, 0.0);
  EXPECT_DOUBLE_EQ(reports[1].comm_seconds, 0.0);    // receiving is free
  EXPECT_DOUBLE_EQ(reports[1].wait_seconds, delivery);  // idle until then
  EXPECT_EQ(reports[0].messages_sent, 1u);
  EXPECT_EQ(reports[1].messages_received, 1u);
}

TEST(AsyncEngine, LoopbackSendsAreFree) {
  comm::AsyncEngine engine({unit_device()}, comm::wan());
  const auto reports = engine.run(
      [&](comm::AsyncRank& ctx) {
        ctx.send(0, /*tag=*/1, std::vector<double>(1000, 0.0));
      },
      [&](comm::AsyncRank&, const comm::AsyncMessage& msg) {
        EXPECT_DOUBLE_EQ(msg.delivery_time, msg.send_time);
      });
  EXPECT_DOUBLE_EQ(reports[0].comm_seconds, 0.0);
  EXPECT_EQ(engine.messages_delivered(), 1u);
}

TEST(AsyncEngine, HaltDropsInFlightMessagesAndCountsThem) {
  comm::AsyncEngine engine({unit_device(), unit_device()},
                           comm::ideal_network());
  int delivered_to_1 = 0;
  const auto reports = engine.run(
      [&](comm::AsyncRank& ctx) {
        if (ctx.rank() == 0) {
          ctx.send(1, /*tag=*/1, {});
          ctx.send(1, /*tag=*/2, {});
        }
      },
      [&](comm::AsyncRank& ctx, const comm::AsyncMessage&) {
        ++delivered_to_1;
        ctx.halt();  // the second message must be dropped
      });
  EXPECT_EQ(delivered_to_1, 1);
  // Conservation: the in-flight message is counted against the halted
  // destination, so sent == received + dropped across the engine (the
  // engine itself asserts this at teardown; check the report surface).
  EXPECT_EQ(reports[0].messages_sent, 2u);
  EXPECT_EQ(reports[1].messages_received, 1u);
  EXPECT_EQ(reports[1].messages_dropped, 1u);
  EXPECT_EQ(reports[0].messages_dropped, 0u);
}

TEST(AsyncEngine, ComputeIsPricedPerRankDevice) {
  // Same flops, 1 GF/s vs 4 GF/s devices: rank 1 finishes 4x faster.
  comm::AsyncEngine engine({unit_device(), {"fast", 4.0}},
                           comm::ideal_network());
  const auto reports = engine.run(
      [&](comm::AsyncRank&) { nadmm::flops::add(2'000'000'000ULL); },
      [](comm::AsyncRank&, const comm::AsyncMessage&) {});
  EXPECT_DOUBLE_EQ(reports[0].compute_seconds, 2.0);
  EXPECT_DOUBLE_EQ(reports[1].compute_seconds, 0.5);
}

// ------------------------------------------- engine fault injection

TEST(AsyncEngineFaults, ReorderedBurstDeliversInSeqOrderViaGapRecovery) {
  // A burst of frames on one link under heavy reordering: later frames
  // overtake earlier ones in flight, the receiver detects the sequence
  // gaps (hold + nack) and still hands the application every message in
  // send order.
  comm::NetworkModel net{"t", 1e-3, 1e6};
  comm::AsyncEngine engine({unit_device(), unit_device()}, net);
  engine.set_faults(comm::FaultSpec::parse("reorder:1.0"), /*seed=*/3);
  std::vector<int> tags;
  const auto reports = engine.run(
      [&](comm::AsyncRank& ctx) {
        if (ctx.rank() == 0) {
          for (int t = 0; t < 20; ++t) ctx.send(1, t, {double(t)});
        }
      },
      [&](comm::AsyncRank&, const comm::AsyncMessage& msg) {
        tags.push_back(msg.tag);
      });
  ASSERT_EQ(tags.size(), 20u);
  for (int t = 0; t < 20; ++t) EXPECT_EQ(tags[std::size_t(t)], t);
  EXPECT_EQ(reports[1].messages_received, 20u);
  EXPECT_GT(reports[1].gaps_detected, 0u);
}

TEST(AsyncEngineFaults, DroppedFramesAreRetransmittedUntilDelivered) {
  comm::NetworkModel net{"t", 1e-3, 1e6};
  comm::AsyncEngine engine({unit_device(), unit_device()}, net);
  engine.set_faults(comm::FaultSpec::parse("drop:0.3"), /*seed=*/7);
  std::vector<int> tags;
  const auto reports = engine.run(
      [&](comm::AsyncRank& ctx) {
        if (ctx.rank() == 0) {
          for (int t = 0; t < 20; ++t) ctx.send(1, t, {double(t)});
        }
      },
      [&](comm::AsyncRank&, const comm::AsyncMessage& msg) {
        tags.push_back(msg.tag);
      });
  ASSERT_EQ(tags.size(), 20u);
  for (int t = 0; t < 20; ++t) EXPECT_EQ(tags[std::size_t(t)], t);
  EXPECT_GT(reports[0].retransmits, 0u);
  EXPECT_EQ(reports[1].messages_dropped, 0u);  // every loss was repaired
}

TEST(AsyncEngineFaults, CorruptedFramesFailChecksumAndAreRepaired) {
  comm::NetworkModel net{"t", 1e-3, 1e6};
  comm::AsyncEngine engine({unit_device(), unit_device()}, net);
  engine.set_faults(comm::FaultSpec::parse("corrupt:0.5"), /*seed=*/11);
  int received = 0;
  const auto reports = engine.run(
      [&](comm::AsyncRank& ctx) {
        if (ctx.rank() == 0) {
          for (int t = 0; t < 20; ++t) {
            ctx.send(1, t, {1.0, 2.0, double(t)});
          }
        }
      },
      [&](comm::AsyncRank&, const comm::AsyncMessage& msg) {
        // Delivered payloads are the originals — corruption never leaks
        // through the checksum.
        ASSERT_EQ(msg.payload.size(), 3u);
        EXPECT_DOUBLE_EQ(msg.payload[0], 1.0);
        EXPECT_DOUBLE_EQ(msg.payload[1], 2.0);
        ++received;
      });
  EXPECT_EQ(received, 20);
  EXPECT_GT(reports[0].retransmits, 0u);
}

TEST(AsyncEngineFaults, SenderHaltWithFramesInFlightKeepsConservation) {
  // Regression: a sender that halts right after a burst leaves frames
  // (and their acks) in flight. The channel must not count those sends
  // as dropped the moment the sender's retry timer fires — a
  // reorder-delayed copy can still reach the live receiver, and the
  // early verdict would double-count the send as both dropped and
  // received, tripping the engine's teardown conservation assert.
  comm::NetworkModel net{"t", 1e-3, 1e6};
  comm::AsyncEngine engine({unit_device(), unit_device()}, net);
  engine.set_faults(comm::FaultSpec::parse("reorder:1.0"), /*seed=*/17);
  std::vector<int> tags;
  const auto reports = engine.run(
      [&](comm::AsyncRank& ctx) {
        if (ctx.rank() == 0) {
          for (int t = 0; t < 10; ++t) ctx.send(1, t, {double(t)});
          ctx.halt();  // never services its retry timers again
        }
      },
      [&](comm::AsyncRank&, const comm::AsyncMessage& msg) {
        tags.push_back(msg.tag);
      });
  // Nothing was actually lost (reorder only delays), so every send must
  // be delivered exactly once, in order, and counted as received.
  ASSERT_EQ(tags.size(), 10u);
  for (int t = 0; t < 10; ++t) EXPECT_EQ(tags[std::size_t(t)], t);
  EXPECT_EQ(reports[0].messages_sent, 10u);
  EXPECT_EQ(reports[1].messages_received, 10u);
  EXPECT_EQ(reports[1].messages_dropped, 0u);
}

TEST(AsyncEngineFaults, FaultyRunsReplayByteIdentically) {
  const auto spec = comm::FaultSpec::parse("drop:0.2,dup:0.1,reorder:0.3");
  const auto run_once = [&spec] {
    comm::NetworkModel net{"t", 1e-3, 1e6};
    comm::AsyncEngine engine({unit_device(), unit_device()}, net);
    engine.set_faults(spec, /*seed=*/5);
    std::vector<double> deliveries;
    engine.run(
        [&](comm::AsyncRank& ctx) {
          if (ctx.rank() == 0) {
            for (int t = 0; t < 12; ++t) ctx.send(1, t, {double(t)});
          }
        },
        [&](comm::AsyncRank&, const comm::AsyncMessage& msg) {
          deliveries.push_back(msg.delivery_time);
        });
    return deliveries;
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]) << "delivery " << i;
  }
}

TEST(AsyncEngine, RecycledSlotsKeepOrderAndPayloads) {
  // Thousands of events through the engine's recycled message slots:
  // equal-time ties (zero-delay timers, same-size frames sent at the same
  // instant on a dyadic latency), payloads of 0, 2 and 1000 doubles, and
  // handlers that send — forwarding their own payload — while they still
  // read their message. Each delivery is checked against what was logged
  // at send time. Clean, the delivery sequence must be exactly the
  // (delivery_time, seq) order; through the faulty reliable channel it
  // must stay ordered, with every link in send order.
  constexpr int kRanks = 3;
  constexpr std::size_t kMessages = 3000;
  constexpr double kLatency = 1.0 / 1024;
  const comm::NetworkModel net{"t", kLatency, 1e18};
  const auto fresh = [](std::size_t id) {
    constexpr std::size_t kSizes[] = {0, 2, 1000};
    std::vector<double> v(kSizes[id % 3]);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = static_cast<double>(id) * 1e4 + static_cast<double>(i);
    }
    return v;
  };
  for (const std::string spec : {"", "drop:0.05,reorder:0.1"}) {
    SCOPED_TRACE(spec.empty() ? std::string("clean") : spec);
    const bool clean = spec.empty();
    struct Sent {
      int from, to;
      double delivery;  // predicted; remote sends only when clean
      std::vector<double> payload;
    };
    struct Got {
      std::size_t id;
      double delivery;
      std::uint64_t seq;
    };
    std::vector<Sent> sent;  // index = message id = tag
    std::vector<Got> got;
    std::vector<double> link_last(kRanks * kRanks, 0.0);
    comm::AsyncEngine engine(
        std::vector<la::DeviceModel>(kRanks, unit_device()), net);
    if (!clean) engine.set_faults(comm::FaultSpec::parse(spec), /*seed=*/29);

    // Post message `sent.size()` to `to` (a timer when to == own rank).
    // Clean, every event is an app send, so its seq is its id.
    const auto post = [&](comm::AsyncRank& ctx, int to,
                          std::span<const double> payload) {
      const std::size_t id = sent.size();
      Sent s{ctx.rank(), to, 0.0, {payload.begin(), payload.end()}};
      if (to == ctx.rank()) {
        const double delay = static_cast<double>(id % 2) * kLatency;
        s.delivery = ctx.now() + delay;
        sent.push_back(std::move(s));
        ctx.send_self(static_cast<int>(id), delay, payload);
      } else {
        double& last =
            link_last[static_cast<std::size_t>(ctx.rank() * kRanks + to)];
        last = std::max(last, ctx.now() + net.point_to_point(
                                              comm::wire::frame_bytes(
                                                  payload.size())));
        s.delivery = last;
        sent.push_back(std::move(s));
        ctx.send(to, static_cast<int>(id), payload);
      }
    };
    const auto reports = engine.run(
        [&](comm::AsyncRank& ctx) {
          post(ctx, ctx.rank(), fresh(sent.size()));
          for (int to = 0; to < kRanks; ++to) {
            if (to != ctx.rank()) post(ctx, to, fresh(sent.size()));
          }
        },
        [&](comm::AsyncRank& ctx, const comm::AsyncMessage& msg) {
          const auto id = static_cast<std::size_t>(msg.tag);
          ASSERT_LT(id, sent.size());
          got.push_back({id, msg.delivery_time, msg.seq});
          const double* data = msg.payload.data();
          if (sent.size() < kMessages) {
            post(ctx, (ctx.rank() + 1) % kRanks, msg.payload);
            post(ctx, ctx.rank(), fresh(sent.size()));
            post(ctx, (ctx.rank() + 2) % kRanks, fresh(sent.size()));
          }
          // Still this message, untouched by the sends above.
          EXPECT_EQ(msg.payload.data(), data);
          EXPECT_EQ(msg.from, sent[id].from);
          EXPECT_EQ(ctx.rank(), sent[id].to);
          EXPECT_TRUE(msg.payload == sent[id].payload) << "message " << id;
        });

    ASSERT_GE(sent.size(), kMessages);
    ASSERT_EQ(got.size(), sent.size());  // each message exactly once
    std::vector<int> times(sent.size(), 0);
    for (const Got& g : got) ++times[g.id];
    EXPECT_EQ(std::count(times.begin(), times.end(), 1),
              static_cast<std::ptrdiff_t>(sent.size()));
    std::size_t ties = 0;
    for (std::size_t i = 1; i < got.size(); ++i) {
      const Got& a = got[i - 1];
      const Got& b = got[i];
      ties += a.delivery == b.delivery ? 1 : 0;
      EXPECT_TRUE(a.delivery < b.delivery ||
                  (a.delivery == b.delivery && a.seq <= b.seq))
          << "delivery " << i;
    }
    EXPECT_GT(ties, sent.size() / 10);
    for (const Got& g : got) {
      // Timers never touch the channel, so their times hold either way.
      if (clean || sent[g.id].from == sent[g.id].to) {
        EXPECT_EQ(g.delivery, sent[g.id].delivery) << "message " << g.id;
      }
    }
    if (clean) {
      std::vector<std::size_t> order(sent.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return sent[a].delivery < sent[b].delivery;
                       });
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].id, order[i]) << "delivery " << i;
        EXPECT_EQ(got[i].seq, got[i].id);
      }
    } else {
      std::uint64_t retransmits = 0, gaps = 0;
      for (const auto& r : reports) {
        retransmits += r.retransmits;
        gaps += r.gaps_detected;
      }
      EXPECT_GT(retransmits, 0u);  // the faults did hit the channel
      EXPECT_GT(gaps, 0u);
      // The reliable channel keeps each remote link in send order.
      std::vector<std::size_t> link_next(kRanks * kRanks, 0);
      for (const Got& g : got) {
        const Sent& s = sent[g.id];
        if (s.from == s.to) continue;
        std::size_t& next =
            link_next[static_cast<std::size_t>(s.from * kRanks + s.to)];
        EXPECT_GE(g.id, next) << "message " << g.id;
        next = g.id + 1;
      }
    }
  }
}

// ----------------------------------------------- async-admm solvers

runner::ExperimentConfig tiny_config(const std::string& network = "eth1") {
  runner::ExperimentConfig c;
  c.dataset = "blobs";
  c.n_train = 240;
  c.n_test = 60;
  c.e18_features = 8;
  c.workers = 3;
  c.network = network;
  c.iterations = 4;
  c.lambda = 1e-3;
  c.omp_threads = 1;
  return c;
}

core::RunResult run_registry(const std::string& solver,
                             const runner::ExperimentConfig& config) {
  const auto tt = runner::make_data(config);
  auto cluster = runner::make_cluster(config);
  return runner::SolverRegistry::instance().run(
      solver, cluster,
      runner::shard_for_solver(solver, tt.train, &tt.test, config), config);
}

/// Deterministic fields of a trace, serialized for byte comparison
/// (wall-clock stays out by design).
std::string trace_fingerprint(const core::RunResult& r) {
  std::string out;
  char buf[256];
  for (const auto& it : r.trace) {
    std::snprintf(buf, sizeof buf, "%d,%.17g,%.17g,%.17g,%.17g,%.17g\n",
                  it.iteration, it.objective, it.test_accuracy, it.sim_seconds,
                  it.epoch_sim_seconds, it.comm_sim_seconds);
    out += buf;
  }
  for (const double w : r.rank_wait_seconds) {
    std::snprintf(buf, sizeof buf, "w%.17g\n", w);
    out += buf;
  }
  for (const auto h : r.staleness_hist) {
    std::snprintf(buf, sizeof buf, "h%llu\n",
                  static_cast<unsigned long long>(h));
    out += buf;
  }
  return out;
}

TEST(AsyncAdmm, ConvergesAndReportsAsyncColumns) {
  const auto config = tiny_config();
  const auto r = run_registry("async-admm", config);
  EXPECT_EQ(r.solver, "async-admm");
  EXPECT_EQ(r.iterations, config.iterations);
  ASSERT_EQ(r.trace.size(), static_cast<std::size_t>(config.iterations));
  EXPECT_LT(r.trace.back().objective, r.trace.front().objective);
  EXPECT_TRUE(std::isfinite(r.final_objective));
  EXPECT_GE(r.final_test_accuracy, 0.0);
  EXPECT_GT(r.total_sim_seconds, 0.0);
  EXPECT_EQ(r.rank_wait_seconds.size(),
            static_cast<std::size_t>(config.workers));
  EXPECT_FALSE(r.staleness_hist.empty());
}

TEST(AsyncAdmm, ReachesSynchronousQualityObjective) {
  // Same budget of local solves: the stale-consensus result should land
  // in the same objective ballpark as the synchronous solver.
  auto config = tiny_config();
  config.iterations = 8;
  const auto sync = run_registry("newton-admm", config);
  const auto async = run_registry("async-admm", config);
  EXPECT_LT(async.final_objective, 1.15 * sync.final_objective);
}

TEST(AsyncAdmm, DeterministicAcrossConcurrentReruns) {
  // The delivery order is a total order on (delivery_time, seq), so
  // rerunning the same configuration — here 10 times on concurrently
  // racing threads — must reproduce the trace byte-for-byte.
  const auto config = tiny_config();
  const auto reference = trace_fingerprint(run_registry("async-admm", config));
  ASSERT_FALSE(reference.empty());
  constexpr int kRuns = 10;
  std::vector<std::string> fingerprints(kRuns);
  {
    std::vector<std::thread> threads;
    threads.reserve(kRuns);
    for (int i = 0; i < kRuns; ++i) {
      threads.emplace_back([&, i] {
        fingerprints[static_cast<std::size_t>(i)] =
            trace_fingerprint(run_registry("async-admm", config));
      });
    }
    for (auto& t : threads) t.join();
  }
  for (int i = 0; i < kRuns; ++i) {
    EXPECT_EQ(fingerprints[static_cast<std::size_t>(i)], reference)
        << "run " << i << " diverged";
  }
}

TEST(AsyncAdmm, StalenessBoundIsEnforced) {
  // With a straggling rank the fast workers run ahead — but never past
  // the τ bound: every bucket above τ must stay empty.
  auto config = tiny_config("wan");
  config.device = "0.2";  // slow enough that compute dominates the wire
  config.straggler = "1:4";
  config.iterations = 6;
  for (const int tau : {0, 1, 3}) {
    config.staleness = tau;
    const auto r = run_registry("async-admm", config);
    ASSERT_FALSE(r.staleness_hist.empty()) << "tau=" << tau;
    EXPECT_LE(static_cast<int>(r.staleness_hist.size()) - 1, tau)
        << "tau=" << tau;
  }
  // A generous bound must actually be exercised by the straggler run.
  config.staleness = 8;
  const auto r = run_registry("async-admm", config);
  EXPECT_GT(r.staleness_hist.size(), 1u)
      << "straggler run never went stale — bound untested";
}

TEST(AsyncAdmm, StaleSyncBarrierEveryRoundIsLockstep) {
  // sync_every=1 parks every worker at the coordinator each round: no
  // update can ever be stale.
  auto config = tiny_config();
  config.sync_every = 1;
  const auto r = run_registry("stale-sync-admm", config);
  EXPECT_EQ(r.solver, "stale-sync-admm");
  ASSERT_EQ(r.staleness_hist.size(), 1u);
  EXPECT_GT(r.staleness_hist[0], 0u);
}

TEST(AsyncAdmm, StaleSyncBarrierPeriodBoundsStaleness) {
  auto config = tiny_config("wan");
  config.device = "0.2";
  config.straggler = "0:4";
  config.iterations = 6;
  config.sync_every = 3;
  const auto r = run_registry("stale-sync-admm", config);
  // Between barriers a worker can lead by at most sync_every − 1 rounds.
  EXPECT_LE(static_cast<int>(r.staleness_hist.size()) - 1,
            config.sync_every - 1);
}

TEST(AsyncAdmm, StragglerShiftsWaitTime) {
  auto config = tiny_config("eth1");
  config.device = "0.2";
  config.iterations = 5;
  config.staleness = 2;
  const auto even = run_registry("async-admm", config);
  config.straggler = "1:4";
  const auto skewed = run_registry("async-admm", config);
  ASSERT_EQ(even.rank_wait_seconds.size(), skewed.rank_wait_seconds.size());
  // The straggler slows every consensus round, so the fast ranks spend
  // strictly more simulated time idle than in the balanced run.
  double even_fast = 0.0, skewed_fast = 0.0;
  for (std::size_t r = 0; r < even.rank_wait_seconds.size(); ++r) {
    if (r == 1) continue;  // rank 1 is the straggler
    even_fast += even.rank_wait_seconds[r];
    skewed_fast += skewed.rank_wait_seconds[r];
  }
  EXPECT_GT(skewed_fast, even_fast);
  EXPECT_GT(skewed.total_sim_seconds, even.total_sim_seconds);
}

// ------------------------------------- solver-level faults and kill

TEST(AsyncAdmmFaults, ConvergesUnderLossAndCountsRetransmits) {
  auto config = tiny_config();
  config.iterations = 6;
  const auto clean = run_registry("async-admm", config);
  config.fault = "drop:0.05,dup:0.02";
  const auto faulty = run_registry("async-admm", config);
  EXPECT_GT(faulty.metric("retransmits"), 0u);
  EXPECT_TRUE(std::isfinite(faulty.final_objective));
  // Losses cost latency, not quality: the recovered run lands in the
  // same objective ballpark as the clean one.
  EXPECT_LE(faulty.final_objective, 1.2 * clean.final_objective);
}

TEST(AsyncAdmmFaults, FaultyRunsAreByteDeterministic) {
  auto config = tiny_config();
  config.iterations = 5;
  config.fault = "drop:0.1,reorder:0.1";
  const auto a = run_registry("async-admm", config);
  const auto b = run_registry("async-admm", config);
  EXPECT_EQ(trace_fingerprint(a), trace_fingerprint(b));
  EXPECT_EQ(a.metric("retransmits"), b.metric("retransmits"));
  EXPECT_EQ(a.metric("messages_dropped"), b.metric("messages_dropped"));
}

TEST(AsyncAdmmFaults, KillAndRejoinIsBitIdenticalToNoKill) {
  // Kill a worker mid-run: it restores from the coordinator's last
  // checkpoint, replays the consensus messages it already processed,
  // and the run finishes bit-identical to one that never lost the rank.
  auto config = tiny_config();
  config.iterations = 6;
  config.fault = "drop:0.05";
  config.checkpoint_every = 4;
  const auto baseline = run_registry("async-admm", config);
  EXPECT_GT(baseline.metric("checkpoints"), 0u);
  EXPECT_EQ(baseline.metric("restores"), 0u);

  config.kill = "1:2";
  const auto killed = run_registry("async-admm", config);
  EXPECT_EQ(killed.metric("restores"), 1u);
  EXPECT_EQ(trace_fingerprint(killed), trace_fingerprint(baseline));

  // The coordinator rank replays its own commit log the same way.
  config.kill = "0:3";
  const auto coord = run_registry("async-admm", config);
  EXPECT_EQ(coord.metric("restores"), 1u);
  EXPECT_EQ(trace_fingerprint(coord), trace_fingerprint(baseline));
}

TEST(AsyncAdmmFaults, StaleSyncSupportsKillToo) {
  auto config = tiny_config();
  config.iterations = 6;
  config.sync_every = 2;
  config.checkpoint_every = 4;
  const auto baseline = run_registry("stale-sync-admm", config);
  config.kill = "1:2";
  const auto killed = run_registry("stale-sync-admm", config);
  EXPECT_EQ(killed.metric("restores"), 1u);
  EXPECT_EQ(trace_fingerprint(killed), trace_fingerprint(baseline));

  // Kill the coordinator rank: its last checkpoint (4 commits in) holds
  // one worker parked at the sync-round barrier, and the replayed log
  // carries the two flagged updates that fill and release it. The
  // rebuilt coordinator must serialize to the lost one's bytes.
  config.kill = "0:2";
  const auto coord = run_registry("stale-sync-admm", config);
  EXPECT_EQ(coord.metric("restores"), 1u);
  EXPECT_EQ(trace_fingerprint(coord), trace_fingerprint(baseline));
}

TEST(AsyncAdmmFaults, KillWithoutCheckpointsIsRejected) {
  auto config = tiny_config();
  config.kill = "1:2";
  EXPECT_THROW(static_cast<void>(run_registry("async-admm", config)),
               InvalidArgument);
}

TEST(AsyncAdmmFaults, MalformedSpecsAreRejected) {
  auto config = tiny_config();
  config.fault = "vanish:0.5";
  EXPECT_THROW(static_cast<void>(run_registry("async-admm", config)),
               InvalidArgument);
  config.fault = "none";
  config.kill = "1";
  EXPECT_THROW(static_cast<void>(run_registry("async-admm", config)),
               InvalidArgument);
}

// --------------------------------------- heterogeneous clusters / runner

TEST(ClusterDevices, PerRankListsCycleAndStragglerApplies) {
  runner::ExperimentConfig config;
  config.workers = 5;
  config.device = "p100+cpu";
  const auto cycled = runner::cluster_devices(config);
  ASSERT_EQ(cycled.size(), 5u);
  EXPECT_EQ(cycled[0].name, "p100");
  EXPECT_EQ(cycled[1].name, "cpu");
  EXPECT_EQ(cycled[2].name, "p100");
  EXPECT_EQ(cycled[4].name, "p100");

  config.device = "100:50";
  config.straggler = "2:4";
  const auto skewed = runner::cluster_devices(config);
  EXPECT_DOUBLE_EQ(skewed[0].gflops, 100.0);
  EXPECT_DOUBLE_EQ(skewed[2].gflops, 25.0);
  EXPECT_DOUBLE_EQ(skewed[2].gbytes_per_s, 12.5);
  EXPECT_NE(skewed[2].name.find("x4"), std::string::npos);

  config.straggler = "9:4";  // rank out of range
  EXPECT_THROW(static_cast<void>(runner::cluster_devices(config)),
               InvalidArgument);
  config.straggler = "1:being-slow";
  EXPECT_THROW(static_cast<void>(runner::cluster_devices(config)),
               InvalidArgument);
}

TEST(ClusterDevices, SynchronousSolverPaysForTheStraggler) {
  auto config = tiny_config("ib100");
  config.device = "0.2";
  config.iterations = 3;
  const auto even = run_registry("newton-admm", config);
  config.straggler = "2:8";
  const auto skewed = run_registry("newton-admm", config);
  // Every barrier waits for rank 2, so epochs slow down by roughly the
  // slowdown factor, and the fast ranks' barrier skew shows up as wait.
  EXPECT_GT(skewed.total_sim_seconds, 3.0 * even.total_sim_seconds);
  ASSERT_EQ(skewed.rank_wait_seconds.size(), 3u);
  EXPECT_GT(skewed.rank_wait_seconds[0], 0.0);
  EXPECT_LT(skewed.rank_wait_seconds[2], skewed.rank_wait_seconds[0]);
}

// --------------------------------------------------- sweep integration

TEST(AsyncSweep, StragglerAxisExpandsAndTagsStayUnique) {
  runner::SweepSpec spec;
  spec.solvers = {"async-admm"};
  spec.stragglers = {"none", "1:4"};
  spec.networks = {"eth1", "wan"};
  const auto scenarios = runner::expand_scenarios(spec);
  ASSERT_EQ(scenarios.size(), 4u);
  EXPECT_EQ(scenarios[0].config.straggler, "none");
  EXPECT_EQ(scenarios[1].config.straggler, "1:4");
  EXPECT_NE(scenarios[0].tag(), scenarios[1].tag());
  EXPECT_EQ(scenarios[1].tag().find(':'), std::string::npos);
  EXPECT_NE(scenarios[1].tag().find("_st1-4"), std::string::npos);

  // The straggler axis and the async knobs are part of the fingerprint.
  const std::string base_fp = runner::spec_fingerprint(spec);
  runner::SweepSpec other = spec;
  other.stragglers = {"none"};
  EXPECT_NE(runner::spec_fingerprint(other), base_fp);
  other = spec;
  other.base.staleness += 1;
  EXPECT_NE(runner::spec_fingerprint(other), base_fp);
  other = spec;
  other.base.sync_every += 1;
  EXPECT_NE(runner::spec_fingerprint(other), base_fp);
}

TEST(AsyncSweep, FaultsAxisExpandsTagsAndFingerprint) {
  runner::SweepSpec spec;
  spec.solvers = {"async-admm"};
  spec.faults = {"none", "drop:0.05+dup:0.02"};
  const auto scenarios = runner::expand_scenarios(spec);
  ASSERT_EQ(scenarios.size(), 2u);
  EXPECT_EQ(scenarios[0].config.fault, "none");
  EXPECT_EQ(scenarios[1].config.fault, "drop:0.05+dup:0.02");
  // Clean scenarios keep the pre-fault tag; faulty ones get a
  // filesystem-safe suffix.
  EXPECT_EQ(scenarios[0].tag().find("_f"), std::string::npos);
  EXPECT_NE(scenarios[1].tag().find("_fdrop-0.05"), std::string::npos);
  EXPECT_EQ(scenarios[1].tag().find(':'), std::string::npos);
  EXPECT_EQ(scenarios[1].tag().find('+'), std::string::npos);

  // The faults axis and the kill/checkpoint knobs are fingerprinted.
  const std::string base_fp = runner::spec_fingerprint(spec);
  runner::SweepSpec other = spec;
  other.faults = {"none"};
  EXPECT_NE(runner::spec_fingerprint(other), base_fp);
  other = spec;
  other.base.kill = "1:2";
  EXPECT_NE(runner::spec_fingerprint(other), base_fp);
  other = spec;
  other.base.checkpoint_every = 4;
  EXPECT_NE(runner::spec_fingerprint(other), base_fp);
}

TEST(AsyncSweep, ReportCarriesWaitAndStalenessColumns) {
  runner::SweepSpec spec;
  spec.solvers = {"async-admm", "newton-admm"};
  spec.workers = {2};
  spec.networks = {"eth1"};
  spec.stragglers = {"1:2"};
  spec.base.n_train = 120;
  spec.base.n_test = 40;
  spec.base.e18_features = 8;
  spec.base.iterations = 2;
  runner::SweepOptions options;
  const auto report = runner::run_sweep(spec, options);
  ASSERT_EQ(report.outcomes.size(), 2u);
  ASSERT_TRUE(report.outcomes[0].ok) << report.outcomes[0].error;
  ASSERT_TRUE(report.outcomes[1].ok) << report.outcomes[1].error;
  const auto rows = report.csv_rows();
  EXPECT_NE(rows[0].find("straggler"), std::string::npos);
  EXPECT_NE(rows[0].find("max_wait_seconds"), std::string::npos);
  EXPECT_NE(rows[0].find("staleness_hist"), std::string::npos);
  EXPECT_NE(rows[0].find("retransmits"), std::string::npos);
  EXPECT_NE(rows[0].find("gaps_detected"), std::string::npos);
  EXPECT_NE(rows[0].find("checkpoints"), std::string::npos);
  // The async scenario populates the histogram; the sync one leaves it
  // empty but still reports per-rank waits.
  EXPECT_FALSE(report.outcomes[0].staleness_hist.empty());
  EXPECT_TRUE(report.outcomes[1].staleness_hist.empty());
  EXPECT_FALSE(report.outcomes[1].rank_waits.empty());
}

TEST(AsyncSweep, JournalRoundTripsAsyncColumnsByteIdentically) {
  runner::SweepSpec spec;
  spec.solvers = {"async-admm"};
  spec.workers = {2};
  spec.networks = {"eth1"};
  spec.stragglers = {"none", "0:2"};
  // The faults axis rides along so the wire counters round-trip through
  // the journal too.
  spec.faults = {"none", "drop:0.2"};
  spec.base.n_train = 120;
  spec.base.n_test = 40;
  spec.base.e18_features = 8;
  spec.base.iterations = 2;
  spec.base.checkpoint_every = 2;

  const std::string journal =
      testing::TempDir() + "/nadmm_async_journal.jsonl";
  std::remove(journal.c_str());

  runner::SweepOptions first;
  first.journal_path = journal;
  first.max_scenarios = 1;  // deterministic interruption
  const auto partial = runner::run_sweep(spec, first);
  EXPECT_FALSE(partial.complete());

  runner::SweepOptions resumed;
  resumed.journal_path = journal;
  resumed.resume = true;
  const auto rest = runner::run_sweep(spec, resumed);
  EXPECT_EQ(rest.resumed, 1u);

  runner::SweepOptions fresh;
  const auto full = runner::run_sweep(spec, fresh);
  EXPECT_EQ(full.csv_rows(), rest.csv_rows());
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace nadmm
