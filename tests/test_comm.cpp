// Tests for the simulated distributed runtime: collectives correctness
// under varying rank counts (parameterized), network cost model,
// simulated clock, and failure propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "comm/cluster.hpp"
#include "comm/network_model.hpp"
#include "la/vector_ops.hpp"
#include "support/check.hpp"

namespace nadmm::comm {
namespace {

SimCluster make_cluster(int n, NetworkModel net = ideal_network()) {
  return SimCluster(n, la::DeviceModel{"test", 1.0}, std::move(net));
}

// ------------------------------------------------------- network model

TEST(NetworkModel, TreeDepth) {
  EXPECT_EQ(NetworkModel::tree_depth(1), 0);
  EXPECT_EQ(NetworkModel::tree_depth(2), 1);
  EXPECT_EQ(NetworkModel::tree_depth(3), 2);
  EXPECT_EQ(NetworkModel::tree_depth(8), 3);
  EXPECT_EQ(NetworkModel::tree_depth(9), 4);
}

TEST(NetworkModel, PointToPointIsAlphaBeta) {
  NetworkModel m{"t", 1e-3, 1e6};
  EXPECT_DOUBLE_EQ(m.point_to_point(1000), 1e-3 + 1e-3);
}

TEST(NetworkModel, CollectiveCostsScaleWithRanks) {
  NetworkModel m{"t", 1e-3, 1e6};
  EXPECT_DOUBLE_EQ(m.allreduce(1000, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.broadcast(1000, 1), 0.0);
  // allreduce = 2·depth·p2p
  EXPECT_DOUBLE_EQ(m.allreduce(1000, 4), 2 * 2 * m.point_to_point(1000));
  EXPECT_DOUBLE_EQ(m.broadcast(1000, 8), 3 * m.point_to_point(1000));
  // gather: depth·latency + (n−1)·bytes/bw
  EXPECT_DOUBLE_EQ(m.gather(1000, 4), 2 * 1e-3 + 3 * 1000 / 1e6);
}

TEST(NetworkModel, SlowerNetworksCostMore) {
  const double fast = infiniband_100g().allreduce(1 << 20, 8);
  const double slow = ethernet_1g().allreduce(1 << 20, 8);
  EXPECT_GT(slow, 10.0 * fast);
}

TEST(NetworkModel, PresetLookup) {
  EXPECT_EQ(network_from_string("ib100").name, "ib100");
  EXPECT_EQ(network_from_string("wan").name, "wan");
  EXPECT_THROW(network_from_string("zzz"), InvalidArgument);
}

// ------------------------------------------------------- clock

TEST(SimClock, AccruesComputeFromFlops) {
  SimClock clock(la::DeviceModel{"t", 1.0});  // 1 GF/s
  nadmm::flops::reset();
  nadmm::flops::add(2'000'000'000ULL);
  clock.sync_compute();
  EXPECT_DOUBLE_EQ(clock.compute_seconds(), 2.0);
  EXPECT_EQ(clock.total_flops(), 2'000'000'000ULL);
}

TEST(SimClock, PauseSuppressesAccrual) {
  SimClock clock(la::DeviceModel{"t", 1.0});
  nadmm::flops::reset();
  clock.pause();
  nadmm::flops::add(1'000'000'000ULL);
  clock.sync_compute();
  clock.add_comm(5.0);
  clock.resume();
  EXPECT_DOUBLE_EQ(clock.total_seconds(), 0.0);
  nadmm::flops::add(1'000'000'000ULL);
  clock.sync_compute();
  clock.add_comm(0.5);
  EXPECT_DOUBLE_EQ(clock.compute_seconds(), 1.0);
  EXPECT_DOUBLE_EQ(clock.comm_seconds(), 0.5);
}

TEST(SimClock, ResetClearsState) {
  SimClock clock(la::DeviceModel{"t", 1.0});
  clock.add_comm(1.0);
  clock.reset();
  EXPECT_DOUBLE_EQ(clock.total_seconds(), 0.0);
}

TEST(SimClock, RooflinePricesBandwidthBoundIntervals) {
  // 1 GF/s and 1 GB/s: whichever of the flop and byte terms is larger
  // bounds each sync interval.
  nadmm::flops::reset();
  SimClock clock(la::DeviceModel{"t", 1.0, 1.0});
  nadmm::flops::add(1'000'000'000ULL);      // 1.0 s of flops
  nadmm::flops::add_bytes(500'000'000ULL);  // 0.5 s of traffic
  clock.sync_compute();
  EXPECT_DOUBLE_EQ(clock.compute_seconds(), 1.0);  // flop-bound
  nadmm::flops::add(1'000'000'000ULL);
  nadmm::flops::add_bytes(3'000'000'000ULL);
  clock.sync_compute();
  EXPECT_DOUBLE_EQ(clock.compute_seconds(), 4.0);  // + 3.0 s, byte-bound
  EXPECT_EQ(clock.total_bytes(), 3'500'000'000ULL);
}

TEST(SimClock, FlopOnlyDevicesIgnoreBytes) {
  nadmm::flops::reset();
  SimClock clock(la::DeviceModel{"t", 1.0});  // no bandwidth rating
  nadmm::flops::add(1'000'000'000ULL);
  nadmm::flops::add_bytes(50'000'000'000ULL);
  clock.sync_compute();
  EXPECT_DOUBLE_EQ(clock.compute_seconds(), 1.0);
}

// ------------------------------------------------------- collectives

class CollectivesTest : public testing::TestWithParam<int> {};

TEST_P(CollectivesTest, AllreduceSumsVectors) {
  const int n = GetParam();
  auto cluster = make_cluster(n);
  cluster.run([&](RankCtx& ctx) {
    std::vector<double> v(17);
    for (std::size_t j = 0; j < v.size(); ++j) {
      v[j] = static_cast<double>(ctx.rank() + 1) * (static_cast<double>(j) + 1);
    }
    ctx.allreduce_sum(v);
    const double rank_sum = n * (n + 1) / 2.0;
    for (std::size_t j = 0; j < v.size(); ++j) {
      EXPECT_DOUBLE_EQ(v[j], rank_sum * (static_cast<double>(j) + 1));
    }
  });
}

TEST_P(CollectivesTest, ScalarReductions) {
  const int n = GetParam();
  auto cluster = make_cluster(n);
  cluster.run([&](RankCtx& ctx) {
    const double r = static_cast<double>(ctx.rank());
    EXPECT_DOUBLE_EQ(ctx.allreduce_sum(r + 1), n * (n + 1) / 2.0);
    EXPECT_DOUBLE_EQ(ctx.allreduce_max(r), static_cast<double>(n - 1));
    EXPECT_DOUBLE_EQ(ctx.allreduce_min(r), 0.0);
  });
}

TEST_P(CollectivesTest, GatherConcatenatesInRankOrder) {
  const int n = GetParam();
  auto cluster = make_cluster(n);
  cluster.run([&](RankCtx& ctx) {
    std::vector<double> mine{static_cast<double>(ctx.rank()),
                             static_cast<double>(ctx.rank()) * 10};
    std::vector<double> all;
    ctx.gather(mine, all, 0);
    if (ctx.is_root()) {
      ASSERT_EQ(all.size(), static_cast<std::size_t>(2 * n));
      for (int r = 0; r < n; ++r) {
        EXPECT_DOUBLE_EQ(all[2 * r], r);
        EXPECT_DOUBLE_EQ(all[2 * r + 1], r * 10.0);
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST_P(CollectivesTest, BroadcastFromNonZeroRoot) {
  const int n = GetParam();
  if (n < 2) GTEST_SKIP();
  auto cluster = make_cluster(n);
  cluster.run([&](RankCtx& ctx) {
    std::vector<double> v(5, ctx.rank() == 1 ? 42.0 : 0.0);
    ctx.broadcast(v, 1);
    for (double e : v) EXPECT_DOUBLE_EQ(e, 42.0);
  });
}

// Regression for the two-barrier allreduce (the seed used three rounds):
// back-to-back collectives over rank-dependent data must agree across all
// ranks on every round, including when reductions are interleaved with
// other collectives reusing the shared staging slots.
TEST_P(CollectivesTest, AllreduceAgreesAcrossRanksUnderReuse) {
  const int n = GetParam();
  auto cluster = make_cluster(n);
  const std::size_t len = 37;
  cluster.run([&](RankCtx& ctx) {
    std::vector<double> v(len);
    for (int round = 0; round < 100; ++round) {
      for (std::size_t j = 0; j < len; ++j) {
        v[j] = static_cast<double>((ctx.rank() + 1) * (round + 1)) +
               0.25 * static_cast<double>(j);
      }
      ctx.allreduce_sum(v);
      for (std::size_t j = 0; j < len; ++j) {
        double expected = 0.0;
        for (int r = 0; r < n; ++r) {
          expected += static_cast<double>((r + 1) * (round + 1)) +
                      0.25 * static_cast<double>(j);
        }
        ASSERT_DOUBLE_EQ(v[j], expected)
            << "rank " << ctx.rank() << " round " << round << " elem " << j;
      }
      if (round % 10 == 0) {
        // Interleave other collectives so a straggler from the previous
        // allreduce would be caught corrupting the staging slots.
        std::vector<double> mine{static_cast<double>(ctx.rank())};
        std::vector<double> all(static_cast<std::size_t>(n));
        ctx.gather(mine, all, 0);
        ctx.broadcast(all, 0);
        for (int r = 0; r < n; ++r) ASSERT_DOUBLE_EQ(all[r], r);
        EXPECT_DOUBLE_EQ(ctx.allreduce_max(static_cast<double>(ctx.rank())),
                         static_cast<double>(n - 1));
      }
    }
  });
}

TEST_P(CollectivesTest, RepeatedCollectivesStayConsistent) {
  const int n = GetParam();
  auto cluster = make_cluster(n);
  cluster.run([&](RankCtx& ctx) {
    for (int round = 0; round < 50; ++round) {
      double v = ctx.rank() + round;
      const double total = ctx.allreduce_sum(v);
      EXPECT_DOUBLE_EQ(total, n * (n - 1) / 2.0 + n * round);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectivesTest,
                         testing::Values(1, 2, 3, 4, 8));

// ------------------------------------------------------- cost accounting

TEST(Cluster, CollectivesChargeNetworkCost) {
  NetworkModel net{"t", 1e-3, 1e9};
  SimCluster cluster(4, la::DeviceModel{"t", 1.0}, net);
  const auto reports = cluster.run([&](RankCtx& ctx) {
    std::vector<double> v(1000, 1.0);
    ctx.allreduce_sum(v);
  });
  const double expected = net.allreduce(1000 * sizeof(double), 4);
  for (const auto& r : reports) {
    EXPECT_NEAR(r.comm_seconds, expected, 1e-12);
  }
}

TEST(Cluster, SingleRankPaysNoCommCost) {
  auto cluster = SimCluster(1, la::DeviceModel{"t", 1.0}, ethernet_1g());
  const auto reports = cluster.run([&](RankCtx& ctx) {
    std::vector<double> v(100, 1.0);
    ctx.allreduce_sum(v);
    ctx.broadcast(v, 0);
  });
  EXPECT_DOUBLE_EQ(reports[0].comm_seconds, 0.0);
}

TEST(Cluster, ComputeTimeComesFromFlops) {
  SimCluster cluster(2, la::DeviceModel{"t", 1.0}, ideal_network());
  const auto reports = cluster.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0) nadmm::flops::add(3'000'000'000ULL);
    ctx.barrier();
  });
  EXPECT_DOUBLE_EQ(reports[0].compute_seconds, 3.0);
  EXPECT_DOUBLE_EQ(reports[1].compute_seconds, 0.0);
}

// ------------------------------------------------------- failures

TEST(Cluster, RankExceptionPropagatesAndAbortsPeers) {
  auto cluster = make_cluster(4);
  EXPECT_THROW(
      cluster.run([&](RankCtx& ctx) {
        if (ctx.rank() == 2) throw RuntimeError("rank 2 died");
        // Peers block in a collective; the abort must wake them.
        std::vector<double> v(10, 1.0);
        ctx.allreduce_sum(v);
        ctx.allreduce_sum(v);
      }),
      RuntimeError);
}

TEST(Cluster, FirstErrorWins) {
  auto cluster = make_cluster(2);
  try {
    cluster.run([&](RankCtx& ctx) {
      if (ctx.rank() == 0) throw RuntimeError("original failure");
      std::vector<double> v(4, 0.0);
      ctx.allreduce_sum(v);  // will observe ClusterAborted
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    // Either the original error or ClusterAborted may be recorded first,
    // but the run must throw and the message must be one of the two.
    const std::string msg = e.what();
    EXPECT_TRUE(msg.find("original failure") != std::string::npos ||
                msg.find("aborted") != std::string::npos)
        << msg;
  }
}

TEST(Cluster, ReusableAfterFailedRun) {
  auto cluster = make_cluster(3);
  EXPECT_THROW(cluster.run([&](RankCtx& ctx) {
                 if (ctx.rank() == 1) throw RuntimeError("boom");
                 ctx.barrier();
               }),
               RuntimeError);
  // A fresh run on the same cluster must succeed.
  std::atomic<int> visited{0};
  cluster.run([&](RankCtx& ctx) {
    ctx.barrier();
    ++visited;
  });
  EXPECT_EQ(visited.load(), 3);
}

TEST(Cluster, InvalidSizeThrows) {
  EXPECT_THROW(make_cluster(0), InvalidArgument);
}

TEST(Cluster, GatherMismatchedLengthsThrow) {
  auto cluster = make_cluster(2);
  EXPECT_THROW(cluster.run([&](RankCtx& ctx) {
                 std::vector<double> mine(ctx.rank() == 0 ? 2 : 3, 1.0);
                 std::vector<double> all;
                 ctx.gather(mine, all, 0);
               }),
               std::exception);
}

}  // namespace
}  // namespace nadmm::comm
