// Tests for the serving plane (src/serve/*): quantile-sketch accuracy
// against exact percentiles, arrival-schedule determinism, batch-policy
// edge cases through the simulator (empty stream, bursts larger than
// the batch cap, deadline expiry), served answers against offline
// predictions on dense and sparse pools, model save/load round trips,
// and byte-identical serving sweeps at any --jobs level.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "la/dense_matrix.hpp"
#include "model/softmax.hpp"
#include "runner/harness.hpp"
#include "runner/sweep.hpp"
#include "serve/arrival.hpp"
#include "serve/batching.hpp"
#include "serve/model_io.hpp"
#include "serve/quantile.hpp"
#include "serve/server.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

// Every global operator new in this binary is counted, so a test can
// measure how many heap allocations a code path makes. GCC cannot see
// that the replaced new and delete pair malloc with free.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace nadmm::serve {
namespace {

// ------------------------------------------------------- quantile sketch

/// Deterministic pseudo-random latencies (no std::rand in tests).
std::vector<double> synthetic_latencies(std::size_t n) {
  std::vector<double> v;
  v.reserve(n);
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < n; ++i) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    // Spread over ~4 decades, [1e-5, 1e-1): latency-shaped.
    const double u = static_cast<double>(s >> 11) / 9007199254740992.0;
    v.push_back(1e-5 * std::pow(10.0, 4.0 * u));
  }
  return v;
}

double exact_quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

TEST(QuantileSketch, TracksExactPercentilesWithinRelativeError) {
  const auto values = synthetic_latencies(20'000);
  QuantileSketch sketch(0.01);
  for (const double v : values) sketch.add(v);
  EXPECT_EQ(sketch.count(), values.size());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const double exact = exact_quantile(values, q);
    const double approx = sketch.quantile(q);
    // ε = 1% sketch; allow 3% for the exact-index rounding at the tail.
    EXPECT_NEAR(approx, exact, 0.03 * exact) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(sketch.max(),
                   *std::max_element(values.begin(), values.end()));
  EXPECT_NEAR(sketch.mean(), sketch.sum() / static_cast<double>(sketch.count()),
              1e-12);
}

TEST(QuantileSketch, IsInsertionOrderIndependent) {
  auto values = synthetic_latencies(5'000);
  QuantileSketch forward;
  for (const double v : values) forward.add(v);
  std::reverse(values.begin(), values.end());
  QuantileSketch reversed;
  for (const double v : values) reversed.add(v);
  for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(forward.quantile(q), reversed.quantile(q)) << q;
  }
}

TEST(QuantileSketch, EdgesAndErrors) {
  QuantileSketch sketch;
  EXPECT_THROW(static_cast<void>(sketch.quantile(0.5)), InvalidArgument);
  sketch.add(0.0);  // at/below the floor: shares the resolution bucket
  sketch.add(42.0);
  EXPECT_LE(sketch.quantile(0.0), 1e-9);  // floor-bucket resolution
  EXPECT_DOUBLE_EQ(sketch.quantile(1.0), 42.0);
  EXPECT_THROW(sketch.add(-1.0), InvalidArgument);
}

// ------------------------------------------------------ arrival streams

TEST(ArrivalStreams, SameSeedIsBitIdenticalAcrossModels) {
  for (const char* spec :
       {"poisson:800", "diurnal:1000:0.8:0.5", "bursty:400:4000:0.5:0.2"}) {
    const auto model = make_arrival(spec);
    const auto a = make_request_stream(*model, 500, 64, 7);
    const auto b = make_request_stream(*model, 500, 64, 7);
    ASSERT_EQ(a.size(), b.size()) << spec;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].row, b[i].row);
      EXPECT_DOUBLE_EQ(a[i].arrival_s, b[i].arrival_s) << spec << " @" << i;
    }
    const auto c = make_request_stream(*model, 500, 64, 8);
    bool differs = false;
    for (std::size_t i = 0; i < c.size() && !differs; ++i) {
      differs = a[i].arrival_s != c[i].arrival_s || a[i].row != c[i].row;
    }
    EXPECT_TRUE(differs) << spec << ": seed must matter";
  }
}

TEST(ArrivalStreams, SchedulesAreNonDecreasingAndInPool) {
  const auto model = make_arrival("bursty");
  const auto stream = make_request_stream(*model, 1'000, 17, 42);
  ASSERT_EQ(stream.size(), 1'000u);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i].id, i);
    EXPECT_LT(stream[i].row, 17u);
    if (i > 0) {
      EXPECT_GE(stream[i].arrival_s, stream[i - 1].arrival_s);
    }
  }
}

TEST(ArrivalStreams, FactoryValidatesSpecs) {
  EXPECT_EQ(make_arrival("poisson")->name(), "poisson:1000");
  EXPECT_NEAR(make_arrival("diurnal:100:0.5:2")->mean_rate(), 100.0, 1e-12);
  for (const char* bad :
       {"", "bogus", "poisson:0", "poisson:-5", "poisson:abc",
        "diurnal:1000:1.5", "bursty:400:100:0.5:0.2", "bursty:400:4000:0:0.2",
        "bursty:400:4000:0.5:1.5"}) {
    EXPECT_THROW(static_cast<void>(make_arrival(bad)), InvalidArgument) << bad;
  }
}

TEST(BatchPolicies, FactoryValidatesSpecs) {
  EXPECT_EQ(make_batch_policy("immediate")->max_batch(), 1u);
  EXPECT_EQ(make_batch_policy("size:32")->max_batch(), 32u);
  const auto deadline = make_batch_policy("deadline:16:0.005");
  EXPECT_EQ(deadline->max_batch(), 16u);
  EXPECT_DOUBLE_EQ(deadline->max_delay(), 0.005);
  EXPECT_FALSE(deadline->ready(15));
  EXPECT_TRUE(deadline->ready(16));
  for (const char* bad :
       {"", "sized:4", "size:0", "size:-2", "deadline:16", "deadline:0:0.01",
        "deadline:16:-1"}) {
    EXPECT_THROW(static_cast<void>(make_batch_policy(bad)), InvalidArgument)
        << bad;
  }
}

// ----------------------------------------------------------- simulator

/// Tiny blobs pool + an untrained (zero) softmax model: the simulator
/// exercises scheduling/batching/latency, not model quality.
struct Fixture {
  data::TrainTest tt;
  SavedModel model;
};

Fixture tiny_fixture() {
  runner::ExperimentConfig c;
  c.dataset = "blobs";
  c.n_train = 60;
  c.n_test = 40;
  c.e18_features = 8;
  Fixture f{runner::make_data(c), {}};
  f.model.num_features = f.tt.test.num_features();
  f.model.num_classes = f.tt.test.num_classes();
  f.model.x.assign(f.model.num_features * f.model.coef_cols(), 0.01);
  return f;
}

ServeConfig tiny_serve() {
  ServeConfig c;
  c.requests = 400;
  c.network = "ideal";
  c.omp_threads = 1;
  return c;
}

TEST(ServeSimulator, EmptyStreamYieldsZeroedReport) {
  const auto f = tiny_fixture();
  auto config = tiny_serve();
  config.requests = 0;
  const auto r = simulate(f.model, f.tt.test, config);
  EXPECT_EQ(r.requests, 0u);
  EXPECT_EQ(r.batches, 0u);
  EXPECT_DOUBLE_EQ(r.throughput_rps, 0.0);
  EXPECT_DOUBLE_EQ(r.p99_latency_s, 0.0);
}

TEST(ServeSimulator, ImmediateDispatchesEveryRequestAlone) {
  const auto f = tiny_fixture();
  auto config = tiny_serve();
  config.arrival = "poisson:200";
  config.batch = "immediate";
  const auto r = simulate(f.model, f.tt.test, config);
  EXPECT_EQ(r.requests, 400u);
  EXPECT_EQ(r.batches, 400u);
  EXPECT_EQ(r.max_batch_seen, 1u);
  EXPECT_EQ(r.deadline_flushes, 0u);
  EXPECT_GT(r.throughput_rps, 0.0);
  EXPECT_GE(r.p99_latency_s, r.p50_latency_s);
  EXPECT_GE(r.p999_latency_s, r.p99_latency_s);
  EXPECT_GE(r.max_latency_s, r.p999_latency_s);
}

TEST(ServeSimulator, BurstLargerThanCapSplitsAtMaxBatch) {
  const auto f = tiny_fixture();
  auto config = tiny_serve();
  // Bursts of ~4000 req/s against an 8-cap: queues exceed the cap, so
  // the server must split — never gathering more than max_batch rows.
  config.arrival = "bursty:50:4000:0.25:0.5";
  config.batch = "size:8";
  const auto r = simulate(f.model, f.tt.test, config);
  EXPECT_EQ(r.requests, 400u);
  EXPECT_LE(r.max_batch_seen, 8u);
  EXPECT_GE(r.batches, 400u / 8);
  EXPECT_GT(r.mean_batch, 1.0);
}

TEST(ServeSimulator, DeadlineExpiryFlushesInFlightRequests) {
  const auto f = tiny_fixture();
  auto config = tiny_serve();
  // Sparse traffic against a large cap: the 64-batch never fills, so
  // every dispatch is a deadline flush — and none may be lost.
  config.arrival = "poisson:50";
  config.batch = "deadline:64:0.002";
  const auto r = simulate(f.model, f.tt.test, config);
  EXPECT_EQ(r.requests, 400u);
  EXPECT_GT(r.deadline_flushes, 0u);
  // Tail stays near the deadline: queue wait <= 2ms plus service time.
  EXPECT_LT(r.p99_latency_s, 0.01);
}

TEST(ServeSimulator, IdealNetworkAnswersEveryPoissonRequest) {
  // serving_grid's headline load on the zero-latency network: the last
  // request and the generator's Done frame land within half an ulp, so
  // only per-link FIFO delivery keeps Done from halting the server first.
  const auto f = tiny_fixture();
  auto config = tiny_serve();
  config.arrival = "poisson:20000";
  config.batch = "deadline:32:0.002";
  config.requests = 20000;
  config.dispatch_overhead_s = 1e-4;
  for (const std::uint64_t seed : {42u, 43u, 44u, 45u, 46u, 47u}) {
    config.seed = seed;
    EXPECT_EQ(simulate(f.model, f.tt.test, config).requests, 20000u)
        << "seed " << seed;
  }
}

TEST(ServeSimulator, DispatchesPayForTheScoringGemm) {
  // A flop-only 0.01 GF/s device and no dispatch overhead: the server's
  // compute is its batches' gemms, 2·b·p·(C−1) flops each, which sum to
  // 2·requests·p·(C−1) however the stream was batched.
  const auto f = tiny_fixture();
  auto config = tiny_serve();
  config.device = "0.01";
  config.dispatch_overhead_s = 0.0;
  config.arrival = "poisson:200";
  config.batch = "deadline:16:0.005";
  const auto r = simulate(f.model, f.tt.test, config);
  ASSERT_EQ(r.requests, 400u);
  EXPECT_GT(r.batches, 1u);
  const double flops = 2.0 * 400.0 *
                       static_cast<double>(f.model.num_features) *
                       static_cast<double>(f.model.coef_cols());
  const double want = flops / 0.01e9;
  EXPECT_NEAR(r.server_compute_seconds, want, 1e-12 * want);
}

TEST(ServeSimulator, RerunsAreBitIdentical) {
  const auto f = tiny_fixture();
  auto config = tiny_serve();
  config.arrival = "bursty:100:2000:0.5:0.2";
  config.batch = "deadline:16:0.005";
  const auto a = simulate(f.model, f.tt.test, config);
  const auto b = simulate(f.model, f.tt.test, config);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.deadline_flushes, b.deadline_flushes);
  EXPECT_DOUBLE_EQ(a.total_sim_seconds, b.total_sim_seconds);
  EXPECT_DOUBLE_EQ(a.throughput_rps, b.throughput_rps);
  EXPECT_DOUBLE_EQ(a.p50_latency_s, b.p50_latency_s);
  EXPECT_DOUBLE_EQ(a.p99_latency_s, b.p99_latency_s);
  EXPECT_DOUBLE_EQ(a.p999_latency_s, b.p999_latency_s);
  EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
}

TEST(ServeSimulator, SteadyStateReplayBarelyAllocates) {
  // The bench/e2e serve-poisson replay: 256 features, poisson:20000 with
  // deadline batching on ib100. Requests travel through recycled event
  // slots and the dispatch reuses its panels, so a second replay makes
  // far fewer than one heap allocation per request.
  runner::ExperimentConfig c;
  c.dataset = "blobs";
  c.n_train = 60;
  c.n_test = 500;
  c.e18_features = 256;
  const auto tt = runner::make_data(c);
  SavedModel model;
  model.num_features = tt.test.num_features();
  model.num_classes = tt.test.num_classes();
  model.x.assign(model.num_features * model.coef_cols(), 0.01);
  ServeConfig config;
  config.arrival = "poisson:20000";
  config.batch = "deadline:32:0.002";
  config.requests = 20000;
  config.network = "ib100";
  config.omp_threads = 1;
  ASSERT_EQ(simulate(model, tt.test, config).requests, 20000u);
  const std::uint64_t before = g_allocations.load();
  const auto r = simulate(model, tt.test, config);
  const std::uint64_t allocations = g_allocations.load() - before;
  ASSERT_EQ(r.requests, 20000u);
  EXPECT_LT(static_cast<double>(allocations) / 20000.0, 0.1)
      << allocations << " allocations for 20000 requests";
}

TEST(ServeSimulator, AnswersMatchOfflinePredictions) {
  // A dense pool is scored in place and a sparse one through its
  // densified batch panel; either way each answer is predict_class of
  // the requested row's scores, so the served accuracy counts exactly the
  // requests that scoring the whole pool offline gets right.
  for (const char* dataset : {"blobs", "e18"}) {
    runner::ExperimentConfig c;
    c.dataset = dataset;
    c.n_train = 60;
    c.n_test = 300;
    c.e18_features = 64;
    const auto tt = runner::make_data(c);
    const auto& pool = tt.test;
    ASSERT_EQ(pool.is_sparse(), std::string(dataset) == "e18");
    SavedModel model;
    model.num_features = pool.num_features();
    model.num_classes = pool.num_classes();
    Rng rng(7);
    model.x.resize(model.num_features * model.coef_cols());
    for (double& v : model.x) v = rng.normal();

    ServeConfig config;
    config.arrival = "bursty:100:4000:0.25:0.5";
    config.batch = "deadline:16:0.002";
    config.requests = 2000;
    config.omp_threads = 1;
    const auto r = simulate(model, pool, config);
    ASSERT_EQ(r.requests, config.requests) << dataset;
    EXPECT_GT(r.mean_batch, 1.0) << dataset;

    const la::DenseMatrix coef(model.num_features, model.coef_cols(), model.x);
    la::DenseMatrix scores(pool.num_samples(), model.coef_cols());
    pool.scores(coef, scores);
    const auto stream =
        make_request_stream(*make_arrival(config.arrival), config.requests,
                            pool.num_samples(), config.seed);
    std::uint64_t correct = 0;
    for (const Request& q : stream) {
      correct += model::predict_class(scores.row(q.row)) == pool.labels()[q.row]
                     ? 1
                     : 0;
    }
    EXPECT_GT(correct, 0u) << dataset;
    EXPECT_LT(correct, config.requests) << dataset;
    EXPECT_EQ(std::llround(r.accuracy * static_cast<double>(r.requests)),
              static_cast<long long>(correct))
        << dataset;
  }
}

TEST(ServeSimulator, RejectsMismatchedPool) {
  const auto f = tiny_fixture();
  auto model = f.model;
  model.num_features += 1;
  model.x.assign(model.num_features * model.coef_cols(), 0.0);
  EXPECT_THROW(static_cast<void>(simulate(model, f.tt.test, tiny_serve())),
               InvalidArgument);
}

// ------------------------------------------------------------ model I/O

TEST(ModelIo, RoundTripsExactly) {
  SavedModel m;
  m.solver = "newton-admm";
  m.dataset = "blobs";
  m.num_features = 3;
  m.num_classes = 4;
  m.seed = 18446744073709551615ull;
  m.n_train = 2000;
  m.n_test = 500;
  m.lambda = 1e-5;
  m.x = {0.125, -2.5, 3.0e-17, 1.0 / 3.0, -0.0, 5.0, 6.25, -7.125, 8.0};
  const std::string path = "test_model_roundtrip.txt";
  save_model(m, path);
  const auto loaded = load_model(path);
  EXPECT_EQ(loaded.solver, m.solver);
  EXPECT_EQ(loaded.dataset, m.dataset);
  EXPECT_EQ(loaded.seed, m.seed);
  EXPECT_EQ(loaded.n_train, m.n_train);
  EXPECT_EQ(loaded.n_test, m.n_test);
  EXPECT_EQ(loaded.num_features, m.num_features);
  EXPECT_EQ(loaded.num_classes, m.num_classes);
  EXPECT_DOUBLE_EQ(loaded.lambda, m.lambda);
  ASSERT_EQ(loaded.x.size(), m.x.size());
  for (std::size_t i = 0; i < m.x.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded.x[i], m.x[i]) << i;  // %.17g: bit-exact
  }
  std::filesystem::remove(path);
}

TEST(ModelIo, RejectsMissingAndCorruptFiles) {
  EXPECT_THROW(static_cast<void>(load_model("no-such-model.txt")),
               RuntimeError);
  const std::string path = "test_model_corrupt.txt";
  {
    std::ofstream out(path);
    out << "nadmm-model v2\nobjective softmax\nsolver -\ndataset -\n"
           "seed 0\nn_train 0\nn_test 0\n"
           "features 2\nclasses 2\nlambda 0\ncoefficients 2\n1.0\n";
    // truncated: coefficient count promised 2, only 1 present, no `end`
  }
  try {
    static_cast<void>(load_model(path));
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << "loader errors must name the file";
  }
  std::filesystem::remove(path);
}

TEST(ModelIo, HeaderCountsAreBoundedBeforeAnythingIsAllocated) {
  // Each header names the file and the line of the bad count; none may
  // reach an allocation sized by the header alone.
  const std::string path = "test_model_header.txt";
  const auto expect_rejected = [&](const std::string& counts) {
    {
      std::ofstream out(path);
      out << "nadmm-model v2\nobjective softmax\nsolver -\ndataset -\n"
           "seed 0\nn_train 0\nn_test 0\n"
          << counts << "1.0 2.0\nend\n";
    }
    try {
      static_cast<void>(load_model(path));
      ADD_FAILURE() << "accepted: " << counts;
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(path + ":"), std::string::npos)
          << e.what();
    }
  };
  // Consistent but unbacked: 2^41 coefficients promised, two present.
  expect_rejected(
      "features 1099511627776\nclasses 3\nlambda 0\n"
      "coefficients 2199023255552\n");
  // features × (classes − 1) wraps to 2 in 64 bits.
  expect_rejected(
      "features 9223372036854775809\nclasses 3\nlambda 0\n"
      "coefficients 2\n");
  // Negative text must not wrap to 2^64 − 1.
  expect_rejected("features -1\nclasses 3\nlambda 0\ncoefficients 2\n");
  expect_rejected("features 1\nclasses 3\nlambda 0\ncoefficients -1\n");
  std::filesystem::remove(path);
}

TEST(ModelIo, WritesSoftmaxAndRejectsAnyOtherObjective) {
  const std::string path = "test_model_objective.txt";
  SavedModel m;
  m.num_features = 1;
  m.num_classes = 2;
  m.x = {0.5};
  save_model(m, path);
  {
    std::ifstream in(path);
    std::string magic, objective;
    std::getline(in, magic);
    std::getline(in, objective);
    EXPECT_EQ(objective, "objective softmax");
  }
  for (const char* other : {"least-squares", "Softmax", ""}) {
    {
      std::ofstream out(path);
      out << "nadmm-model v2\nobjective " << other
          << "\nsolver -\ndataset -\nseed 0\nn_train 0\nn_test 0\n"
             "features 1\nclasses 2\nlambda 0\ncoefficients 1\n0.5\nend\n";
    }
    try {
      static_cast<void>(load_model(path));
      ADD_FAILURE() << "accepted objective '" << other << "'";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(path + ":2:"), std::string::npos)
          << e.what();
    }
  }
  std::filesystem::remove(path);
}

// Jepsen-style decoder fuzzing: every mutated model file either fails
// with a typed error or loads a consistent softmax model — p·(C−1) finite
// coefficients and a finite λ. The valid file carries the extremes of
// %.17g text (the largest finite double, a subnormal, -0) so that a
// mutated digit or exponent can push a value out of range.
TEST(ModelIo, MutatedModelFilesFailTypedOrLoadConsistently) {
  const std::string valid_path = testing::TempDir() + "/nadmm_valid.model";
  SavedModel m;
  m.solver = "newton-admm";
  m.dataset = "blobs";
  m.seed = 42;
  m.n_train = 2000;
  m.n_test = 500;
  m.num_features = 5;
  m.num_classes = 4;
  m.lambda = 1e-5;
  for (std::size_t i = 0; i < m.num_features * m.coef_cols(); ++i) {
    m.x.push_back(std::ldexp(static_cast<double>(i) - 7.0, 3 * static_cast<int>(i) - 20));
  }
  m.x[1] = std::numeric_limits<double>::max();
  m.x[6] = -std::numeric_limits<double>::denorm_min();
  m.x[11] = -0.0;
  save_model(m, valid_path);
  std::string valid;
  {
    std::ifstream in(valid_path);
    valid.assign(std::istreambuf_iterator<char>(in), {});
  }
  std::filesystem::remove(valid_path);

  constexpr std::uint64_t kFirstSeed = 0x6d0de1f0;
  constexpr std::uint64_t kTrials = 20000;
  const std::string path = testing::TempDir() + "/nadmm_fuzz.model";
  std::size_t loaded = 0;
  for (std::uint64_t seed = kFirstSeed; seed < kFirstSeed + kTrials; ++seed) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << test::mutate(valid, seed, "0123456789.e+- \n");
    }
    SavedModel got;
    try {
      got = load_model(path);
    } catch (const RuntimeError&) {
      continue;
    } catch (const InvalidArgument&) {
      continue;
    } catch (const std::exception& e) {
      FAIL() << "seed " << seed << ": untyped " << e.what();
    }
    ++loaded;
    ASSERT_GT(got.num_features, 0u) << "seed " << seed;
    ASSERT_GE(got.num_classes, 2) << "seed " << seed;
    ASSERT_EQ(got.x.size(), got.num_features * got.coef_cols())
        << "seed " << seed;
    ASSERT_TRUE(std::isfinite(got.lambda)) << "seed " << seed;
    for (const double v : got.x) {
      ASSERT_TRUE(std::isfinite(v)) << "seed " << seed << ": " << v;
    }
  }
  // The mix must exercise both outcomes, or the fuzzer tests nothing.
  EXPECT_GT(loaded, kTrials / 20);
  EXPECT_LT(loaded, kTrials);
  std::filesystem::remove(path);
}

/// Expect check_model_pool to reject `pool` naming `field`.
void expect_pool_rejected(const SavedModel& model,
                          const runner::ExperimentConfig& pool,
                          const std::string& field) {
  try {
    runner::check_model_pool(model, pool);
    ADD_FAILURE() << "pool accepted; expected a " << field << " mismatch";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("pool " + field + " "),
              std::string::npos)
        << e.what();
  }
}

TEST(ModelPool, ServingRejectsAPoolTheModelWasNotTrainedOn) {
  // A model file records its training data; serving it on another seed
  // or split would score it against a different request pool.
  runner::ExperimentConfig config;
  config.n_train = 40;
  config.n_test = 10;
  config.e18_features = 6;
  config.seed = 42;
  const auto tt = runner::make_data(config);
  const std::string path = "test_model_pool.txt";
  save_model(runner::saved_model("newton-admm", config, tt.train,
                                 std::vector<double>(6 * 9, 0.0)),
             path);
  const SavedModel model = load_model(path);
  std::filesystem::remove(path);
  runner::check_model_pool(model, config);  // the training pool passes

  auto pool = config;
  pool.seed = 43;
  expect_pool_rejected(model, pool, "seed");
  pool = config;
  pool.n_train = 41;
  expect_pool_rejected(model, pool, "n_train");
  pool = config;
  pool.n_test = 11;
  expect_pool_rejected(model, pool, "n_test");
  pool = config;
  pool.dataset = "higgs";
  expect_pool_rejected(model, pool, "dataset");

  // A file-backed model has no generator seed to disagree with.
  SavedModel file_model = model;
  file_model.dataset = "libsvm:train.svm";
  pool = config;
  pool.dataset = file_model.dataset;
  pool.seed = 7;
  runner::check_model_pool(file_model, pool);

  // The sweep's serve_model path fails the row, naming the field.
  save_model(model, path);
  runner::SweepSpec spec;
  spec.mode = "serving";
  spec.serve_model = path;
  spec.base = config;
  spec.base.seed = 43;
  spec.serve.requests = 20;
  const auto report = runner::run_sweep(spec, runner::SweepOptions{});
  std::filesystem::remove(path);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_FALSE(report.outcomes[0].ok);
  EXPECT_NE(report.outcomes[0].error.find("pool seed '43'"), std::string::npos)
      << report.outcomes[0].error;
}

// ----------------------------------------------------- serving sweeps

TEST(ServingSweep, ReportIsByteIdenticalAcrossJobs) {
  runner::SweepSpec spec;
  spec.mode = "serving";
  spec.solvers = {"newton-admm"};
  spec.datasets = {"blobs"};
  spec.workers = {2};
  spec.arrivals = {"poisson:500", "bursty:100:2000:0.5:0.2"};
  spec.batch_policies = {"immediate", "deadline:8:0.01"};
  spec.serve.requests = 200;
  spec.base.n_train = 120;
  spec.base.n_test = 40;
  spec.base.e18_features = 8;
  spec.base.iterations = 2;
  ASSERT_EQ(runner::expand_scenarios(spec).size(), 4u);

  runner::SweepOptions serial;
  serial.jobs = 1;
  runner::SweepOptions threaded;
  threaded.jobs = 2;
  const auto a = runner::run_sweep(spec, serial);
  const auto b = runner::run_sweep(spec, threaded);
  ASSERT_EQ(a.failures(), 0u) << a.outcomes.front().error;
  const auto rows_a = a.csv_rows();
  const auto rows_b = b.csv_rows();
  ASSERT_EQ(rows_a.size(), rows_b.size());
  for (std::size_t i = 0; i < rows_a.size(); ++i) {
    EXPECT_EQ(rows_a[i], rows_b[i]) << "row " << i;
  }
  // Serving rows carry the serving columns (non-zero throughput).
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_TRUE(a.outcomes[i].scenario.serving);
    EXPECT_EQ(a.outcomes[i].serve_requests, 200u);
    EXPECT_GT(a.outcomes[i].throughput_rps, 0.0);
  }
}

}  // namespace
}  // namespace nadmm::serve
