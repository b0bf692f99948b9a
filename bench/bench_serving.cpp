// Serving-plane microbenchmarks: batched dispatch vs request-at-a-time.
//
// BM_ServeForward_<b>: predict a b-request panel the way the serving
// loop's batch dispatch does: one gemm of the rows against the
// coefficients, then model::predict_class (an argmax) per score row.
// "Engine" gathers the b rows into one panel and issues ONE gemm;
// "Seed" issues b single-row gemms (immediate dispatch). Items/s is
// requests predicted per second, so the engine-vs-seed speedup is the
// real amortization the batching policies buy — the wall-clock analogue
// of the simulated dispatch-overhead model.
//
// BM_LatencySketch_{Engine,Seed}/batch:<n>: record n latencies and read p50/p99/p999.
// "Engine" is the O(1)-insert log-bucketed QuantileSketch the server
// uses; "Seed" is the naive exact path (buffer everything, sort per
// readout). Gated in CI by tools/perf_smoke.py against
// BENCH_serving.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "data/generators.hpp"
#include "la/dense_matrix.hpp"
#include "la/kernels.hpp"
#include "model/softmax.hpp"
#include "serve/quantile.hpp"

namespace {

using nadmm::la::DenseMatrix;

constexpr std::size_t kPoolRows = 512;
constexpr std::size_t kFeatures = 512;
constexpr int kClasses = 10;

struct Panel {
  DenseMatrix pool;  // request pool, row-major
  DenseMatrix coef;  // p × (C−1) coefficient panel
};

const Panel& panel() {
  static const Panel p = [] {
    const auto tt =
        nadmm::data::make_blobs(kPoolRows, 1, kFeatures, kClasses, 3.0, 1.0, 7);
    const auto view = tt.train.dense_view();
    DenseMatrix pool(kPoolRows, kFeatures);
    for (std::size_t r = 0; r < kPoolRows; ++r) {
      const auto row = view.row(r);
      std::copy(row.begin(), row.end(), pool.row(r).begin());
    }
    DenseMatrix coef(kFeatures, static_cast<std::size_t>(kClasses - 1));
    std::uint64_t s = 0x2545f4914f6cdd1dull;
    for (double& v : coef.data()) {
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      v = static_cast<double>(s >> 11) / 9007199254740992.0 - 0.5;
    }
    return Panel{std::move(pool), std::move(coef)};
  }();
  return p;
}

/// Predict rows [0, b) of the pool: one batched dispatch ("Engine") or b
/// single-row dispatches ("Seed"). Items are requests predicted.
void run_forward(benchmark::State& state, bool batched) {
  const auto b = static_cast<std::size_t>(state.range(0));
  const Panel& p = panel();
  const std::size_t c = static_cast<std::size_t>(kClasses - 1);
  DenseMatrix scores(b, c);
  DenseMatrix one_score(1, c);
  for (auto _ : state) {
    std::int32_t predicted = 0;
    if (batched) {
      nadmm::la::kernels::gemm_nn(1.0, p.pool.view(0, b), p.coef, 0.0, scores);
      for (std::size_t r = 0; r < b; ++r) {
        predicted += nadmm::model::predict_class(scores.row(r));
      }
    } else {
      for (std::size_t r = 0; r < b; ++r) {
        nadmm::la::kernels::gemm_nn(1.0, p.pool.view(r, r + 1), p.coef, 0.0,
                                    one_score);
        predicted += nadmm::model::predict_class(one_score.row(0));
      }
    }
    benchmark::DoNotOptimize(predicted);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(b));
}

void BM_ServeForward_Engine(benchmark::State& state) {
  run_forward(state, /*batched=*/true);
}

void BM_ServeForward_Seed(benchmark::State& state) {
  run_forward(state, /*batched=*/false);
}

BENCHMARK(BM_ServeForward_Engine)->Arg(4)->Arg(16)->Arg(64);
BENCHMARK(BM_ServeForward_Seed)->Arg(4)->Arg(16)->Arg(64);

/// Deterministic latency-shaped samples (~[1e-5, 1e-1) s, log-uniform).
std::vector<double> latencies(std::size_t n) {
  std::vector<double> v;
  v.reserve(n);
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < n; ++i) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    const double u = static_cast<double>(s >> 11) / 9007199254740992.0;
    v.push_back(1e-5 * (1.0 + 9999.0 * u * u));
  }
  return v;
}

/// Record n latencies, then read the three report percentiles — the
/// per-scenario work of the serving report. "Engine" = QuantileSketch;
/// "Seed" = exact buffer-and-sort.
void run_sketch(benchmark::State& state, bool sketch) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto values = latencies(n);
  for (auto _ : state) {
    double p50 = 0.0, p99 = 0.0, p999 = 0.0;
    if (sketch) {
      nadmm::serve::QuantileSketch q;
      for (const double v : values) q.add(v);
      p50 = q.quantile(0.50);
      p99 = q.quantile(0.99);
      p999 = q.quantile(0.999);
    } else {
      std::vector<double> buf(values);
      std::sort(buf.begin(), buf.end());
      const auto at = [&](double q) {
        return buf[std::min(buf.size() - 1,
                            static_cast<std::size_t>(
                                q * static_cast<double>(buf.size())))];
      };
      p50 = at(0.50);
      p99 = at(0.99);
      p999 = at(0.999);
    }
    benchmark::DoNotOptimize(p50 + p99 + p999);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_LatencySketch_Engine(benchmark::State& state) {
  run_sketch(state, /*sketch=*/true);
}

void BM_LatencySketch_Seed(benchmark::State& state) {
  run_sketch(state, /*sketch=*/false);
}

// Named, so perf_smoke records 65536 as the entry's param, not threads.
BENCHMARK(BM_LatencySketch_Engine)->ArgName("batch")->Arg(65536);
BENCHMARK(BM_LatencySketch_Seed)->ArgName("batch")->Arg(65536);

}  // namespace

BENCHMARK_MAIN();
