// Telemetry disabled-mode overhead gate.
//
// Every instrumented hot-path wrapper (la::gemm_nn / the softmax
// forward) carries a TELEM_SPAN guard whose disabled path is a
// single relaxed atomic load. This bench runs each wrapper with NO
// tracer installed (`_Engine`) against a local untraced copy of the
// identical body (`_Seed` — same kernel call, same flop credits, no
// span guard), plus a span-churn pair that measures the raw guard cost
// at maximum span frequency. The engine-vs-seed speedup is therefore
// expected to sit at ~1.0; the committed BENCH_telemetry.json baseline
// plus the perf-smoke tolerance (CI runs --tolerance 0.10 — pair noise
// on µs kernels is larger than the guard cost itself) turn "disabled
// telemetry costs <2%" into a regression gate rather than a comment:
// the span-churn pair bounds the absolute guard cost at a few ns,
// orders of magnitude under 2% of any instrumented kernel.
//
// Shapes are deliberately small: the guard cost is per call, so small
// kernels are where any regression would surface first.
#include <benchmark/benchmark.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <cstdint>
#include <vector>

#include "la/dense_matrix.hpp"
#include "la/flops.hpp"
#include "la/kernels.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"

namespace {

using namespace nadmm;

void set_threads(std::int64_t threads) {
#ifdef _OPENMP
  omp_set_num_threads(static_cast<int>(threads));
#else
  static_cast<void>(threads);
#endif
}

la::DenseMatrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  la::DenseMatrix m(r, c);
  for (double& v : m.data()) v = rng.normal();
  return m;
}

// Untraced copies of the instrumented la:: wrapper bodies: identical
// kernel call and flop credits, no span guard. The pairs must stay in
// lock-step with src/la/dense_matrix.cpp for the ratio to isolate the
// guard alone; noinline keeps the call boundary matched to the
// out-of-line library wrappers.
__attribute__((noinline))
void untraced_gemm_nn(double alpha, la::DenseView a, const la::DenseMatrix& b,
                      double beta, la::DenseMatrix& c) {
  la::kernels::gemm_nn(alpha, a, b, beta, c);
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  flops::add(2 * m * k * n);
  flops::add_bytes(8 * (m * k + k * n + flops::output_passes(beta) * m * n));
}

// ------------------------------------------------ small gemm_nn wrapper

template <bool kEngine>
void BM_TelemGemmNN(benchmark::State& state) {
  set_threads(state.range(0));
  const std::size_t n = 256, p = 64, c = 9;
  const auto a = random_matrix(n, p, 1);
  const auto x = random_matrix(p, c, 2);
  la::DenseMatrix s(n, c);
  for (auto _ : state) {
    if constexpr (kEngine) {
      la::gemm_nn(1.0, a, x, 0.0, s);
    } else {
      untraced_gemm_nn(1.0, a, x, 0.0, s);
    }
    benchmark::DoNotOptimize(s.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * p * c));
}

// ------------------------------------- raw guard cost at max frequency

// 256 disabled span guards + instants + counter bumps per iteration vs
// the same trivial workload bare. This is the worst case — nothing to
// amortize the relaxed loads against — so it measures the absolute
// guard cost (~a few ns per span). It is informational only and stays
// out of the committed BENCH_telemetry.json gate: a ratio against an
// empty loop cannot meet a percentage tolerance by construction.
template <bool kEngine>
void BM_TelemSpanChurn(benchmark::State& state) {
  set_threads(state.range(0));
  double acc = 0.0;
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) {
      if constexpr (kEngine) {
        TELEM_SPAN("bench", "churn");
        telem::instant("bench", "tick");
        telem::count("ticks");
        acc += static_cast<double>(i);
      } else {
        acc += static_cast<double>(i);
      }
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}

// clang-format off
BENCHMARK_TEMPLATE(BM_TelemGemmNN, true)->Name("BM_TelemGemmNN_Engine")->Arg(1)->Arg(4)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_TelemGemmNN, false)->Name("BM_TelemGemmNN_Seed")->Arg(1)->Arg(4)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_TelemSpanChurn, true)->Name("BM_TelemSpanChurn_Engine")->Arg(1)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_TelemSpanChurn, false)->Name("BM_TelemSpanChurn_Seed")->Arg(1)->Unit(benchmark::kMicrosecond);
// clang-format on

}  // namespace

BENCHMARK_MAIN();
