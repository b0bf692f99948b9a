// Kernel-engine benchmarks: every rewired hot-path product (register-
// blocked gemm_nn, feature-split gemm_tn, register-row spmm_nn and
// CSC-gather spmm_tn) and the CSC build against the seed critical-section
// implementations preserved in la::kernels::reference, at 1/4/8 OpenMP
// threads, over dense MNIST-like / CIFAR-like and sparse E18-like shapes.
// The softmax forward has no entry: the seed's two-pass row is the
// kernel, so there is nothing to compare it with.
//
// The JSON output feeds tools/perf_smoke.py: the committed
// BENCH_kernels.json baseline records the engine-vs-seed speedup per
// (kernel, threads), and the CI perf-smoke job fails when any measured
// speedup regresses more than 25% below it. Speedups are same-run,
// same-machine ratios, so the gate is robust to runner hardware.
//
// Every kernel also reports absolute throughput (items_per_second is
// GFLOP/s-style work items, bytes_per_second is memory traffic), and two
// host-peak probes — a STREAM-style triad for bandwidth and fused
// multiply-add chains for compute — record what this machine can
// actually do.
// tools/perf_smoke.py divides the two to gate "fraction of host peak",
// which is machine-normalized the same way the speedup ratios are.
#include <benchmark/benchmark.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <cstdint>
#include <vector>

#include "data/generators.hpp"
#include "la/dense_matrix.hpp"
#include "la/kernels.hpp"
#include "la/sparse_matrix.hpp"
#include "support/rng.hpp"

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

// ------------------------------------------------- gemm_nn (scores A·X)

// kClasses = C − 1. MnistC8 runs the same panel with C − 1 = 8: every
// class column sits in a full packed strip on the 2/4/8-lane rungs, so
// that row watches the lane-multiple path on its own, without the
// leftover column C − 1 = 9 adds.
template <bool kEngine, std::size_t kClasses>
void BM_GemmNN_Mnist(benchmark::State& state) {
  set_threads(state.range(0));
  const std::size_t n = 2000, p = 784, c = kClasses;
  const auto a = random_matrix(n, p, 1);
  const auto x = random_matrix(p, c, 2);
  la::DenseMatrix s(n, c);
  for (auto _ : state) {
    if constexpr (kEngine) {
      la::gemm_nn(1.0, a, x, 0.0, s);
    } else {
      la::kernels::reference::gemm_nn(1.0, a, x, 0.0, s);
    }
    benchmark::DoNotOptimize(s.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * p * c));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(8 * (n * p + p * c + n * c)));
}

template <bool kEngine>
void BM_GemmNN_Cifar(benchmark::State& state) {
  set_threads(state.range(0));
  const std::size_t n = 600, p = 3072, c = 9;
  const auto a = random_matrix(n, p, 3);
  const auto x = random_matrix(p, c, 4);
  la::DenseMatrix s(n, c);
  for (auto _ : state) {
    if constexpr (kEngine) {
      la::gemm_nn(1.0, a, x, 0.0, s);
    } else {
      la::kernels::reference::gemm_nn(1.0, a, x, 0.0, s);
    }
    benchmark::DoNotOptimize(s.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * p * c));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(8 * (n * p + p * c + n * c)));
}

// ------------------------------------------- gemm_tn (gradient Aᵀ·W)

template <bool kEngine>
void BM_GemmTN_Mnist(benchmark::State& state) {
  set_threads(state.range(0));
  const std::size_t n = 2000, p = 784, c = 9;
  const auto a = random_matrix(n, p, 5);
  const auto w = random_matrix(n, c, 6);
  la::DenseMatrix g(p, c);
  for (auto _ : state) {
    if constexpr (kEngine) {
      la::gemm_tn(1.0, a, w, 0.0, g);
    } else {
      la::kernels::reference::gemm_tn(1.0, a, w, 0.0, g);
    }
    benchmark::DoNotOptimize(g.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * p * c));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(8 * (n * p + n * c + p * c)));
}

template <bool kEngine>
void BM_GemmTN_MnistShard(benchmark::State& state) {
  set_threads(state.range(0));
  // Per-rank gradient shard in a 16-worker weak-scaling run with a 10%
  // subsampled Hessian panel: few samples against the full parameter
  // panel, so the seed's serialized reduce is a large fraction of the
  // per-thread compute.
  const std::size_t n = 250, p = 784, c = 9;
  const auto a = random_matrix(n, p, 15);
  const auto w = random_matrix(n, c, 16);
  la::DenseMatrix g(p, c);
  for (auto _ : state) {
    if constexpr (kEngine) {
      la::gemm_tn(1.0, a, w, 0.0, g);
    } else {
      la::kernels::reference::gemm_tn(1.0, a, w, 0.0, g);
    }
    benchmark::DoNotOptimize(g.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * p * c));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(8 * (n * p + n * c + p * c)));
}

template <bool kEngine>
void BM_GemmTN_Cifar(benchmark::State& state) {
  set_threads(state.range(0));
  // Weak-scaling CIFAR shard: wider feature dimension, so the seed's
  // serialized reduce covers a 3072×9 panel per thread.
  const std::size_t n = 600, p = 3072, c = 9;
  const auto a = random_matrix(n, p, 13);
  const auto w = random_matrix(n, c, 14);
  la::DenseMatrix g(p, c);
  for (auto _ : state) {
    if constexpr (kEngine) {
      la::gemm_tn(1.0, a, w, 0.0, g);
    } else {
      la::kernels::reference::gemm_tn(1.0, a, w, 0.0, g);
    }
    benchmark::DoNotOptimize(g.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * p * c));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(8 * (n * p + n * c + p * c)));
}

// -------------------------------------- spmm_tn (sparse gradient Aᵀ·W)

template <bool kEngine>
void BM_SpmmTN_E18(benchmark::State& state) {
  set_threads(state.range(0));
  // Paper-scale E18 shard: p = 27,998 genes with a weak-scaling per-rank
  // sample count. The output panel is p×19, so this is the regime where
  // the seed's critical-section reduce serializes a 4.3 MB panel per
  // thread while the per-thread compute shrinks with the thread count.
  const auto tt = data::make_e18_like(400, 10, 27998, 9);
  const auto& a = tt.train.sparse_features();
  const std::size_t c = 19;
  const auto w = random_matrix(a.rows(), c, 10);
  la::DenseMatrix g(a.cols(), c);
  for (auto _ : state) {
    if constexpr (kEngine) {
      la::spmm_tn(1.0, a, w, 0.0, g);
    } else {
      la::kernels::reference::spmm_tn(1.0, a, w, 0.0, g);
    }
    benchmark::DoNotOptimize(g.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * a.nnz() * c));
  // CSR storage (values + col_idx + row_ptr) plus the dense W read and
  // the G panel write; the cached-CSC path touches the transpose instead
  // but the byte count is the same.
  const std::size_t csr_bytes =
      a.nnz() * (sizeof(double) + sizeof(std::int64_t)) +
      (a.rows() + 1) * sizeof(std::int64_t);
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(csr_bytes +
                                8 * (a.rows() * c + a.cols() * c)));
}

// One rank's shard of the e18-nadmm end-to-end workload: rows
// [8000, 16000) of a 16000×1400 E18-like parent (two ranks), against
// C − 1 = 19 classes. The second rank's view starts past parent row 0, so
// the gather's shard-relative B rows are what this measures. The parent
// is generated once per process.
constexpr std::size_t kE18Classes = 19;

la::CsrView e18_shard() {
  static const data::TrainTest tt = data::make_e18_like(16000, 10, 1400, 21);
  return tt.train.sparse_features().view(8000, 16000);
}

template <bool kEngine>
void BM_SpmmNN_E18Shard(benchmark::State& state) {
  set_threads(state.range(0));
  const la::CsrView a = e18_shard();
  const std::size_t c = kE18Classes;
  const auto x = random_matrix(a.cols(), c, 22);
  la::DenseMatrix s(a.rows(), c);
  for (auto _ : state) {
    if constexpr (kEngine) {
      la::spmm_nn(1.0, a, x, 0.0, s);
    } else {
      la::kernels::reference::spmm_nn(1.0, a, x, 0.0, s);
    }
    benchmark::DoNotOptimize(s.data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * a.nnz() * c));
  // The shard's CSR entries, the X panel and the S write.
  const std::size_t csr_bytes =
      a.nnz() * (sizeof(double) + sizeof(std::int64_t)) +
      (a.rows() + 1) * sizeof(std::int64_t);
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(csr_bytes +
                                8 * (a.cols() * c + a.rows() * c)));
}

template <bool kEngine>
void BM_SpmmTN_E18Shard(benchmark::State& state) {
  set_threads(state.range(0));
  const la::CsrView a = e18_shard();
  // Built before timing, as the solver's set-up does.
  static_cast<void>(a.parent()->transposed());
  const std::size_t c = kE18Classes;
  const auto w = random_matrix(a.rows(), c, 23);
  la::DenseMatrix g(a.cols(), c);
  for (auto _ : state) {
    if constexpr (kEngine) {
      la::spmm_tn(1.0, a, w, 0.0, g);
    } else {
      la::kernels::reference::spmm_tn(1.0, a, w, 0.0, g);
    }
    benchmark::DoNotOptimize(g.data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * a.nnz() * c));
  const std::size_t csr_bytes =
      a.nnz() * (sizeof(double) + sizeof(std::int64_t)) +
      (a.rows() + 1) * sizeof(std::int64_t);
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(csr_bytes +
                                8 * (a.rows() * c + a.cols() * c)));
}

// ------------------------------------------- CSC materialization (E18)

template <bool kEngine>
void BM_CscBuildE18(benchmark::State& state) {
  set_threads(state.range(0));
  // Same E18-like shard as the spmm bench: the CSC transpose this build
  // produces is exactly what the spmm_tn gather consumes.
  const auto tt = data::make_e18_like(400, 10, 27998, 9);
  const auto& a = tt.train.sparse_features();
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto va = a.values();
  // At 1 thread build_transposed falls back to build_transposed_seq, so
  // both sides run the same function and their ratio is run-to-run noise.
  for (auto _ : state) {
    auto t = la::detail::build_transposed(a.rows(), a.cols(), rp, ci, va,
                                          /*parallel=*/kEngine);
    benchmark::DoNotOptimize(t.values.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.nnz()));
  // Read the CSR triple, write the CSC triple (counting pass rereads
  // col_idx but that is bookkeeping, not the bound).
  const std::size_t triple_bytes =
      a.nnz() * (sizeof(double) + sizeof(std::int64_t)) +
      (a.rows() + a.cols() + 2) * sizeof(std::int64_t);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * triple_bytes));
}

// ------------------------------------------------------ host peak probes
//
// Not Engine/Seed pairs on purpose: these two record what THIS machine
// can do, so perf_smoke.py can express kernel throughput as a fraction
// of host peak instead of an absolute number that only means something
// on one runner.

// STREAM-style triad a[i] = b[i] + s*c[i]: sustainable bandwidth.
void BM_HostPeak_Triad(benchmark::State& state) {
  const std::size_t n = std::size_t{1} << 22;  // 3 × 32 MiB streams
  std::vector<double> a(n, 0.0), b(n, 1.5), c(n, 2.5);
  for (auto _ : state) {
    const double s = 3.0;
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    benchmark::DoNotOptimize(a.data());
    benchmark::ClobberMemory();
  }
  // 24 B/element: read b and c, write a (write-allocate traffic ignored,
  // matching the classic STREAM accounting).
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(24 * n));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n));
}

// Fused multiply-add chains on the dispatched engine rung: the compute
// peak an engine kernel can reach, since every term of its product chains
// is one such fma (la/simd.hpp).
void BM_HostPeak_Fma(benchmark::State& state) {
  const la::kernels::Rung& rung = la::kernels::active_rung();
  constexpr std::size_t kSteps = 4096;
  // The probe sits behind a function pointer in another object, so its
  // seed cannot be folded into the chains.
  for (auto _ : state) {
    benchmark::DoNotOptimize(rung.peak_probe(1.0, kSteps));
  }
  // 2 flops (one fused multiply-add) per lane per chain step.
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(2 * rung.lanes * la::kernels::kProbeChains *
                                kSteps));
}

// clang-format off
BENCHMARK_TEMPLATE(BM_GemmNN_Mnist, true, 9)->Name("BM_GemmNN_Mnist_Engine")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_GemmNN_Mnist, false, 9)->Name("BM_GemmNN_Mnist_Seed")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_GemmNN_Mnist, true, 8)->Name("BM_GemmNN_MnistC8_Engine")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_GemmNN_Mnist, false, 8)->Name("BM_GemmNN_MnistC8_Seed")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_GemmNN_Cifar, true)->Name("BM_GemmNN_Cifar_Engine")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_GemmNN_Cifar, false)->Name("BM_GemmNN_Cifar_Seed")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_GemmTN_Mnist, true)->Name("BM_GemmTN_Mnist_Engine")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_GemmTN_Mnist, false)->Name("BM_GemmTN_Mnist_Seed")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_GemmTN_MnistShard, true)->Name("BM_GemmTN_MnistShard_Engine")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_GemmTN_MnistShard, false)->Name("BM_GemmTN_MnistShard_Seed")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_GemmTN_Cifar, true)->Name("BM_GemmTN_Cifar_Engine")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_GemmTN_Cifar, false)->Name("BM_GemmTN_Cifar_Seed")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_SpmmTN_E18, true)->Name("BM_SpmmTN_E18_Engine")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_SpmmTN_E18, false)->Name("BM_SpmmTN_E18_Seed")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_SpmmNN_E18Shard, true)->Name("BM_SpmmNN_E18Shard_Engine")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_SpmmNN_E18Shard, false)->Name("BM_SpmmNN_E18Shard_Seed")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_SpmmTN_E18Shard, true)->Name("BM_SpmmTN_E18Shard_Engine")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_SpmmTN_E18Shard, false)->Name("BM_SpmmTN_E18Shard_Seed")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_CscBuildE18, true)->Name("BM_CscBuildE18_Engine")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_CscBuildE18, false)->Name("BM_CscBuildE18_Seed")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_HostPeak_Triad)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_HostPeak_Fma)->Unit(benchmark::kMicrosecond);
// clang-format on

}  // namespace

// Custom main so every bench JSON records which engine rung it ran on —
// perf_smoke baselines from different ISAs should not be compared blindly.
int main(int argc, char** argv) {
  benchmark::AddCustomContext("nadmm_isa", nadmm::la::kernels::active_isa());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
