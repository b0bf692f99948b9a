// Lock-free blocked kernel engine for the Newton-ADMM hot path.
//
// Every second-order step runs three product shapes per CG iteration on
// every rank: scores S = A·X (gemm_nn / spmm_nn), gradient and
// Hessian-vector accumulation G = Aᵀ·W (gemm_tn / spmm_tn), and the
// softmax forward sweep over the score panel. The seed kernels serialized
// the transposed products through `#pragma omp critical` reduces. The
// engine has no reduction across threads at all: every output element
// is produced by exactly one thread, in an order fixed by the shape, so
// every kernel is bit-identical at any thread count (the sweep scheduler,
// the trace CSVs and the CI pins rely on this). The dense gemm_tn splits
// the features among the threads in whole cache lines and each thread
// runs every sample over its own features. The sparse spmm_tn is one
// gather over the parent matrix's cached CSC. Both sparse products keep
// each output row in registers across its entries and store it once. The
// dense gemm_nn is a register-blocked microkernel: lane-multiple class
// columns in packed 8-wide strips with A broadcast, the leftover classes
// across rows through an in-register transpose of the A tile. The dense
// gemm_tn vectorizes across features (class-major accumulator). The
// softmax forward is the seed's two-pass row (max, then exponentials and
// their sum, then one normalize), and its loss folds in row order.
//
// The seed products are preserved under kernels::reference — they are
// the parity oracle for tests and the "vs seed" side of bench_kernels,
// which is what BENCH_kernels.json and the CI perf-smoke gate measure
// against.
//
// The product loops live in la/engine.cpp, compiled once per SIMD rung
// (scalar, avx2, avx512; la/engine.hpp). The functions below check
// shapes, handle empty operands and pick the strategy, then run the rung
// they are given — by default the widest one this CPU supports, chosen
// once at start-up. Vector lanes only ever span independent output
// elements — whichever dimension fills them — and every term of a product
// chain is one fused multiply-add (rounded once on every rung); every
// element keeps its k-ordered chain from zero and its epilogue, so every
// rung is bit-identical to kernels::scalar::rung(), the parity oracle.
// The seed products under kernels::reference stay unfused; the tests hold
// the engine to them within a tolerance. The softmax forward is no
// product and has no rung: it is compiled once, so it is the same on
// every ISA.
#pragma once

#include <cstdint>
#include <span>

#include "la/dense_matrix.hpp"
#include "la/engine.hpp"
#include "la/sparse_matrix.hpp"

namespace nadmm::la::kernels {

/// The engine rungs this CPU can run, narrowest first: scalar::rung()
/// first, active_rung() last. Fixed at the first call.
std::span<const Rung* const> host_rungs();

/// The widest rung this CPU supports (host_rungs().back()); every kernel
/// below runs on it unless given another.
const Rung& active_rung();

/// Name of the active rung: "avx512" | "avx2" | "scalar".
/// Recorded into bench JSON context and into parity-test failures.
const char* active_isa();

/// The A operand of every engine product is a non-owning row-range view
/// (la::DenseView / la::CsrView); whole matrices convert implicitly, and
/// a rank's shard runs in place on the parent's storage. For a contiguous
/// shard view the engine is bit-identical to running on a copied shard,
/// at any thread count — the shard-native data plane and its tests rely
/// on both.

/// C = alpha·A·B + beta·C (A: m×k, B: k×n, C: m×n). Register-blocked
/// microkernel: lane-multiple columns over a packed B panel, the rest
/// across rows; bit-identical at any thread count (each C row is
/// produced by exactly one thread in fixed k order).
void gemm_nn(double alpha, DenseView a, const DenseMatrix& b,
             double beta, DenseMatrix& c, const Rung& rung = active_rung());

/// C = alpha·Aᵀ·B + beta·C (A: k×m, B: k×n, C: m×n). Each thread runs
/// every sample over its own slice of the m features, vectorized across
/// them; bit-identical at any thread count.
void gemm_tn(double alpha, DenseView a, const DenseMatrix& b,
             double beta, DenseMatrix& c, const Rung& rung = active_rung());

/// C = alpha·A·B + beta·C (A: m×k CSR). Each output row stays in
/// registers while it accumulates its row's entries in order, so the
/// result is bit-identical for any thread count.
void spmm_nn(double alpha, const CsrView& a, const DenseMatrix& b,
             double beta, DenseMatrix& c, const Rung& rung = active_rung());

/// C = alpha·Aᵀ·B + beta·C (A: k×m CSR). One gather over the parent
/// matrix's cached transposed (CSC) view, built on the first call:
/// output row j accumulates column j's entries in ascending sample
/// order (restricted to the view's rows by per-column binary search for
/// shard views), held in registers and stored once. No partials and no
/// fold, so the result is bit-identical for any thread count.
void spmm_tn(double alpha, const CsrView& a, const DenseMatrix& b,
             double beta, DenseMatrix& c, const Rung& rung = active_rung());

/// Row-count analogue of kParallelFlops for cheap per-sample panel
/// sweeps (the softmax forward, gradient and Hessian loops).
inline constexpr std::size_t kParallelRows = 1 << 14;

/// Softmax forward over a score panel (n × (C−1), class C implicit with
/// score 0), the paper's stabilized LSE per row: m = max(0, s_i), then
/// α = e^{−m} + Σ_c e^{s_ic − m} with P_ic = e^{s_ic − m} / α, and
/// lse_i = m + log α. Rows run in parallel above kParallelRows; the
/// returned loss Σ_i [lse_i − s_{i,y_i}] (0 for the implicit class) folds
/// in row order on the calling thread, so the result is bit-identical at
/// any thread count.
double softmax_forward(const DenseMatrix& scores,
                       std::span<const std::int32_t> labels,
                       DenseMatrix& probs, std::span<double> lse);

/// Seed (pre-engine) products, kept verbatim as the parity oracle and the
/// baseline side of bench_kernels — spmm_nn, which the seed never had,
/// is the engine's loop from before its rows moved into registers. Not
/// used on any hot path.
namespace reference {

void gemm_nn(double alpha, const DenseMatrix& a, const DenseMatrix& b,
             double beta, DenseMatrix& c);
void gemm_tn(double alpha, const DenseMatrix& a, const DenseMatrix& b,
             double beta, DenseMatrix& c);
void spmm_nn(double alpha, const CsrView& a, const DenseMatrix& b,
             double beta, DenseMatrix& c);
void spmm_tn(double alpha, const CsrView& a, const DenseMatrix& b,
             double beta, DenseMatrix& c);

}  // namespace reference

}  // namespace nadmm::la::kernels
