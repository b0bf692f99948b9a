// The kernel engine's rung interface.
//
// la/engine.cpp is compiled once per SIMD rung, each time with its own ISA
// flags and into its own namespace (CMakeLists.txt, nadmm_add_rung):
//
//   kernels::scalar   1 lane      every target; the parity oracle
//   kernels::avx2     4 lanes     -mavx2 -mfma
//   kernels::avx512   8 lanes     -mavx512f -mavx512dq -mavx512vl -mavx512bw
//
// Each compilation exports exactly one function, <rung>::rung(), returning
// its table: the four matrix products and the host-peak probe. la/kernels.cpp
// validates shapes, handles empty operands and builds the operands, then
// calls through the widest table the CPU can run. Row sweeps that are not
// products are compiled once, as plain functions in la/kernels.cpp.
//
// Only plain data crosses this boundary — raw pointers and sizes, no class
// members and no std templates. An inline function a rung object emitted
// out of line would be a weak symbol the linker may keep for every caller,
// so a copy compiled for AVX-512 could run on a CPU without it;
// tests/test_rung_symbols.py checks that no rung object defines a global
// or weak symbol outside its own namespace.
#pragma once

#include <cstddef>
#include <cstdint>

namespace nadmm::la::kernels {

/// Shared parallelism threshold: below this many flops an OpenMP region
/// costs more than it saves (an SVRG batch product, 2·16·785·9 ≈ 2.3e5,
/// stays serial). Every engine product gates on this one constant.
inline constexpr std::size_t kParallelFlops = 1 << 18;

/// Row-major dense operand: rows × cols at p, leading dimension cols.
struct DenseArg {
  const double* p;
  std::size_t rows;
  std::size_t cols;
};

/// Row-major dense output.
struct DenseOut {
  double* p;
  std::size_t rows;
  std::size_t cols;
};

/// CSR rows of a (shard) view: row_ptr holds rows + 1 absolute offsets
/// into the parent's col_idx / values arrays.
struct CsrArg {
  const std::int64_t* row_ptr;
  const std::int64_t* col_idx;
  const double* values;
  std::size_t rows;
  std::size_t nnz;
};

/// The parent matrix's cached CSC (cols + 1 column pointers) and the
/// view's window [row_lo, row_hi) of parent rows, which holds `nnz` of
/// its entries. covers_parent: the window is every parent row, so no
/// column needs its range searched.
struct CscArg {
  const std::int64_t* col_ptr;
  const std::int32_t* row_idx;
  const double* values;
  std::size_t cols;
  std::size_t nnz;
  std::int32_t row_lo;
  std::int32_t row_hi;
  bool covers_parent;
};

/// Independent multiply-add chains the host-peak probe keeps in flight.
inline constexpr std::size_t kProbeChains = 8;

/// One compilation of the engine. Operands are non-empty: la/kernels.cpp
/// returns early (or only scales the output) when any extent is zero.
struct Rung {
  const char* name;
  std::size_t lanes;
  /// C = alpha·A·B + beta·C.
  void (*gemm_nn)(double alpha, DenseArg a, DenseArg b, double beta,
                  DenseOut c);
  /// C = alpha·Aᵀ·B + beta·C, features split among the threads.
  void (*gemm_tn)(double alpha, DenseArg a, DenseArg b, double beta,
                  DenseOut c);
  /// C = alpha·A·B + beta·C over CSR rows (m = a.rows), each output row
  /// held in registers across its row's entries.
  void (*spmm_nn)(double alpha, CsrArg a, DenseArg b, double beta,
                  DenseOut c);
  /// C = alpha·Aᵀ·B + beta·C, gather over the parent's CSC: each output
  /// row held in registers across its column's entries in the view.
  void (*spmm_tn)(double alpha, CscArg a, DenseArg b, double beta,
                  DenseOut c);
  /// Host-peak probe: kProbeChains chains of `steps` fused multiply-adds
  /// on this rung's vectors, the instruction the products run on
  /// (2·lanes·kProbeChains flops per step), seeded from `x` so nothing
  /// folds at compile time.
  double (*peak_probe)(double x, std::size_t steps);
};

namespace scalar {
const Rung& rung();
}
namespace avx2 {
const Rung& rung();
}
namespace avx512 {
const Rung& rung();
}

}  // namespace nadmm::la::kernels
