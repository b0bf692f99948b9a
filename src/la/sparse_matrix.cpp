#include "la/sparse_matrix.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <numeric>

#include "la/flops.hpp"
#include "la/kernels.hpp"
#include "support/check.hpp"
#include "support/telemetry.hpp"

namespace nadmm::la {

namespace {
// Below this many nonzeros the parallel CSC build's histogram/scan
// overhead (team × cols counters) outweighs the scatter parallelism.
constexpr std::size_t kParallelBuildNnz = std::size_t{1} << 16;

// Compulsory CSR traffic: each nonzero is a value (8B) plus a column
// index (8B), the row pointers are streamed once, dense operands are
// read once, and the output is written once (read too when beta != 0).
std::uint64_t csr_bytes(const CsrView& a) {
  return 16 * a.nnz() + 8 * (a.rows() + 1);
}
}  // namespace

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols,
                     std::vector<Triplet> triplets)
    : rows_(rows), cols_(cols) {
  for (const Triplet& t : triplets) {
    NADMM_CHECK(t.row < rows && t.col < cols, "CsrMatrix: triplet out of range");
  }
  std::sort(triplets.begin(), triplets.end(), [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  row_ptr_.assign(rows + 1, 0);
  col_idx_.reserve(triplets.size());
  values_.reserve(triplets.size());
  for (std::size_t i = 0; i < triplets.size(); ++i) {
    const Triplet& t = triplets[i];
    if (!values_.empty() && i > 0 && triplets[i - 1].row == t.row &&
        triplets[i - 1].col == t.col) {
      values_.back() += t.value;  // merge duplicates
      continue;
    }
    col_idx_.push_back(static_cast<std::int64_t>(t.col));
    values_.push_back(t.value);
    ++row_ptr_[t.row + 1];
  }
  std::partial_sum(row_ptr_.begin(), row_ptr_.end(), row_ptr_.begin());
}

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols,
                     std::vector<std::int64_t> row_ptr,
                     std::vector<std::int64_t> col_idx,
                     std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  NADMM_CHECK(row_ptr_.size() == rows + 1, "CsrMatrix: row_ptr size mismatch");
  NADMM_CHECK(col_idx_.size() == values_.size(),
              "CsrMatrix: col_idx/values size mismatch");
  NADMM_CHECK(row_ptr_.front() == 0 &&
                  row_ptr_.back() == static_cast<std::int64_t>(values_.size()),
              "CsrMatrix: row_ptr does not cover values");
  for (std::size_t r = 0; r < rows; ++r) {
    NADMM_CHECK(row_ptr_[r] <= row_ptr_[r + 1], "CsrMatrix: row_ptr not monotone");
  }
  for (std::int64_t c : col_idx_) {
    NADMM_CHECK(c >= 0 && static_cast<std::size_t>(c) < cols,
                "CsrMatrix: column index out of range");
  }
}

double CsrMatrix::density() const {
  if (rows_ == 0 || cols_ == 0) return 0.0;
  return static_cast<double>(nnz()) /
         (static_cast<double>(rows_) * static_cast<double>(cols_));
}

CsrMatrix CsrMatrix::row_slice(std::size_t begin, std::size_t end) const {
  NADMM_CHECK(begin <= end && end <= rows_, "row_slice: bad range");
  const std::int64_t lo = row_ptr_[begin];
  const std::int64_t hi = row_ptr_[end];
  std::vector<std::int64_t> rp(end - begin + 1);
  for (std::size_t r = 0; r <= end - begin; ++r) rp[r] = row_ptr_[begin + r] - lo;
  std::vector<std::int64_t> ci(col_idx_.begin() + lo, col_idx_.begin() + hi);
  std::vector<double> vals(values_.begin() + lo, values_.begin() + hi);
  return CsrMatrix(end - begin, cols_, std::move(rp), std::move(ci),
                   std::move(vals));
}

CsrView::CsrView(const CsrMatrix& m, std::size_t begin, std::size_t end)
    : parent_(&m), row_begin_(begin), rows_(end - begin) {
  NADMM_CHECK(begin <= end && end <= m.rows(), "CsrView: bad row range");
}

CsrView CsrMatrix::view(std::size_t begin, std::size_t end) const {
  return {*this, begin, end};
}

namespace detail {

namespace {

/// Sequential counting-sort transpose (the pre-parallel build, verbatim):
/// histogram by column, prefix sum, then a row sweep scattering entries —
/// within a column, ascending row order. This is the byte-level oracle
/// the parallel build must reproduce.
void build_transposed_seq(std::size_t rows, std::size_t cols,
                          std::span<const std::int64_t> row_ptr,
                          std::span<const std::int64_t> col_idx,
                          std::span<const double> values, CsrTransposed& t) {
  for (std::int64_t c : col_idx) ++t.col_ptr[static_cast<std::size_t>(c) + 1];
  for (std::size_t j = 0; j < cols; ++j) t.col_ptr[j + 1] += t.col_ptr[j];
  std::vector<std::int64_t> next(t.col_ptr.begin(), t.col_ptr.end() - 1);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::int64_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
      const auto j = static_cast<std::size_t>(col_idx[e]);
      const std::int64_t p = next[j]++;
      t.row_idx[static_cast<std::size_t>(p)] = static_cast<std::int32_t>(r);
      t.values[static_cast<std::size_t>(p)] = values[e];
    }
  }
}

#ifdef _OPENMP
/// Row boundary for thread t when splitting rows by nonzero count (same
/// scheme as the kernels' nnz_boundary): the first row whose prefix nnz
/// reaches t/team of the total. Depends only on (row_ptr, t, team).
std::size_t build_row_bound(std::span<const std::int64_t> rp, std::int64_t nnz,
                            int t, int team) {
  const std::int64_t target =
      nnz * static_cast<std::int64_t>(t) / static_cast<std::int64_t>(team);
  const auto it = std::lower_bound(rp.begin(), rp.end(), target);
  return static_cast<std::size_t>(it - rp.begin());
}
#endif

}  // namespace

CsrTransposed build_transposed(std::size_t rows, std::size_t cols,
                               std::span<const std::int64_t> row_ptr,
                               std::span<const std::int64_t> col_idx,
                               std::span<const double> values, bool parallel) {
  CsrTransposed t;
  t.col_ptr.assign(cols + 1, 0);
  t.row_idx.resize(values.size());
  t.values.resize(values.size());
#ifdef _OPENMP
  if (parallel && omp_get_max_threads() > 1 && !values.empty()) {
    const auto nnz = static_cast<std::int64_t>(values.size());
    const int tmax = omp_get_max_threads();
    // Per-thread column histograms, then per-thread per-column write
    // cursors after the scan. Each thread first-touches its own stripe.
    std::vector<std::int64_t> counts(static_cast<std::size_t>(tmax) * cols);
#pragma omp parallel
    {
      const int team = omp_get_num_threads();
      const int tid = omp_get_thread_num();
      std::int64_t* my = counts.data() + static_cast<std::size_t>(tid) * cols;
      std::fill(my, my + cols, 0);
      // Contiguous row blocks balanced by nnz: block t covers rows
      // [r0, r1), ascending with t, so thread-id order below is also
      // ascending row order — the determinism hinge.
      const std::size_t r0 = build_row_bound(row_ptr, nnz, tid, team);
      const std::size_t r1 = build_row_bound(row_ptr, nnz, tid + 1, team);
      for (std::size_t r = r0; r < r1; ++r) {
        for (std::int64_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
          ++my[static_cast<std::size_t>(col_idx[e])];
        }
      }
#pragma omp barrier
#pragma omp single
      {
        // Exclusive scan over (column, thread) in column-major, thread-
        // minor order: col_ptr[j] is column j's start and counts[q][j]
        // becomes thread q's first write slot in column j. O(team ·
        // cols) scalar work — negligible next to the scatter.
        std::int64_t run = 0;
        for (std::size_t j = 0; j < cols; ++j) {
          t.col_ptr[j] = run;
          for (int q = 0; q < team; ++q) {
            std::int64_t& slot = counts[static_cast<std::size_t>(q) * cols + j];
            const std::int64_t c = slot;
            slot = run;
            run += c;
          }
        }
        t.col_ptr[cols] = run;
      }  // implicit barrier
      // Scatter: each thread writes its block's entries at its own
      // cursors. Within a column, slots ascend with thread id and rows
      // ascend within a block, so the column ends up in ascending row
      // order — byte-identical to the sequential build.
      for (std::size_t r = r0; r < r1; ++r) {
        for (std::int64_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
          const auto j = static_cast<std::size_t>(col_idx[e]);
          const std::int64_t p = my[j]++;
          t.row_idx[static_cast<std::size_t>(p)] = static_cast<std::int32_t>(r);
          t.values[static_cast<std::size_t>(p)] = values[e];
        }
      }
    }
    return t;
  }
#else
  static_cast<void>(parallel);
#endif
  build_transposed_seq(rows, cols, row_ptr, col_idx, values, t);
  return t;
}

}  // namespace detail

const CsrTransposed& CsrMatrix::transposed() const {
  std::call_once(*transpose_once_, [this] {
    NADMM_CHECK(rows_ <= 0x7fffffffULL,
                "CsrMatrix::transposed: row count exceeds int32 range");
    *transpose_ = detail::build_transposed(rows_, cols_, row_ptr_, col_idx_,
                                           values_, nnz() >= kParallelBuildNnz);
  });
  return *transpose_;
}

DenseMatrix CsrMatrix::to_dense() const {
  DenseMatrix d(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::int64_t e = row_ptr_[r]; e < row_ptr_[r + 1]; ++e) {
      d.at(r, static_cast<std::size_t>(col_idx_[e])) = values_[e];
    }
  }
  return d;
}

void spmm_nn(double alpha, const CsrView& a, const DenseMatrix& b,
             double beta, DenseMatrix& c) {
  TELEM_SPAN("kernel", "spmm_nn");
  kernels::spmm_nn(alpha, a, b, beta, c);
  const std::size_t n = b.cols();
  flops::add(2 * a.nnz() * n);
  flops::add_bytes(csr_bytes(a) +
                   8 * (a.cols() * n + flops::output_passes(beta) * a.rows() * n));
}

void spmm_tn(double alpha, const CsrView& a, const DenseMatrix& b,
             double beta, DenseMatrix& c) {
  TELEM_SPAN("kernel", "spmm_tn");
  kernels::spmm_tn(alpha, a, b, beta, c);
  const std::size_t n = b.cols();
  flops::add(2 * a.nnz() * n);
  flops::add_bytes(csr_bytes(a) +
                   8 * (a.rows() * n + flops::output_passes(beta) * a.cols() * n));
}

}  // namespace nadmm::la
