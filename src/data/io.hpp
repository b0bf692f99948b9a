// Dataset file I/O in the LIBSVM format (sparse, `label idx:value ...`,
// 1-based indices) — how the real HIGGS / MNIST / CIFAR-10 / E18 files
// enter a run (`--dataset=libsvm:<path>`).
//
// `load_libsvm_sharded` is the one decoder. It makes two passes: a strict
// scan fixes the row count, the feature dimension p and the label set,
// then a route pass sends each row straight to its rank's shard, so
// paper-scale inputs never exist in one allocation. All parsing is strict:
// malformed input fails with a `path:line:` RuntimeError rather than
// silently misparsing (e.g. `1x:2` or `1:2.5junk`).
#pragma once

#include <cstddef>
#include <string>

#include "data/dataset.hpp"
#include "data/partition.hpp"

namespace nadmm::data {

/// Largest softmax parameter count p·(C−1) a LIBSVM file may imply:
/// 2^28 doubles is 2 GiB per dense model vector, and still admits E18's
/// 28M-feature two-class shape. The scan rejects a larger file at the
/// line whose feature index (or new label) crosses the limit, before
/// anything is allocated by p.
inline constexpr std::size_t kMaxLibsvmParameters = std::size_t{1} << 28;

/// Write a dataset (dense or sparse) in LIBSVM format.
void save_libsvm(const Dataset& ds, const std::string& path);

/// Stream a LIBSVM file *directly into per-rank shards* under `plan`:
/// the first `train_rows` rows (0 = all rows not claimed by the test
/// split) are routed row-by-row into each rank's train shard, the next
/// `n_test` rows into its test shard. Raw labels (any integers, e.g.
/// `-1`/`+1`) are numbered [0, C) in ascending order and every shard
/// shares the file-global (p, C). The full matrix is never assembled in
/// one allocation — resident_bytes is the summed shard footprint, and the
/// result has no full_train / full_test. The one-part `ShardPlan{}` puts
/// both whole splits in `ranks[0]`.
///
/// Throws RuntimeError (`path:line: ...`) on malformed lines and on a
/// p·(C−1) above kMaxLibsvmParameters, and InvalidArgument when the file
/// has fewer than two labels, no features, or fewer rows than requested.
ShardedDataset load_libsvm_sharded(const std::string& path,
                                   std::size_t train_rows, std::size_t n_test,
                                   const ShardPlan& plan);

}  // namespace nadmm::data
