// Tests for src/data: dataset container, the four paper-dataset
// generators (shape/conditioning/sparsity properties), partitioning,
// and the LIBSVM decoder (round trips, strict rejection, mutation fuzz).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>

#include "data/dataset.hpp"
#include "data/generators.hpp"
#include "data/io.hpp"
#include "data/partition.hpp"
#include "support/check.hpp"
#include "helpers.hpp"
#include "support/rng.hpp"

namespace nadmm::data {
namespace {

// ------------------------------------------------------------ dataset

/// Per-class sample counts.
std::vector<std::size_t> class_histogram(const Dataset& ds) {
  std::vector<std::size_t> hist(static_cast<std::size_t>(ds.num_classes()), 0);
  for (const std::int32_t y : ds.labels()) ++hist[static_cast<std::size_t>(y)];
  return hist;
}

/// Fraction of stored nonzero feature entries.
double density(const Dataset& ds) {
  std::size_t nonzero = 0;
  if (ds.is_sparse()) {
    nonzero = ds.sparse_features().nnz();
  } else {
    for (const double v : ds.dense_features().data()) nonzero += v != 0.0;
  }
  return static_cast<double>(nonzero) /
         static_cast<double>(ds.num_samples() * ds.num_features());
}

TEST(Dataset, DenseConstructionAndAccessors) {
  la::DenseMatrix x(3, 2, {1, 2, 3, 4, 5, 6});
  auto ds = Dataset::dense(std::move(x), {0, 1, 2}, 3);
  EXPECT_EQ(ds.num_samples(), 3u);
  EXPECT_EQ(ds.num_features(), 2u);
  EXPECT_EQ(ds.num_classes(), 3);
  EXPECT_FALSE(ds.is_sparse());
  EXPECT_FALSE(ds.empty());
  EXPECT_THROW(static_cast<void>(ds.sparse_features()), InvalidArgument);
  EXPECT_DOUBLE_EQ(ds.dense_features().at(2, 1), 6.0);
}

TEST(Dataset, LabelValidation) {
  la::DenseMatrix x(2, 1, {1, 2});
  EXPECT_THROW(Dataset::dense(std::move(x), {0, 3}, 3), InvalidArgument);
  la::DenseMatrix x2(2, 1, {1, 2});
  EXPECT_THROW(Dataset::dense(std::move(x2), {0, -1}, 3), InvalidArgument);
  la::DenseMatrix x3(2, 1, {1, 2});
  EXPECT_THROW(Dataset::dense(std::move(x3), {0}, 3), InvalidArgument);
  la::DenseMatrix x4(2, 1, {1, 2});
  EXPECT_THROW(Dataset::dense(std::move(x4), {0, 1}, 1), InvalidArgument);
}

TEST(Dataset, RowSliceDense) {
  la::DenseMatrix x(4, 2, {1, 2, 3, 4, 5, 6, 7, 8});
  auto ds = Dataset::dense(std::move(x), {0, 1, 0, 1}, 2);
  auto s = ds.row_slice(1, 3);
  EXPECT_EQ(s.num_samples(), 2u);
  EXPECT_DOUBLE_EQ(s.dense_features().at(0, 0), 3.0);
  EXPECT_EQ(s.labels()[1], 0);
}

TEST(Dataset, RowSliceSparse) {
  la::CsrMatrix x(3, 4, {{0, 0, 1.0}, {1, 2, 2.0}, {2, 3, 3.0}});
  auto ds = Dataset::sparse(std::move(x), {0, 1, 1}, 2);
  auto s = ds.row_slice(1, 3);
  EXPECT_TRUE(s.is_sparse());
  EXPECT_EQ(s.num_samples(), 2u);
  EXPECT_DOUBLE_EQ(s.sparse_features().to_dense().at(0, 2), 2.0);
}

TEST(Dataset, ScoresDispatchMatchesAcrossStorage) {
  // Same logical matrix, dense vs sparse, must give identical scores.
  la::CsrMatrix xs(2, 3, {{0, 1, 2.0}, {1, 0, 1.0}, {1, 2, -1.0}});
  auto dense_feats = xs.to_dense();
  auto ds_sparse = Dataset::sparse(std::move(xs), {0, 1}, 2);
  auto ds_dense = Dataset::dense(std::move(dense_feats), {0, 1}, 2);
  la::DenseMatrix w(3, 1, {1.0, 2.0, 3.0});
  la::DenseMatrix s1(2, 1), s2(2, 1);
  ds_sparse.scores(w, s1);
  ds_dense.scores(w, s2);
  EXPECT_DOUBLE_EQ(s1.at(0, 0), s2.at(0, 0));
  EXPECT_DOUBLE_EQ(s1.at(1, 0), s2.at(1, 0));
}

TEST(Dataset, ClassHistogramAndDensity) {
  la::DenseMatrix x(4, 2, {0, 1, 0, 0, 2, 0, 0, 0});
  auto ds = Dataset::dense(std::move(x), {0, 1, 1, 1}, 2);
  const auto hist = class_histogram(ds);
  EXPECT_EQ(hist[0], 1u);
  EXPECT_EQ(hist[1], 3u);
  EXPECT_DOUBLE_EQ(density(ds), 2.0 / 8.0);
}

// ------------------------------------------------------------ generators

TEST(Generators, BlobsShapeAndDeterminism) {
  auto a = make_blobs(200, 50, 10, 4, 3.0, 1.0, 99);
  auto b = make_blobs(200, 50, 10, 4, 3.0, 1.0, 99);
  EXPECT_EQ(a.train.num_samples(), 200u);
  EXPECT_EQ(a.test.num_samples(), 50u);
  EXPECT_EQ(a.train.num_features(), 10u);
  EXPECT_EQ(a.train.num_classes(), 4);
  // Determinism: identical seeds → identical bytes.
  const auto da = a.train.dense_features().data();
  const auto db = b.train.dense_features().data();
  for (std::size_t i = 0; i < da.size(); i += 37) {
    ASSERT_DOUBLE_EQ(da[i], db[i]);
  }
  EXPECT_TRUE(std::equal(a.train.labels().begin(), a.train.labels().end(),
                         b.train.labels().begin()));
}

TEST(Generators, BlobsDifferentSeedsDiffer) {
  auto a = make_blobs(50, 10, 8, 3, 3.0, 1.0, 1);
  auto b = make_blobs(50, 10, 8, 3, 3.0, 1.0, 2);
  const auto da = a.train.dense_features().data();
  const auto db = b.train.dense_features().data();
  int same = 0;
  for (std::size_t i = 0; i < da.size(); ++i) same += (da[i] == db[i]);
  EXPECT_LT(same, 5);
}

TEST(Generators, HiggsLikeShape) {
  auto tt = make_higgs_like(500, 100, 7);
  EXPECT_EQ(tt.train.num_features(), 28u);  // paper Table 1
  EXPECT_EQ(tt.train.num_classes(), 2);
  // Both classes present.
  const auto hist = class_histogram(tt.train);
  EXPECT_GT(hist[0], 50u);
  EXPECT_GT(hist[1], 50u);
}

TEST(Generators, MnistLikeShapeAndSparsityPattern) {
  auto tt = make_mnist_like(300, 60, 11);
  EXPECT_EQ(tt.train.num_features(), 784u);
  EXPECT_EQ(tt.train.num_classes(), 10);
  // Pixel-like: values in [0,1], mostly background zeros.
  double lo = 1e9, hi = -1e9;
  for (double v : tt.train.dense_features().data()) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_GE(lo, 0.0);
  EXPECT_LE(hi, 1.0);
  EXPECT_LT(density(tt.train), 0.6);
  EXPECT_GT(density(tt.train), 0.02);
}

TEST(Generators, CifarLikeNeighbourCorrelation) {
  auto tt = make_cifar_like(400, 50, 13);
  EXPECT_EQ(tt.train.num_features(), 3072u);
  EXPECT_EQ(tt.train.num_classes(), 10);
  // The moving-average construction must correlate adjacent features far
  // more than distant ones — the ill-conditioning mechanism.
  const auto& x = tt.train.dense_features();
  auto column_corr = [&](std::size_t j1, std::size_t j2) {
    double m1 = 0, m2 = 0;
    for (std::size_t i = 0; i < x.rows(); ++i) {
      m1 += x.at(i, j1);
      m2 += x.at(i, j2);
    }
    m1 /= static_cast<double>(x.rows());
    m2 /= static_cast<double>(x.rows());
    double c = 0, v1 = 0, v2 = 0;
    for (std::size_t i = 0; i < x.rows(); ++i) {
      const double d1 = x.at(i, j1) - m1;
      const double d2 = x.at(i, j2) - m2;
      c += d1 * d2;
      v1 += d1 * d1;
      v2 += d2 * d2;
    }
    return c / std::sqrt(v1 * v2);
  };
  EXPECT_GT(column_corr(1000, 1001), 0.8);
  EXPECT_LT(std::abs(column_corr(100, 2500)), 0.3);
}

TEST(Generators, E18LikeSparseCounts) {
  auto tt = make_e18_like(300, 50, 800, 17);
  EXPECT_TRUE(tt.train.is_sparse());
  EXPECT_EQ(tt.train.num_features(), 800u);
  EXPECT_EQ(tt.train.num_classes(), 20);
  // scRNA-like sparsity: low density, strictly positive stored values
  // (log1p of counts).
  EXPECT_LT(density(tt.train), 0.30);
  EXPECT_GT(density(tt.train), 0.005);
  for (double v : tt.train.sparse_features().values()) EXPECT_GT(v, 0.0);
}

TEST(Generators, E18RejectsTinyDimension) {
  EXPECT_THROW(make_e18_like(10, 5, 8, 1), InvalidArgument);
}

TEST(Generators, DatasetSpecsParseToOneGeneratorOrFile) {
  const auto make = [](const std::string& name, std::size_t p) {
    return parse_dataset_source(name).generator(50, 10, p, 1);
  };
  EXPECT_EQ(make("higgs", 0).train.num_classes(), 2);
  EXPECT_EQ(make("mnist", 0).train.num_features(), 784u);
  EXPECT_EQ(make("cifar", 0).train.num_features(), 3072u);
  EXPECT_TRUE(make("e18", 256).train.is_sparse());
  EXPECT_EQ(make("blobs", 20).train.num_features(), 20u);
  const auto file = parse_dataset_source("libsvm:/data/a9a");
  EXPECT_EQ(file.generator, nullptr);
  EXPECT_EQ(file.libsvm_path, "/data/a9a");
  EXPECT_THROW(static_cast<void>(parse_dataset_source("nope")),
               InvalidArgument);
  EXPECT_THROW(static_cast<void>(parse_dataset_source("libsvm:")),
               InvalidArgument);
}

TEST(Generators, TrainAndTestDrawnFromSameDistribution) {
  // Class histograms of train and test should be roughly proportional.
  auto tt = make_blobs(4000, 4000, 10, 5, 3.0, 1.0, 3);
  const auto ht = class_histogram(tt.train);
  const auto he = class_histogram(tt.test);
  for (std::size_t c = 0; c < ht.size(); ++c) {
    EXPECT_NEAR(static_cast<double>(ht[c]), static_cast<double>(he[c]),
                0.25 * static_cast<double>(ht[c]) + 30);
  }
}

// ------------------------------------------------------------ partition

TEST(Partition, BalancedRanges) {
  const auto r = partition_rows(10, 3);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0].size(), 4u);
  EXPECT_EQ(r[1].size(), 3u);
  EXPECT_EQ(r[2].size(), 3u);
  EXPECT_EQ(r[0].begin, 0u);
  EXPECT_EQ(r[2].end, 10u);
}

TEST(Partition, SingletonAndEdgeCases) {
  EXPECT_EQ(partition_rows(5, 1)[0].size(), 5u);
  const auto r = partition_rows(2, 4);  // more parts than rows
  EXPECT_EQ(r[0].size(), 1u);
  EXPECT_EQ(r[1].size(), 1u);
  EXPECT_EQ(r[2].size(), 0u);
  EXPECT_THROW(partition_rows(5, 0), InvalidArgument);
}

TEST(Partition, ContiguousShardsCoverDataset) {
  auto tt = make_blobs(101, 10, 6, 3, 3.0, 1.0, 5);
  std::size_t total = 0;
  for (int r = 0; r < 4; ++r) {
    total += shard_contiguous(tt.train, 4, r).num_samples();
  }
  EXPECT_EQ(total, 101u);
  EXPECT_THROW(shard_contiguous(tt.train, 4, 4), InvalidArgument);
}

TEST(Partition, StridedShardsCoverDatasetDense) {
  auto tt = make_blobs(57, 10, 4, 3, 3.0, 1.0, 5);
  std::size_t total = 0;
  std::vector<std::size_t> class_sum(3, 0);
  for (int r = 0; r < 4; ++r) {
    const auto s = shard_strided(tt.train, 4, r);
    total += s.num_samples();
    const auto h = class_histogram(s);
    for (std::size_t c = 0; c < 3; ++c) class_sum[c] += h[c];
  }
  EXPECT_EQ(total, 57u);
  const auto full_hist = class_histogram(tt.train);
  for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(class_sum[c], full_hist[c]);
}

TEST(Partition, StridedShardsSparse) {
  auto tt = make_e18_like(60, 10, 128, 5);
  std::size_t total_nnz = 0, total_rows = 0;
  for (int r = 0; r < 3; ++r) {
    const auto s = shard_strided(tt.train, 3, r);
    EXPECT_TRUE(s.is_sparse());
    total_rows += s.num_samples();
    total_nnz += s.sparse_features().nnz();
  }
  EXPECT_EQ(total_rows, 60u);
  EXPECT_EQ(total_nnz, tt.train.sparse_features().nnz());
}

TEST(Partition, WeightedRangesSumToNAndFollowWeights) {
  const double weights[] = {3.0, 1.0, 1.0, 1.0};
  const auto r = partition_rows_weighted(120, weights);
  ASSERT_EQ(r.size(), 4u);
  std::size_t total = 0;
  for (const auto& range : r) total += range.size();
  EXPECT_EQ(total, 120u);
  EXPECT_EQ(r[0].size(), 60u);  // 3/6 of 120
  EXPECT_EQ(r[1].size(), 20u);
  EXPECT_EQ(r[0].begin, 0u);
  EXPECT_EQ(r[3].end, 120u);
  // Remainder rows land deterministically and the sizes still sum to n,
  // whatever the (positive) weights.
  const double awkward[] = {0.37, 1.9, 2.71};
  for (const std::size_t n : {0ul, 1ul, 2ul, 7ul, 97ul}) {
    const auto w = partition_rows_weighted(n, awkward);
    std::size_t sum = 0;
    for (const auto& range : w) sum += range.size();
    EXPECT_EQ(sum, n);
  }
  EXPECT_THROW(
      static_cast<void>(partition_rows_weighted(10, std::vector<double>{})),
      InvalidArgument);
  const double bad[] = {1.0, 0.0};
  EXPECT_THROW(static_cast<void>(partition_rows_weighted(10, bad)),
               InvalidArgument);
}

TEST(Partition, ModeNamesRoundTrip) {
  EXPECT_EQ(partition_mode_from_string("contiguous"),
            PartitionMode::kContiguous);
  EXPECT_EQ(partition_mode_from_string("strided"), PartitionMode::kStrided);
  EXPECT_EQ(partition_mode_from_string("weighted"), PartitionMode::kWeighted);
  EXPECT_EQ(to_string(PartitionMode::kWeighted), "weighted");
  EXPECT_THROW(static_cast<void>(partition_mode_from_string("zigzag")),
               InvalidArgument);
}

TEST(Partition, ShardDatasetViewMatchesCopyOracle) {
  // The zero-copy view shard must agree with the copying oracle
  // element-for-element, dense and sparse.
  auto dense_tt = make_blobs(101, 10, 6, 3, 3.0, 1.0, 5);
  auto sparse_tt = make_e18_like(60, 10, 128, 5);
  ShardPlan plan;
  plan.parts = 4;
  for (const Dataset* full : {&dense_tt.train, &sparse_tt.train}) {
    for (int r = 0; r < 4; ++r) {
      const Dataset view = shard_dataset(*full, plan, r);
      const Dataset copy = shard_contiguous(*full, 4, r);
      ASSERT_EQ(view.num_samples(), copy.num_samples());
      EXPECT_TRUE(view.is_view());
      EXPECT_EQ(view.approx_bytes(), 0u) << "views own no storage";
      ASSERT_TRUE(std::equal(view.labels().begin(), view.labels().end(),
                             copy.labels().begin()));
      if (full->is_sparse()) {
        EXPECT_EQ(view.csr_view().nnz(), copy.sparse_features().nnz());
      } else {
        const auto v = view.dense_view();
        const auto& c = copy.dense_features();
        for (std::size_t i = 0; i < v.rows(); ++i) {
          for (std::size_t j = 0; j < v.cols(); ++j) {
            ASSERT_EQ(v.at(i, j), c.at(i, j));
          }
        }
      }
    }
  }
}

TEST(Partition, MoreRanksThanRowsYieldsEmptyShards) {
  auto tt = make_blobs(3, 2, 4, 2, 3.0, 1.0, 9);
  ShardPlan plan;
  plan.parts = 8;
  std::size_t total = 0, empties = 0;
  for (int r = 0; r < 8; ++r) {
    const Dataset s = shard_dataset(tt.train, plan, r);
    total += s.num_samples();
    empties += s.empty() ? 1 : 0;
    // Empty shards keep the global shape so objectives still construct.
    EXPECT_EQ(s.num_features(), tt.train.num_features());
    EXPECT_EQ(s.num_classes(), tt.train.num_classes());
  }
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(empties, 5u);
  // Strided and weighted plans cover the rows too.
  plan.mode = PartitionMode::kStrided;
  total = 0;
  for (int r = 0; r < 8; ++r) {
    total += shard_dataset(tt.train, plan, r).num_samples();
  }
  EXPECT_EQ(total, 3u);
  plan.mode = PartitionMode::kWeighted;
  plan.weights.assign(8, 1.0);
  plan.weights[0] = 5.0;
  total = 0;
  for (int r = 0; r < 8; ++r) {
    total += shard_dataset(tt.train, plan, r).num_samples();
  }
  EXPECT_EQ(total, 3u);
}

TEST(Partition, MakeShardedAccountsResidentBytes) {
  auto tt = make_blobs(64, 16, 6, 3, 3.0, 1.0, 5);
  ShardPlan plan;
  plan.parts = 4;
  const auto sharded = make_sharded(tt.train, &tt.test, plan);
  EXPECT_EQ(sharded.parts(), 4);
  EXPECT_EQ(sharded.train_samples, 64u);
  EXPECT_EQ(sharded.test_samples, 16u);
  EXPECT_EQ(sharded.dim(), 6u * 2u);
  // Zero-copy views own nothing: resident bytes are exactly the full
  // splits.
  EXPECT_EQ(sharded.owned_bytes, 0u);
  EXPECT_EQ(sharded.resident_bytes, tt.approx_bytes());
  // Strided shards are dense gather copies holding every row once more,
  // so they own the full splits' bytes again, on top of the full splits.
  ShardPlan strided = plan;
  strided.mode = PartitionMode::kStrided;
  const auto sharded_strided = make_sharded(tt.train, &tt.test, strided);
  EXPECT_EQ(sharded_strided.owned_bytes, tt.approx_bytes());
  EXPECT_EQ(sharded_strided.resident_bytes, 2 * tt.approx_bytes());
}

TEST(Dataset, ViewsComposeAndShareStorage) {
  auto tt = make_blobs(30, 0, 4, 3, 3.0, 1.0, 11);
  Dataset view;
  {
    // The parent dataset dies; the view must keep the storage alive.
    const Dataset parent = tt.train.view(5, 25);
    view = parent.view(10, 20);  // rows 15..25 of the original
  }
  EXPECT_EQ(view.num_samples(), 10u);
  EXPECT_TRUE(view.is_view());
  const Dataset copy = tt.train.row_slice(15, 25);
  ASSERT_TRUE(std::equal(view.labels().begin(), view.labels().end(),
                         copy.labels().begin()));
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      ASSERT_EQ(view.dense_view().at(i, j), copy.dense_features().at(i, j));
    }
  }
  // dense_features() refuses on proper sub-views (would lie about rows).
  EXPECT_THROW(static_cast<void>(view.dense_features()), InvalidArgument);
  // A full-range view still grants whole-matrix access.
  EXPECT_NO_THROW(static_cast<void>(tt.train.view(0, 30).dense_features()));
}

// ------------------------------------------------------------ io

/// Both whole splits of a LIBSVM file through the one decoder (the
/// one-part plan puts them in rank 0).
RankData load_whole(const std::string& path, std::size_t n_train = 0,
                    std::size_t n_test = 0) {
  return std::move(
      load_libsvm_sharded(path, n_train, n_test, ShardPlan{}).ranks[0]);
}

TEST(Io, LibsvmRoundTripSparse) {
  auto tt = make_e18_like(40, 5, 128, 33);
  const std::string path = testing::TempDir() + "/nadmm_e18.libsvm";
  save_libsvm(tt.train, path);
  const auto loaded = load_whole(path).train;
  EXPECT_EQ(loaded.num_samples(), tt.train.num_samples());
  EXPECT_EQ(loaded.sparse_features().nnz(), tt.train.sparse_features().nnz());
  // The loader remaps labels to a dense [0, C) range in ascending order of
  // the raw values; classes absent from this 40-sample draw collapse the
  // numbering, so compare against the expected remap rather than raw labels.
  std::map<std::int32_t, std::int32_t> remap;
  for (auto l : tt.train.labels()) remap.emplace(l, 0);
  std::int32_t next = 0;
  for (auto& [raw, mapped] : remap) mapped = next++;
  for (std::size_t i = 0; i < loaded.num_samples(); ++i) {
    EXPECT_EQ(loaded.labels()[i], remap.at(tt.train.labels()[i]));
  }
  for (std::size_t e = 0; e < loaded.sparse_features().nnz(); ++e) {
    EXPECT_DOUBLE_EQ(loaded.sparse_features().values()[e],
                     tt.train.sparse_features().values()[e]);
  }
  std::filesystem::remove(path);
}

TEST(Io, LibsvmSavesDenseSkipsZeros) {
  la::DenseMatrix x(2, 3, {1.0, 0.0, 2.0, 0.0, 0.0, 3.0});
  auto ds = Dataset::dense(std::move(x), {0, 1}, 2);
  const std::string path = testing::TempDir() + "/nadmm_dense.libsvm";
  save_libsvm(ds, path);
  const auto loaded = load_whole(path).train;
  EXPECT_EQ(loaded.sparse_features().nnz(), 3u);
  EXPECT_DOUBLE_EQ(loaded.sparse_features().to_dense().at(1, 2), 3.0);
  std::filesystem::remove(path);
}

TEST(Io, LibsvmRemapsArbitraryLabels) {
  const std::string path = testing::TempDir() + "/nadmm_labels.libsvm";
  {
    std::ofstream out(path);
    out << "-1 1:1.0\n7 2:2.0\n-1 1:0.5\n";
  }
  const auto ds = load_whole(path).train;
  EXPECT_EQ(ds.num_classes(), 2);
  EXPECT_EQ(ds.labels()[0], 0);  // −1 → 0 (ascending remap)
  EXPECT_EQ(ds.labels()[1], 1);  // 7 → 1
  std::filesystem::remove(path);
}

TEST(Io, LibsvmMalformedInputThrows) {
  const std::string path = testing::TempDir() + "/nadmm_bad.libsvm";
  {
    std::ofstream out(path);
    out << "1 0:1.0\n0 1:1.0\n";  // 0-based index is invalid
  }
  EXPECT_THROW(load_whole(path), RuntimeError);
  {
    std::ofstream out(path);
    out << "1 2:1.0 1:2.0\n0 1:1.0\n";  // non-increasing indices
  }
  EXPECT_THROW(load_whole(path), RuntimeError);
  EXPECT_THROW(load_whole("/does/not/exist.libsvm"), RuntimeError);
  std::filesystem::remove(path);
}

// A strict parser rejects what the old one silently misparsed: `1x:2`
// used to load as feature 1, `2:1.5junk` as value 1.5. Every rejection
// must carry a file:line position.
TEST(Io, LibsvmRejectsMalformedTokensWithFileAndLine) {
  const std::string path = testing::TempDir() + "/nadmm_strict.libsvm";
  const auto expect_rejects = [&](const std::string& content,
                                  const std::string& fragment) {
    {
      std::ofstream out(path);
      out << "0 1:1.0\n" << content << '\n';
    }
    try {
      static_cast<void>(load_whole(path));
      FAIL() << "expected rejection of: " << content;
    } catch (const RuntimeError& e) {
      EXPECT_NE(std::string(e.what()).find(path + ":2"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << e.what();
    }
  };
  expect_rejects("1 a:2.0", "non-numeric feature index");
  expect_rejects("1 1x:2.0", "non-numeric feature index");
  expect_rejects("1 1:2.5junk", "malformed feature value");
  expect_rejects("1 1:", "malformed feature token");
  expect_rejects("1 :2.0", "malformed feature token");
  expect_rejects("1 1:inf", "malformed feature value");
  expect_rejects("1.5 1:2.0", "cannot parse label");
  expect_rejects("abc 1:2.0", "cannot parse label");
  expect_rejects("1 3:1.0 2:1.0", "strictly increasing");
  std::filesystem::remove(path);
}

TEST(Io, LibsvmAcceptsPlusPrefixedLabelsAndValues) {
  // Standard LIBSVM binary sets (a9a, rcv1, ...) label positives "+1".
  const std::string path = testing::TempDir() + "/nadmm_plus.libsvm";
  {
    std::ofstream out(path);
    out << "+1 1:+0.5 3:1.0\n-1 2:0.25\n";
  }
  const auto ds = load_whole(path).train;
  EXPECT_EQ(ds.num_samples(), 2u);
  EXPECT_EQ(ds.num_classes(), 2);
  EXPECT_EQ(ds.labels()[0], 1);  // −1 → 0, +1 → 1 (ascending remap)
  EXPECT_EQ(ds.labels()[1], 0);
  EXPECT_DOUBLE_EQ(ds.sparse_features().to_dense().at(0, 0), 0.5);
  {
    std::ofstream out(path);
    out << "+-1 1:0.5\n1 2:1.0\n";  // only a single leading '+' is tolerated
  }
  EXPECT_THROW(static_cast<void>(load_whole(path)), RuntimeError);
  std::filesystem::remove(path);
}

TEST(Io, LibsvmScanSkipsCommentsAndSizesFromTheWholeFile) {
  const std::string path = testing::TempDir() + "/nadmm_scan.libsvm";
  {
    std::ofstream out(path);
    out << "# comment\n"
        << "5 1:1.0 9:2.0\n"
        << "-1 3:4.0\r\n"
        << "\n"
        << "5 2:1.0\n";
  }
  const ShardedDataset sd = load_libsvm_sharded(path, 0, 0, ShardPlan{});
  EXPECT_EQ(sd.train_samples, 3u);
  EXPECT_EQ(sd.num_features, 9u);
  EXPECT_EQ(sd.num_classes, 2);
  const Dataset& train = sd.ranks[0].train;
  EXPECT_EQ(train.labels()[0], 1);  // 5 → 1
  EXPECT_EQ(train.labels()[1], 0);  // −1 → 0
  EXPECT_EQ(train.labels()[2], 1);
  std::filesystem::remove(path);
}

TEST(Io, LibsvmRejectsFilesWithOneLabelOrNoFeatures) {
  const std::string path = testing::TempDir() + "/nadmm_degenerate.libsvm";
  {
    std::ofstream out(path);
    out << "3 1:1.0\n3 2:1.0\n3 1:0.5\n";
  }
  EXPECT_THROW(static_cast<void>(load_whole(path)), InvalidArgument);
  {
    std::ofstream out(path);
    out << "0\n1\n";
  }
  EXPECT_THROW(static_cast<void>(load_whole(path)), InvalidArgument);
  std::filesystem::remove(path);
}

TEST(Io, LibsvmRejectsADimensionAboveTheParameterLimit) {
  const std::string path = testing::TempDir() + "/nadmm_huge.libsvm";
  const auto rejection = [&](const std::string& content) -> std::string {
    {
      std::ofstream out(path);
      out << content;
    }
    try {
      static_cast<void>(load_whole(path));
    } catch (const RuntimeError& e) {
      return e.what();
    }
    return "";
  };
  // The 4-row probe: a model of 4e9·(C−1) doubles must be refused by the
  // scan, not by bad_alloc in the solver.
  const std::string probe =
      rejection("0 1:1.0\n1 2:1.0\n0 4000000000:1.0\n1 3:1.0\n");
  EXPECT_NE(probe.find(path + ":3:"), std::string::npos) << probe;
  EXPECT_NE(probe.find("feature index 4000000000"), std::string::npos)
      << probe;
  const std::size_t limit = kMaxLibsvmParameters;
  // Exactly at the limit with two labels loads; one index more does not.
  EXPECT_EQ(rejection("0 1:1.0\n1 " + std::to_string(limit) + ":1.0\n"), "");
  EXPECT_NE(rejection("0 1:1.0\n1 " + std::to_string(limit + 1) + ":1.0\n")
                .find(path + ":2:"),
            std::string::npos);
  // A third label can cross the limit too: p·(C−1) doubles with C.
  const std::string third_label = rejection(
      "0 " + std::to_string(limit / 2 + 1) + ":1.0\n1 1:1.0\n2 1:1.0\n");
  EXPECT_NE(third_label.find(path + ":3:"), std::string::npos) << third_label;
  std::filesystem::remove(path);
}

TEST(Io, LoadLibsvmSplitsConsistently) {
  const std::string path = testing::TempDir() + "/nadmm_split.libsvm";
  {
    std::ofstream out(path);
    for (int i = 0; i < 20; ++i) {
      out << (i % 2 == 0 ? 3 : 8) << ' ' << (i + 1) << ":1.0\n";
    }
  }
  const RankData tt = load_whole(path, 15, 5);
  EXPECT_EQ(tt.train.num_samples(), 15u);
  EXPECT_EQ(tt.test.num_samples(), 5u);
  // Both splits share the file-global shape even though the test rows
  // only touch high feature indices.
  EXPECT_EQ(tt.train.num_features(), 20u);
  EXPECT_EQ(tt.test.num_features(), 20u);
  EXPECT_EQ(tt.train.num_classes(), 2);
  EXPECT_EQ(tt.test.num_classes(), 2);
  // All rows train when n_train = 0.
  const RankData all = load_whole(path);
  EXPECT_EQ(all.train.num_samples(), 20u);
  EXPECT_EQ(all.test.num_samples(), 0u);
  // Asking for more rows than the file has is an error, not a clamp.
  EXPECT_THROW(static_cast<void>(load_whole(path, 18, 5)), InvalidArgument);
  std::filesystem::remove(path);
}

TEST(Io, LoadLibsvmShardedMatchesMaterializedPath) {
  const std::string path = testing::TempDir() + "/nadmm_sharded.libsvm";
  {
    std::ofstream out(path);
    // 37 rows, 3 labels, irregular sparsity.
    for (int i = 0; i < 37; ++i) {
      out << (i % 3) << ' ' << (i % 7 + 1) << ':' << (0.25 * (i + 1)) << ' '
          << (i % 5 + 8) << ':' << (-1.5 * (i % 4 + 1)) << '\n';
    }
  }
  const RankData full = load_whole(path, 30, 7);
  for (const PartitionMode mode :
       {PartitionMode::kContiguous, PartitionMode::kStrided,
        PartitionMode::kWeighted}) {
    ShardPlan plan;
    plan.mode = mode;
    plan.parts = 4;
    if (mode == PartitionMode::kWeighted) {
      plan.weights = {2.0, 1.0, 1.0, 1.0};
    }
    const ShardedDataset streamed = load_libsvm_sharded(path, 30, 7, plan);
    ASSERT_EQ(streamed.parts(), 4);
    EXPECT_EQ(streamed.train_samples, 30u);
    EXPECT_EQ(streamed.test_samples, 7u);
    EXPECT_EQ(streamed.num_features, full.train.num_features());
    EXPECT_EQ(streamed.num_classes, full.train.num_classes());
    std::size_t rows = 0;
    for (int r = 0; r < 4; ++r) {
      // Each streamed shard must be bit-identical to sharding the
      // materialized matrix the same way.
      const Dataset want = shard_dataset(full.train, plan, r);
      const Dataset& got = streamed.ranks[static_cast<std::size_t>(r)].train;
      ASSERT_EQ(got.num_samples(), want.num_samples());
      rows += got.num_samples();
      ASSERT_TRUE(std::equal(got.labels().begin(), got.labels().end(),
                             want.labels().begin()));
      const auto gv = got.csr_view();
      const auto wv = want.csr_view();
      ASSERT_EQ(gv.nnz(), wv.nnz());
      const auto gb = gv.row_ptr().front();
      const auto wb = wv.row_ptr().front();
      for (std::size_t e = 0; e < gv.nnz(); ++e) {
        ASSERT_EQ(gv.values()[static_cast<std::size_t>(gb) + e],
                  wv.values()[static_cast<std::size_t>(wb) + e])
            << "mode " << to_string(mode);
        ASSERT_EQ(gv.col_idx()[static_cast<std::size_t>(gb) + e],
                  wv.col_idx()[static_cast<std::size_t>(wb) + e]);
      }
      const Dataset want_test = shard_dataset(full.test, plan, r);
      const Dataset& got_test =
          streamed.ranks[static_cast<std::size_t>(r)].test;
      ASSERT_EQ(got_test.num_samples(), want_test.num_samples());
    }
    EXPECT_EQ(rows, 30u);
    // Peak accounting: the streamed path holds only the shards — less
    // than the materialized path's full matrix + shard copies.
    std::size_t copy_path = full.train.approx_bytes() + full.test.approx_bytes();
    for (int r = 0; r < 4; ++r) {
      copy_path += shard_contiguous(full.train, 4, r).approx_bytes();
      copy_path += shard_contiguous(full.test, 4, r).approx_bytes();
    }
    EXPECT_LT(streamed.resident_bytes, copy_path);
  }
  std::filesystem::remove(path);
}

// Jepsen-style decoder fuzzing: every mutated file either fails with a
// typed error (RuntimeError / InvalidArgument) or loads into shards that
// respect the scanned (p, C) and the requested row counts. Anything else
// — another exception type, a crash under ASan/UBSan — is a decoder bug.
TEST(Io, MutatedLibsvmFilesFailTypedOrLoadConsistently) {
  std::string valid = "# three labels, comments, CRLF and a blank line\n";
  for (int i = 0; i < 24; ++i) {
    valid += std::to_string(i % 3 == 0 ? -1 : (i % 3 == 1 ? 3 : 7)) + ' ' +
             std::to_string(i % 5 + 1) + ':' + std::to_string(0.5 * i) + ' ' +
             std::to_string(i % 4 + 7) + ":-1.25" + (i == 5 ? "\r\n" : "\n");
    if (i == 11) valid += '\n';
  }
  constexpr std::uint64_t kFirstSeed = 0x11b5f00d;
  constexpr std::uint64_t kTrials = 2000;
  constexpr std::size_t kTest = 4;
  const std::string path = testing::TempDir() + "/nadmm_fuzz.libsvm";
  std::size_t loaded = 0;
  for (std::uint64_t seed = kFirstSeed; seed < kFirstSeed + kTrials; ++seed) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << test::mutate(valid, seed, "0123456789:+-.e \t\n#\r");
    }
    ShardPlan plan;
    plan.parts = 3;
    plan.mode = seed % 2 == 0 ? PartitionMode::kContiguous
                              : PartitionMode::kStrided;
    ShardedDataset sd;
    try {
      sd = load_libsvm_sharded(path, 0, kTest, plan);
    } catch (const RuntimeError&) {
      continue;
    } catch (const InvalidArgument&) {
      continue;
    } catch (const std::exception& e) {
      FAIL() << "seed " << seed << ": untyped " << e.what();
    }
    ++loaded;
    ASSERT_EQ(sd.test_samples, kTest) << "seed " << seed;
    ASSERT_GT(sd.num_features, 0u) << "seed " << seed;
    ASSERT_GE(sd.num_classes, 2) << "seed " << seed;
    ASSERT_LE(sd.dim(), kMaxLibsvmParameters) << "seed " << seed;
    std::size_t train_rows = 0;
    std::size_t test_rows = 0;
    for (const RankData& rd : sd.ranks) {
      for (const Dataset* ds : {&rd.train, &rd.test}) {
        if (ds->num_samples() == 0) continue;
        ASSERT_EQ(ds->num_features(), sd.num_features) << "seed " << seed;
        ASSERT_EQ(ds->num_classes(), sd.num_classes) << "seed " << seed;
        for (const std::int32_t label : ds->labels()) {
          ASSERT_TRUE(label >= 0 && label < sd.num_classes) << "seed " << seed;
        }
        for (const std::int64_t col : ds->sparse_features().col_idx()) {
          ASSERT_TRUE(col >= 0 &&
                      static_cast<std::size_t>(col) < sd.num_features)
              << "seed " << seed;
        }
      }
      train_rows += rd.train.num_samples();
      test_rows += rd.test.num_samples();
    }
    ASSERT_EQ(train_rows, sd.train_samples) << "seed " << seed;
    ASSERT_EQ(test_rows, kTest) << "seed " << seed;
  }
  // The mix must exercise both outcomes, or the fuzzer tests nothing.
  EXPECT_GT(loaded, kTrials / 10);
  EXPECT_LT(loaded, kTrials);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace nadmm::data
