#include "data/io.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "support/check.hpp"

namespace nadmm::data {

namespace {

[[noreturn]] void parse_error(const std::string& path, std::size_t line_no,
                              const std::string& what) {
  throw RuntimeError(path + ":" + std::to_string(line_no) + ": " + what);
}

/// from_chars does not recognize a leading '+', but LIBSVM files in the
/// wild label positive samples "+1" — accept exactly one.
std::string_view strip_plus(std::string_view token) {
  if (token.size() > 1 && token[0] == '+' && token[1] != '-') {
    token.remove_prefix(1);
  }
  return token;
}

/// Strict full-token integer parse: the whole token must be consumed, so
/// `12abc` is an error rather than a silent `12`.
bool parse_full_int(std::string_view token, std::int64_t& out) {
  token = strip_plus(token);
  const char* begin = token.data();
  const char* end = begin + token.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc() && ptr == end;
}

/// Strict full-token double parse; rejects trailing garbage and
/// non-finite values (`inf`/`nan` have no meaning as features here).
bool parse_full_double(std::string_view token, double& out) {
  token = strip_plus(token);
  const char* begin = token.data();
  const char* end = begin + token.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc() && ptr == end && std::isfinite(out);
}

struct LibsvmRow {
  std::int64_t label = 0;
  std::vector<std::int64_t> cols;  ///< 0-based, strictly increasing
  std::vector<double> vals;
};

/// `\r` from CRLF files, comment lines and blank lines are all handled by
/// the caller; this parses one data line strictly.
void parse_libsvm_row(const std::string& line, const std::string& path,
                      std::size_t line_no, LibsvmRow& row) {
  row.cols.clear();
  row.vals.clear();
  std::istringstream ls(line);
  std::string token;
  if (!(ls >> token)) parse_error(path, line_no, "empty data line");
  if (!parse_full_int(token, row.label)) {
    parse_error(path, line_no,
                "cannot parse label '" + token + "' (integer expected)");
  }
  std::int64_t prev_idx = 0;
  while (ls >> token) {
    const auto colon = token.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == token.size()) {
      parse_error(path, line_no,
                  "malformed feature token '" + token +
                      "' (expected index:value)");
    }
    std::int64_t idx = 0;
    if (!parse_full_int(std::string_view(token).substr(0, colon), idx)) {
      parse_error(path, line_no,
                  "non-numeric feature index in token '" + token + "'");
    }
    double val = 0.0;
    if (!parse_full_double(std::string_view(token).substr(colon + 1), val)) {
      parse_error(path, line_no,
                  "malformed feature value in token '" + token + "'");
    }
    if (idx < 1) parse_error(path, line_no, "LIBSVM indices are 1-based");
    if (idx <= prev_idx) {
      parse_error(path, line_no,
                  "feature indices must be strictly increasing (" +
                      std::to_string(idx) + " after " +
                      std::to_string(prev_idx) + ")");
    }
    prev_idx = idx;
    row.cols.push_back(idx - 1);
    row.vals.push_back(val);
  }
}

/// Strip CRLF remnants; returns true when the line carries data.
bool is_data_line(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return !line.empty() && line[0] != '#';
}

/// Global metadata from the strict scan pass (O(1) memory beyond the
/// distinct-label set).
struct LibsvmInfo {
  std::size_t num_rows = 0;
  std::size_t num_features = 0;  ///< max 1-based index seen
  /// Raw label → class id, numbered [0, C) in ascending raw order.
  std::map<std::int64_t, std::int32_t> labels;
};

/// Pass 1: row count, feature dimension and the label set, validating
/// every line. Rejects the file at the first line where p·(C−1) — with
/// C−1 taken as at least 1, since a run needs two labels — would exceed
/// kMaxLibsvmParameters.
LibsvmInfo scan_libsvm(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw RuntimeError("cannot open LIBSVM file: " + path);
  LibsvmInfo info;
  LibsvmRow row;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!is_data_line(line)) continue;
    parse_libsvm_row(line, path, line_no, row);
    ++info.num_rows;
    info.labels.emplace(row.label, 0);
    if (!row.cols.empty()) {
      info.num_features = std::max(
          info.num_features, static_cast<std::size_t>(row.cols.back() + 1));
    }
    const std::size_t outputs = std::max<std::size_t>(info.labels.size() - 1, 1);
    if (info.num_features > kMaxLibsvmParameters / outputs) {
      parse_error(path, line_no,
                  "feature index " + std::to_string(info.num_features) +
                      " with " + std::to_string(info.labels.size()) +
                      " labels implies more than " +
                      std::to_string(kMaxLibsvmParameters) +
                      " model parameters p*(C-1)");
    }
  }
  std::int32_t next = 0;
  for (auto& [raw, mapped] : info.labels) mapped = next++;
  return info;
}

/// Streaming row router: maps the i-th row of an n-row split to its rank
/// by walking the plan's contiguous ranges with a cursor (rows arrive in
/// order).
class ShardRouter {
 public:
  ShardRouter(const ShardPlan& plan, std::size_t n) : ranges_(plan.ranges(n)) {}

  [[nodiscard]] std::size_t rank_of(std::size_t i) {
    while (i >= ranges_[at_].end) ++at_;
    return at_;
  }

 private:
  std::vector<RowRange> ranges_;
  std::size_t at_ = 0;
};

/// Per-rank CSR shard under construction.
struct ShardBuilder {
  std::vector<std::int64_t> row_ptr{0};
  std::vector<std::int64_t> col_idx;
  std::vector<double> values;
  std::vector<std::int32_t> labels;

  void append(const LibsvmRow& row, std::int32_t label) {
    labels.push_back(label);
    col_idx.insert(col_idx.end(), row.cols.begin(), row.cols.end());
    values.insert(values.end(), row.vals.begin(), row.vals.end());
    row_ptr.push_back(static_cast<std::int64_t>(values.size()));
  }

  [[nodiscard]] Dataset build(std::size_t num_features, int num_classes) {
    la::CsrMatrix features(labels.size(), num_features, std::move(row_ptr),
                           std::move(col_idx), std::move(values));
    return Dataset::sparse(std::move(features), std::move(labels),
                           num_classes);
  }
};

}  // namespace

ShardedDataset load_libsvm_sharded(const std::string& path,
                                   std::size_t train_rows, std::size_t n_test,
                                   const ShardPlan& plan) {
  NADMM_CHECK(plan.parts >= 1, "load_libsvm_sharded: need >= 1 part");
  const LibsvmInfo info = scan_libsvm(path);
  const std::size_t p = info.num_features;
  NADMM_CHECK(info.labels.size() >= 2,
              "load_libsvm_sharded: " + path +
                  " needs at least two distinct labels");
  NADMM_CHECK(p > 0, "load_libsvm_sharded: " + path + " has no features");
  NADMM_CHECK(n_test < info.num_rows,
              "load_libsvm_sharded: test split (" + std::to_string(n_test) +
                  " rows) leaves no training rows in " + path);
  const std::size_t n_train =
      train_rows > 0 ? train_rows : info.num_rows - n_test;
  NADMM_CHECK(n_train <= info.num_rows - n_test,
              "load_libsvm_sharded: " + path + " has " +
                  std::to_string(info.num_rows) + " rows; need " +
                  std::to_string(n_train + n_test));
  const int num_classes = static_cast<int>(info.labels.size());

  // Pass 2: route every row into its rank's builder as it is parsed. The
  // scan fixed (p, C); a row outside them means the file changed between
  // the passes.
  const auto parts = static_cast<std::size_t>(plan.parts);
  std::vector<ShardBuilder> train_builders(parts);
  std::vector<ShardBuilder> test_builders(parts);
  ShardRouter train_router(plan, n_train);
  ShardRouter test_router(plan, n_test);
  std::ifstream in(path);
  if (!in) throw RuntimeError("cannot open LIBSVM file: " + path);
  LibsvmRow row;
  std::string line;
  std::size_t line_no = 0;
  std::size_t seen = 0;
  while (seen < n_train + n_test && std::getline(in, line)) {
    ++line_no;
    if (!is_data_line(line)) continue;
    parse_libsvm_row(line, path, line_no, row);
    const auto it = info.labels.find(row.label);
    if (it == info.labels.end()) {
      parse_error(path, line_no,
                  "label " + std::to_string(row.label) +
                      " not in the scanned label set");
    }
    if (!row.cols.empty() && static_cast<std::size_t>(row.cols.back()) >= p) {
      parse_error(path, line_no,
                  "feature index " + std::to_string(row.cols.back() + 1) +
                      " beyond the scanned dimension " + std::to_string(p));
    }
    ShardBuilder& builder =
        seen < n_train ? train_builders[train_router.rank_of(seen)]
                       : test_builders[test_router.rank_of(seen - n_train)];
    builder.append(row, it->second);
    ++seen;
  }
  if (seen < n_train + n_test) {
    throw RuntimeError(path + ": ended after " + std::to_string(seen) +
                       " rows; the scan counted " +
                       std::to_string(info.num_rows));
  }

  ShardedDataset out;
  out.train_samples = n_train;
  out.test_samples = n_test;
  out.num_features = p;
  out.num_classes = num_classes;
  out.ranks.reserve(parts);
  for (std::size_t r = 0; r < parts; ++r) {
    RankData rd;
    rd.train = train_builders[r].build(p, num_classes);
    if (n_test > 0) rd.test = test_builders[r].build(p, num_classes);
    out.owned_bytes += rd.train.approx_bytes() + rd.test.approx_bytes();
    out.ranks.push_back(std::move(rd));
  }
  out.resident_bytes = out.owned_bytes;
  return out;
}

void save_libsvm(const Dataset& ds, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw RuntimeError("cannot open file for writing: " + path);
  const auto labels = ds.labels();
  char buf[64];
  if (ds.is_sparse()) {
    const auto& a = ds.sparse_features();
    const auto rp = a.row_ptr();
    const auto ci = a.col_idx();
    const auto va = a.values();
    for (std::size_t i = 0; i < ds.num_samples(); ++i) {
      out << labels[i];
      for (std::int64_t e = rp[i]; e < rp[i + 1]; ++e) {
        std::snprintf(buf, sizeof buf, " %lld:%.17g",
                      static_cast<long long>(ci[e] + 1), va[e]);
        out << buf;
      }
      out << '\n';
    }
  } else {
    const auto& a = ds.dense_features();
    for (std::size_t i = 0; i < ds.num_samples(); ++i) {
      out << labels[i];
      const auto row = a.row(i);
      for (std::size_t j = 0; j < row.size(); ++j) {
        if (row[j] == 0.0) continue;
        std::snprintf(buf, sizeof buf, " %lld:%.17g",
                      static_cast<long long>(j + 1), row[j]);
        out << buf;
      }
      out << '\n';
    }
  }
}

}  // namespace nadmm::data
