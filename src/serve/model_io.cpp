#include "serve/model_io.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>

#include "support/check.hpp"
#include "support/cli.hpp"

namespace nadmm::serve {

namespace {

constexpr const char* kMagic = "nadmm-model v2";
constexpr std::size_t kCoefPerLine = 16;

std::string fmt_exact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[noreturn]] void fail(const std::string& path, int line,
                       const std::string& what) {
  throw InvalidArgument("model file " + path + ":" + std::to_string(line) +
                        ": " + what);
}

}  // namespace

std::size_t SavedModel::coef_cols() const {
  NADMM_CHECK(num_classes >= 2, "saved model: needs >= 2 classes");
  return static_cast<std::size_t>(num_classes) - 1;
}

void save_model(const SavedModel& model, const std::string& path) {
  NADMM_CHECK(model.num_features > 0, "saved model: needs >= 1 feature");
  NADMM_CHECK(model.x.size() == model.num_features * model.coef_cols(),
              "saved model: coefficient count does not match features × "
              "classes");
  std::ofstream out(path);
  if (!out) throw RuntimeError("cannot open model file for writing: " + path);
  out << kMagic << '\n'
      << "objective softmax\n"
      << "solver " << (model.solver.empty() ? "-" : model.solver) << '\n'
      << "dataset " << (model.dataset.empty() ? "-" : model.dataset) << '\n'
      << "seed " << model.seed << '\n'
      << "n_train " << model.n_train << '\n'
      << "n_test " << model.n_test << '\n'
      << "features " << model.num_features << '\n'
      << "classes " << model.num_classes << '\n'
      << "lambda " << fmt_exact(model.lambda) << '\n'
      << "coefficients " << model.x.size() << '\n';
  for (std::size_t i = 0; i < model.x.size(); ++i) {
    out << fmt_exact(model.x[i])
        << ((i % kCoefPerLine == kCoefPerLine - 1 || i + 1 == model.x.size())
                ? '\n'
                : ' ');
  }
  out << "end\n";
  out.flush();
  if (!out) throw RuntimeError("failed writing model file: " + path);
}

SavedModel load_model(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw RuntimeError("cannot open model file: " + path);
  int line_no = 0;
  std::string line;
  const auto next_line = [&]() -> std::string& {
    if (!std::getline(in, line)) fail(path, line_no + 1, "unexpected EOF");
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    return line;
  };
  const auto field = [&](const std::string& key) {
    next_line();
    if (line.rfind(key + ' ', 0) != 0) {
      fail(path, line_no, "expected '" + key + " <value>', got '" + line + "'");
    }
    return line.substr(key.size() + 1);
  };

  if (next_line() != kMagic) {
    fail(path, line_no, std::string("expected header '") + kMagic + "'");
  }
  SavedModel m;
  if (const std::string objective = field("objective");
      objective != "softmax") {
    fail(path, line_no, "unknown objective '" + objective + "'");
  }
  m.solver = field("solver");
  if (m.solver == "-") m.solver.clear();
  m.dataset = field("dataset");
  if (m.dataset == "-") m.dataset.clear();
  // Every number is outside input: parse it exactly (no sign, no wrap,
  // nothing non-finite) and check the product before it sizes anything.
  const auto parse = [&](const std::string& what, const std::string& text,
                         auto& out) {
    bool ok = parse_number(text, out);
    if constexpr (std::is_floating_point_v<
                      std::remove_reference_t<decltype(out)>>) {
      ok = ok && std::isfinite(out);
    }
    if (!ok) fail(path, line_no, "malformed " + what + " '" + text + "'");
  };
  const auto number = [&](const std::string& key, auto& out) {
    parse(key, field(key), out);
  };
  number("seed", m.seed);
  number("n_train", m.n_train);
  number("n_test", m.n_test);
  number("features", m.num_features);
  number("classes", m.num_classes);
  number("lambda", m.lambda);
  if (m.num_features == 0) fail(path, line_no, "features must be positive");
  if (m.num_classes < 2) fail(path, line_no, "classes must be >= 2");

  std::size_t count = 0;
  number("coefficients", count);
  const std::size_t cols = m.coef_cols();
  if (m.num_features > std::numeric_limits<std::size_t>::max() / cols ||
      count != m.num_features * cols) {
    fail(path, line_no,
         "coefficient count does not match features × classes");
  }
  // Grown as coefficients are read: a header cannot reserve memory the
  // file does not back.
  while (m.x.size() < count) {
    std::istringstream row(next_line());
    std::string token;
    while (row >> token) {
      if (m.x.size() == count) {
        fail(path, line_no, "more coefficients than declared");
      }
      double v = 0.0;
      parse("coefficient", token, v);
      m.x.push_back(v);
    }
  }
  if (next_line() != "end") fail(path, line_no, "missing 'end' marker");
  return m;
}

}  // namespace nadmm::serve
