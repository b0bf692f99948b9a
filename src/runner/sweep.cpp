#include "runner/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <type_traits>

#include "runner/registry.hpp"
#include "serve/server.hpp"
#include "support/check.hpp"
#include "support/telemetry.hpp"

namespace nadmm::runner {

namespace {

/// ';'-joined per-rank wait seconds ("0;1.5;0.25"), empty when the
/// solver reports none. Round-trips through the journal verbatim.
std::string fmt_rank_waits(const std::vector<double>& waits) {
  std::string out;
  for (std::size_t r = 0; r < waits.size(); ++r) {
    if (r > 0) out += ';';
    out += to_text(waits[r]);
  }
  return out;
}

/// Sparse "staleness:count" pairs ("0:24;2:7"), empty when unreported.
std::string fmt_staleness_hist(const std::vector<std::uint64_t>& hist) {
  std::string out;
  for (std::size_t s = 0; s < hist.size(); ++s) {
    if (hist[s] == 0) continue;
    if (!out.empty()) out += ';';
    out += std::to_string(s) + ':' + std::to_string(hist[s]);
  }
  return out;
}

/// RunResult::metrics as the journal/JSON wire form: "name:value;…" in
/// key order. The map never stores zero values (add_metric skips them),
/// so fresh runs and journal restores serialize identically.
std::string fmt_metrics(const std::map<std::string, std::uint64_t>& metrics) {
  std::ostringstream os;
  bool first = true;
  for (const auto& [name, value] : metrics) {
    if (!first) os << ';';
    first = false;
    os << name << ':' << value;
  }
  return os.str();
}

bool parse_metrics(const std::string& text,
                   std::map<std::string, std::uint64_t>& out) {
  out.clear();
  std::size_t pos = 0;
  while (pos < text.size()) {
    auto end = text.find(';', pos);
    if (end == std::string::npos) end = text.size();
    const std::string item = text.substr(pos, end - pos);
    const auto colon = item.rfind(':');
    if (colon == std::string::npos || colon == 0) return false;
    std::uint64_t value = 0;
    if (!parse_number(std::string_view(item).substr(colon + 1), value)) {
      return false;
    }
    if (value != 0) out[item.substr(0, colon)] = value;
    pos = end + 1;
  }
  return true;
}

// ------------------------------------------------------------ flat JSON

struct JsonField {
  std::string text;     ///< the unescaped string, or the bare token
  bool quoted = false;  ///< a JSON string (vs a number or inf/nan token)
};
using JsonObject = std::map<std::string, JsonField>;

/// Parse one object in exactly the shape this file writes: `{"key":
/// value, …}` with string or bare-token values. Nullopt on anything else,
/// in particular on a line torn mid-write (it never reaches its '}').
std::optional<JsonObject> parse_flat_json(const std::string& line) {
  std::size_t pos = 0;
  const auto eat = [&](const char* token) {
    const std::size_t n = std::strlen(token);
    if (line.compare(pos, n, token) != 0) return false;
    pos += n;
    return true;
  };
  const auto read_string = [&](std::string& out) {
    if (!eat("\"")) return false;
    for (out.clear(); pos < line.size() && line[pos] != '"'; ++pos) {
      char c = line[pos];
      if (c == '\\') {
        if (++pos == line.size()) return false;
        switch (c = line[pos]) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'u': {  // json_escape writes only \u00XX
            unsigned code = 0;
            const char* hex = line.data() + pos + 1;
            if (pos + 4 >= line.size() ||
                std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4) {
              return false;
            }
            c = static_cast<char>(code);
            pos += 4;
            break;
          }
          default: break;  // '"' and '\\' stand for themselves
        }
      }
      out += c;
    }
    return eat("\"");
  };

  JsonObject fields;
  if (!eat("{")) return std::nullopt;
  do {
    std::string key;
    JsonField field;
    if (!read_string(key) || !eat(": ")) return std::nullopt;
    field.quoted = pos < line.size() && line[pos] == '"';
    if (field.quoted) {
      if (!read_string(field.text)) return std::nullopt;
    } else {
      const auto end = std::min(line.find(',', pos), line.find('}', pos));
      if (end == std::string::npos || end == pos) return std::nullopt;
      field.text = line.substr(pos, end - pos);
      pos = end;
    }
    if (!fields.emplace(std::move(key), std::move(field)).second) {
      return std::nullopt;  // duplicate key
    }
  } while (eat(", "));
  if (!eat("}") || pos != line.size()) return std::nullopt;
  return fields;
}

// ------------------------------------------------------------ key table
//
// The single list of `.sweep` keys. Spec parsing, the "unknown key"
// message, the `nadmm sweep` flags, the fingerprint and the grid
// expansion all walk it: adding an axis or a knob is one entry.

enum Mode { kTrain, kServing, kBoth };  ///< grid mode a key applies to

struct SweepKey {
  enum Kind {
    kAxis,    ///< comma-separated list; axes expand in table order
    kScalar,  ///< one spec or base-config knob
    kFixed,   ///< base knob no key sets: fingerprinted only
  };
  std::string name;
  Kind kind;
  std::string help;
  OptionValidator validate;  ///< the whole value; may be empty for scalars
  Mode mode;                 ///< axes outside the grid's mode stay at base
  /// Parse raw text into the bound field; throws naming `flag`.
  std::function<void(SweepSpec&, const std::string& flag,
                     const std::string& text)>
      assign;
  std::function<std::string(const SweepSpec&)> canonical;  ///< fingerprint
  std::function<std::size_t(const SweepSpec&)> size;  ///< axis length
  /// Bind axis entry `i` into a scenario.
  std::function<void(const SweepSpec&, std::size_t i, Scenario&)> pick;
};

/// The Config inside a SweepSpec (its base config or serving knobs) or
/// inside a Scenario.
template <class Config, class Holder>
auto& part(Holder& holder) {
  if constexpr (std::is_same_v<Config, serve::ServeConfig>) {
    return holder.serve;
  } else if constexpr (std::is_same_v<std::remove_const_t<Holder>,
                                      Scenario>) {
    return holder.config;
  } else {
    return holder.base;
  }
}

/// Axis key: the spec list F; scenario field Target (a Scenario member,
/// a config one or a serving one) takes one entry per scenario. A field
/// Target's entries are checked by its field's validator.
template <auto F, auto Target>
SweepKey axis(std::string name, std::string help, Mode mode = kBoth,
              OptionValidator validate = {}) {
  using T = typename TypeOf<F>::value_type;
  if constexpr (!std::is_same_v<OwnerOf<Target>, Scenario>) {
    validate = config_field<Target>().spec.validator;
  }
  return {std::move(name), SweepKey::kAxis, std::move(help),
          v_each(',', std::move(validate)), mode,
          [](SweepSpec& spec, const std::string& flag,
             const std::string& text) {
            std::vector<T> entries;
            for (const auto& item : split_list(text, ',')) {
              entries.push_back(parse_as<T>(flag, item));
            }
            spec.*F = std::move(entries);
          },
          [](const SweepSpec& spec) {
            std::string out;
            for (std::size_t i = 0; i < (spec.*F).size(); ++i) {
              if (i > 0) out += ',';
              out += to_text((spec.*F)[i]);
            }
            return out;
          },
          [](const SweepSpec& spec) { return (spec.*F).size(); },
          [](const SweepSpec& spec, std::size_t i, Scenario& scenario) {
            if constexpr (std::is_same_v<OwnerOf<Target>, Scenario>) {
              scenario.*Target = (spec.*F)[i];
            } else {
              part<OwnerOf<Target>>(scenario).*Target = (spec.*F)[i];
            }
          }};
}

/// Scalar key for SweepSpec member F.
template <auto F>
SweepKey scalar(std::string name, std::string help,
                OptionValidator validate = {}, Mode mode = kBoth) {
  return {std::move(name), SweepKey::kScalar, std::move(help),
          std::move(validate), mode,
          [](SweepSpec& spec, const std::string& flag,
             const std::string& text) {
            spec.*F = parse_as<TypeOf<F>>(flag, text);
          },
          [](const SweepSpec& spec) { return to_text(spec.*F); }, {}, {}};
}

/// Scalar or fixed key for field F of the spec's base config or serving
/// knobs: help and validator come from its field-table entry, the name
/// too unless `name` overrides it.
template <auto F>
SweepKey config_key(SweepKey::Kind kind, Mode mode = kBoth,
                   std::string name = {}) {
  using Config = OwnerOf<F>;
  const Field<Config>& field = config_field<F>();
  return {name.empty() ? field.key() : std::move(name), kind,
          field.spec.help, field.spec.validator, mode,
          [&field](SweepSpec& spec, const std::string& flag,
                   const std::string& text) {
            field.assign(part<Config>(spec), flag, text);
          },
          [&field](const SweepSpec& spec) {
            return field.text(part<Config>(spec));
          },
          {}, {}};
}

/// Table order is the fingerprint's serialization order and, for axes,
/// the expansion order (rightmost fastest), so reordering entries
/// changes every journal fingerprint and scenario number.
const std::vector<SweepKey>& sweep_keys() {
  using C = ExperimentConfig;
  using S = SweepSpec;
  using V = serve::ServeConfig;
  constexpr auto kScalar = SweepKey::kScalar;
  constexpr auto kFixed = SweepKey::kFixed;
  static const std::vector<SweepKey> keys = {
      axis<&S::solvers, &Scenario::solver>(
          "solvers", "solver axis, e.g. newton-admm,giant", kBoth,
          v_solver()),
      axis<&S::datasets, &C::dataset>("datasets",
                                      "dataset axis, e.g. blobs,higgs"),
      axis<&S::workers, &C::workers>(
          "workers", "rank-count axis, e.g. 4,8,16", kTrain),
      axis<&S::devices, &C::device>("devices", "device axis, e.g. p100,cpu"),
      axis<&S::networks, &C::network>("networks",
                                      "network axis, e.g. ib100,eth10"),
      axis<&S::penalties, &C::penalty>(
          "penalties", "ADMM penalty axis, e.g. sps,fixed", kTrain),
      axis<&S::lambdas, &C::lambda>("lambdas", "l2 axis, e.g. 1e-5,1e-4",
                                    kTrain),
      axis<&S::stragglers, &C::straggler>(
          "stragglers", "straggler axis, e.g. none,1:4", kTrain),
      axis<&S::faults, &C::fault>(
          "faults", "link-fault axis, e.g. none,drop:0.05,drop:0.1+dup:0.02",
          kTrain),
      config_key<&C::n_train>(kScalar),
      config_key<&C::n_test>(kScalar),
      config_key<&C::e18_features>(kScalar),
      config_key<&C::seed>(kScalar),
      config_key<&C::rho0>(kFixed),
      config_key<&C::iterations>(kScalar),
      config_key<&C::cg_iterations>(kScalar),
      config_key<&C::cg_tol>(kScalar),
      config_key<&C::line_search_iterations>(kScalar),
      config_key<&C::local_newton_steps>(kFixed),
      config_key<&C::objective_target>(kScalar),
      config_key<&C::evaluate_accuracy>(kFixed),
      config_key<&C::sgd_batch>(kFixed),
      config_key<&C::sgd_step>(kFixed),
      config_key<&C::dane_epochs>(kFixed),
      config_key<&C::svrg_outer>(kFixed),
      config_key<&C::fo_step>(kFixed),
      config_key<&C::gradient_tol>(kFixed),
      config_key<&C::omp_threads>(kFixed),
      config_key<&C::staleness>(kScalar),
      config_key<&C::sync_every>(kScalar),
      config_key<&C::kill>(kScalar),
      config_key<&C::checkpoint_every>(kScalar),
      scalar<&S::scale>("scale", "paper-scale multiplier for n_train/n_test",
                        v_double_min(0.0, /*inclusive=*/false)),
      scalar<&S::weak_scaling>(
          "weak_scaling", "true|false: n_train is the per-worker shard", {},
          kTrain),
      scalar<&S::mode>("mode", "grid mode: train|serving",
                       v_one_of({"train", "serving"})),
      axis<&S::arrivals, &V::arrival>(
          "arrivals", "arrival axis, e.g. poisson:1000,bursty", kServing),
      axis<&S::batch_policies, &V::batch>(
          "batch_policies", "batch axis, e.g. immediate,deadline:16:0.005",
          kServing),
      config_key<&V::requests>(kScalar, kServing, "serve_requests"),
      scalar<&S::serve_model>("serve_model",
                              "pre-trained model file to serve", {},
                              kServing),
      config_key<&V::dispatch_overhead_s>(kScalar, kServing),
  };
  return keys;
}

/// `n_train` -> `n-train`.
std::string flag_name(const SweepKey& key) {
  std::string flag = key.name;
  std::replace(flag.begin(), flag.end(), '_', '-');
  return flag;
}

void apply_key(const SweepKey& key, SweepSpec& spec, const std::string& flag,
               const std::string& value) {
  if (key.validate) key.validate(flag, value);
  key.assign(spec, flag, value);
}

// ------------------------------------------------------------ column table
//
// The single list of report columns, in CSV order. The CSV header and
// rows, the JSON rows, the journal records and the journal restore all
// walk it: adding a column is one entry.

enum Sink : unsigned {
  kCsv = 1u,
  kJson = 2u,  ///< the JSON report row and the journal record (one writer)
};

enum Scope {
  kScenario,  ///< the grid point: every row; restored from the expansion
  kResult,    ///< ok rows only (CSV prints zero values for failed rows)
  kError,     ///< failed rows only
};

/// JSON spelling: quoted; bare; bare number the report (not the
/// journal) writes as null when non-finite.
enum class Cell { kText, kInteger, kReal };

struct Column {
  const char* name;
  Scope scope;
  unsigned sinks;
  Cell cell;
  std::function<std::string(const ScenarioOutcome&)> format;
  /// Restore a journaled value; empty for derived columns.
  std::function<bool(ScenarioOutcome&, const std::string&)> parse;
};

/// The outcome field F names, wherever in the outcome it lives.
template <auto F, class Outcome>
auto& outcome_field(Outcome& o) {
  using Owner = OwnerOf<F>;
  if constexpr (std::is_same_v<Owner, Scenario>) {
    return o.scenario.*F;
  } else if constexpr (std::is_same_v<Owner, core::RunResult>) {
    return o.result.*F;
  } else if constexpr (std::is_same_v<Owner, ScenarioOutcome>) {
    return o.*F;
  } else {
    return part<Owner>(o.scenario).*F;
  }
}

template <auto F>
Column column(const char* name, Scope scope, unsigned sinks = kCsv | kJson) {
  using T = TypeOf<F>;
  return {name, scope, sinks,
          std::is_same_v<T, std::string> ? Cell::kText
          : std::is_floating_point_v<T>  ? Cell::kReal
                                         : Cell::kInteger,
          [](const ScenarioOutcome& o) {
            // Serving knobs are reported for serving scenarios only.
            if constexpr (std::is_same_v<OwnerOf<F>, serve::ServeConfig>) {
              if (!o.scenario.serving) return std::string();
            }
            return to_text(outcome_field<F>(o));
          },
          [](ScenarioOutcome& o, const std::string& text) {
            return from_text(text, outcome_field<F>(o));
          }};
}

/// CSV projection of one RunResult::metrics counter; the JSON row and
/// the journal carry the whole map.
Column metric_column(const char* name) {
  return {name, kResult, kCsv, Cell::kInteger,
          [name](const ScenarioOutcome& o) {
            return to_text(o.result.metric(name));
          },
          {}};
}

constexpr const char* kStatus[] = {"error", "ok"};  // by ScenarioOutcome::ok

const std::vector<Column>& columns() {
  using C = ExperimentConfig;
  using O = ScenarioOutcome;
  using R = core::RunResult;
  using V = serve::ServeConfig;
  static const std::vector<Column> table = {
      column<&Scenario::index>("scenario", kScenario),
      {"tag", kScenario, kJson, Cell::kText,
       [](const O& o) { return o.scenario.tag(); }, {}},
      column<&Scenario::solver>("solver", kScenario),
      column<&C::dataset>("dataset", kScenario),
      column<&C::n_train>("n_train", kScenario),
      column<&C::n_test>("n_test", kScenario),
      column<&C::workers>("workers", kScenario),
      column<&C::device>("device", kScenario),
      column<&C::network>("network", kScenario),
      column<&C::penalty>("penalty", kScenario),
      column<&C::lambda>("lambda", kScenario),
      column<&C::straggler>("straggler", kScenario),
      {"status", kScenario, kCsv | kJson, Cell::kText,
       [](const O& o) { return std::string(kStatus[o.ok]); },
       [](O& o, const std::string& text) {
         o.ok = text == kStatus[1];
         return o.ok || text == kStatus[0];
       }},
      column<&R::iterations>("iterations", kResult),
      column<&R::final_objective>("final_objective", kResult),
      column<&R::final_test_accuracy>("final_test_accuracy", kResult),
      column<&R::total_sim_seconds>("total_sim_seconds", kResult),
      column<&R::avg_epoch_sim_seconds>("avg_epoch_sim_seconds", kResult),
      column<&O::comm_sim_seconds>("total_comm_sim_seconds", kResult),
      column<&O::max_wait_seconds>("max_wait_seconds", kResult),
      column<&O::rank_waits>("rank_wait_seconds", kResult),
      column<&O::staleness_hist>("staleness_hist", kResult),
      column<&O::peak_dataset_bytes>("peak_dataset_bytes", kResult),
      column<&V::arrival>("arrival", kScenario),
      column<&V::batch>("batch_policy", kScenario),
      column<&O::serve_requests>("requests", kResult),
      column<&O::serve_batches>("batches", kResult),
      column<&O::throughput_rps>("throughput_rps", kResult),
      column<&O::mean_batch>("mean_batch", kResult),
      column<&O::p50_latency_s>("p50_latency_s", kResult),
      column<&O::p99_latency_s>("p99_latency_s", kResult),
      column<&O::p999_latency_s>("p999_latency_s", kResult),
      column<&C::fault>("fault", kScenario),
      column<&C::kill>("kill", kScenario),
      column<&C::checkpoint_every>("checkpoint_every", kScenario),
      metric_column("retransmits"),
      metric_column("gaps_detected"),
      metric_column("messages_dropped"),
      metric_column("checkpoints"),
      metric_column("restores"),
      {"metrics", kResult, kJson, Cell::kText,
       [](const O& o) { return fmt_metrics(o.result.metrics); },
       [](O& o, const std::string& text) {
         return parse_metrics(text, o.result.metrics);
       }},
      column<&O::error>("error", kError, kJson),
  };
  return table;
}

/// Whether the JSON row / journal record of `o` carries column `c`:
/// scenario columns always, result columns for ok rows, error columns
/// for failed ones.
bool in_json_row(const Column& c, const ScenarioOutcome& o) {
  return (c.sinks & kJson) &&
         (c.scope == kScenario || (c.scope == kResult) == o.ok);
}

// --------------------------------------------------------------- journal
//
// A header line, then one outcome_json(o, true) record per finished
// scenario, flushed per line. Version history: docs/SWEEP_FORMAT.md
// (v8: the partition column and key left the table). Older journals are
// rejected on --resume.
constexpr const char* kJournalKind = "nadmm-sweep-journal";
constexpr std::int64_t kJournalVersion = 8;

std::string journal_header_line(const std::string& fingerprint,
                                std::size_t scenarios) {
  std::ostringstream os;
  os << "{\"kind\": \"" << kJournalKind << "\", \"version\": "
     << kJournalVersion << ", \"fingerprint\": \"" << fingerprint << "\""
     << ", \"scenarios\": " << scenarios << '}';
  return os.str();
}

/// Map file-system-unsafe characters (e.g. from "libsvm:/path" dataset
/// sources, "3000:550" device ratings, "1:4" straggler specs) to '-'.
std::string fs_safe(std::string s) {
  for (char& c : s) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '-';
    if (!safe) c = '-';
  }
  return s;
}

/// Sample count `key` after the spec's paper-scale multiplier: exact at
/// scale 1; otherwise a count the double product cannot hold exactly, or
/// whose product overflows, throws InvalidArgument naming `key`.
std::size_t scaled_count(const char* key, std::size_t base, double scale) {
  if (scale == 1.0) return base;
  const double scaled = static_cast<double>(base) * scale;
  if (base > (std::size_t{1} << 53) || !(scaled < 0x1p63)) {
    throw InvalidArgument("sweep key '" + std::string(key) + "' = " +
                          to_text(base) + " cannot be scaled by " +
                          to_text(scale) +
                          ": a double holds counts exactly only up to 2^53 "
                          "and the result must stay below 2^63");
  }
  return static_cast<std::size_t>(std::llround(scaled));
}

}  // namespace

void apply_sweep_assignment(SweepSpec& spec, const std::string& raw_key,
                            const std::string& raw_value) {
  const std::string key = trim(raw_key);
  const std::string value = trim(raw_value);
  NADMM_CHECK(!key.empty(), "sweep key must not be empty");
  NADMM_CHECK(!value.empty(), "sweep key '" + key + "' has an empty value");
  std::string axes, scalars;
  for (const auto& entry : sweep_keys()) {
    if (entry.kind == SweepKey::kFixed) continue;
    if (key == entry.name) {
      return apply_key(entry, spec, flag_name(entry), value);
    }
    std::string& list = entry.kind == SweepKey::kAxis ? axes : scalars;
    if (!list.empty()) list += '|';
    list += entry.name;
  }
  throw InvalidArgument("unknown sweep key '" + key + "' (grid axes: " +
                        axes + "; scalars: " + scalars + ")");
}

SweepSpec parse_sweep_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw RuntimeError("cannot open sweep spec: " + path);
  SweepSpec spec;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    if (trim(line).empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw InvalidArgument("sweep spec " + path + ":" +
                            std::to_string(line_no) +
                            ": expected 'key = value', got '" + trim(line) +
                            "'");
    }
    apply_sweep_assignment(spec, line.substr(0, eq), line.substr(eq + 1));
  }
  return spec;
}

const OptionSet& sweep_key_options() {
  static const OptionSet options = [] {
    OptionSet set;
    for (const auto& key : sweep_keys()) {
      if (key.kind == SweepKey::kFixed) continue;
      const char* mode = key.mode == kTrain     ? " [train mode]"
                         : key.mode == kServing ? " [serving mode]"
                                                : "";
      set.add_string(flag_name(key), "", key.help + mode);
    }
    return set;
  }();
  return options;
}

void apply_sweep_flags(SweepSpec& spec, const CliParser& cli) {
  for (const auto& key : sweep_keys()) {
    if (key.kind == SweepKey::kFixed) continue;
    const std::string flag = flag_name(key);
    const std::string value = trim(cli.get_string(flag));
    if (!value.empty()) apply_key(key, spec, flag, value);
  }
}

std::string Scenario::tag() const {
  // The index prefix keeps tags unique even after sanitization.
  char buf[512];
  if (serving) {
    std::snprintf(buf, sizeof buf, "%03d_serve_%s_%s_w%d_%s_%s_%s_%s", index,
                  solver.c_str(), fs_safe(config.dataset).c_str(),
                  config.workers, fs_safe(config.device).c_str(),
                  config.network.c_str(), fs_safe(serve.arrival).c_str(),
                  fs_safe(serve.batch).c_str());
    return buf;
  }
  std::snprintf(buf, sizeof buf, "%03d_%s_%s_w%d_%s_%s_%s_lam%s_st%s",
                index, solver.c_str(), fs_safe(config.dataset).c_str(),
                config.workers, fs_safe(config.device).c_str(),
                config.network.c_str(), config.penalty.c_str(),
                fmt_double(config.lambda).c_str(),
                fs_safe(config.straggler).c_str());
  std::string tag = buf;
  // Appended only when set, so pre-fault grids keep their tags (and
  // their journals) unchanged.
  if (!config.fault.empty() && config.fault != "none") {
    tag += "_f" + fs_safe(config.fault);
  }
  return tag;
}

std::vector<Scenario> expand_scenarios(const SweepSpec& spec) {
  const bool serving = spec.mode == "serving";
  std::vector<const SweepKey*> axes;
  for (const auto& key : sweep_keys()) {
    if (key.kind != SweepKey::kAxis ||
        key.mode == (serving ? kTrain : kServing)) {
      continue;
    }
    NADMM_CHECK(key.size(spec) > 0,
                "sweep axis '" + key.name + "' needs at least one entry");
    axes.push_back(&key);
  }
  const std::size_t scaled_train = std::max<std::size_t>(
      1, scaled_count("n_train", spec.base.n_train, spec.scale));
  Scenario base;
  base.serving = serving;
  base.config = spec.base;
  base.config.n_train = scaled_train;
  base.config.n_test = scaled_count("n_test", spec.base.n_test, spec.scale);
  base.serve = spec.serve;

  // Odometer over the active axes, rightmost fastest.
  std::vector<std::size_t> digit(axes.size(), 0);
  std::vector<Scenario> scenarios;
  for (std::size_t a = axes.size(); a > 0;) {
    Scenario& s = scenarios.emplace_back(base);
    s.index = static_cast<int>(scenarios.size() - 1);
    for (std::size_t i = 0; i < axes.size(); ++i) {
      axes[i]->pick(spec, digit[i], s);
    }
    reject_unread_knobs(s.solver, s.config);
    // Weak scaling: base.n_train is the per-worker shard.
    if (spec.weak_scaling && !serving) {
      s.config.n_train =
          scaled_train * static_cast<std::size_t>(s.config.workers);
    }
    for (a = axes.size(); a > 0 && ++digit[a - 1] == axes[a - 1]->size(spec);) {
      digit[--a] = 0;
    }
  }
  return scenarios;
}

std::string spec_fingerprint(const SweepSpec& spec) {
  // Canonical form: "name=value;" for every key-table entry, in order.
  std::string canonical;
  for (const auto& key : sweep_keys()) {
    canonical += key.name;
    canonical += '=';
    canonical += key.canonical(spec);
    canonical += ';';
  }
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a 64
  for (const char c : canonical) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::size_t SweepReport::failures() const {
  std::size_t n = 0;
  for (const auto& o : outcomes) n += o.ok ? 0 : 1;
  return n;
}

std::vector<std::string> SweepReport::csv_rows() const {
  static const ScenarioOutcome kFailedResult;
  std::vector<std::string> rows(outcomes.size() + 1);
  for (const auto& c : columns()) {
    if (!(c.sinks & kCsv)) continue;
    const std::string sep = rows[0].empty() ? "" : ",";
    rows[0] += sep + c.name;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const ScenarioOutcome& o = outcomes[i];
      rows[i + 1] +=
          sep + c.format(c.scope == kResult && !o.ok ? kFailedResult : o);
    }
  }
  return rows;
}

void SweepReport::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw RuntimeError("cannot open sweep report for writing: " + path);
  for (const auto& row : csv_rows()) out << row << '\n';
}

void SweepReport::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw RuntimeError("cannot open sweep report for writing: " + path);
  out << "[\n";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    out << "  " << outcome_json(outcomes[i])
        << (i + 1 < outcomes.size() ? "," : "") << '\n';
  }
  out << "]\n";
}

std::string outcome_json(const ScenarioOutcome& o, bool journal) {
  std::string out = "{";
  for (const auto& c : columns()) {
    if (!in_json_row(c, o)) continue;
    const std::string text = c.format(o);
    out += out.size() > 1 ? ", \"" : "\"";
    out += c.name;
    out += "\": ";
    if (c.cell == Cell::kText) {
      out += '"';
      out += json_escape(text);
      out += '"';
    } else if (double v = 0.0; c.cell == Cell::kReal && !journal &&
                                parse_number(text, v) && !std::isfinite(v)) {
      out += "null";  // JSON has no inf/nan literals
    } else {
      out += text;
    }
  }
  return out + '}';
}

std::optional<ScenarioOutcome> restore_outcome(
    const std::string& record, const std::vector<Scenario>& scenarios) {
  const auto fields = parse_flat_json(record);
  if (!fields) return std::nullopt;
  // The recorded value of `c`; nullptr when absent or mistyped.
  const auto field = [&](const Column& c) -> const JsonField* {
    const auto it = fields->find(c.name);
    return it != fields->end() && it->second.quoted == (c.cell == Cell::kText)
               ? &it->second
               : nullptr;
  };
  // The grid point first: it yields the index and the status; the rest
  // of it must agree with what the grid expands to at that index. The
  // header fingerprint already matched, so a record that disagrees was
  // damaged after it was written: skip it like a torn line, and the
  // scenario runs again.
  ScenarioOutcome o;
  for (const auto& c : columns()) {
    if (!in_json_row(c, o) || c.scope != kScenario) continue;
    const JsonField* f = field(c);
    if (f == nullptr || (c.parse && !c.parse(o, f->text))) return std::nullopt;
  }
  const auto index = static_cast<std::size_t>(o.scenario.index);
  if (o.scenario.index < 0 || index >= scenarios.size()) return std::nullopt;
  o.scenario = scenarios[index];
  for (const auto& c : columns()) {
    if (!in_json_row(c, o) || c.scope != kScenario) continue;
    if (field(c)->text != c.format(o)) return std::nullopt;
  }
  for (const auto& c : columns()) {
    if (!in_json_row(c, o) || c.scope == kScenario) continue;
    const JsonField* f = field(c);
    if (f == nullptr || !c.parse(o, f->text)) return std::nullopt;
  }
  o.from_journal = true;
  o.result.solver = o.scenario.solver;
  return o;
}

SweepReport run_sweep(const SweepSpec& spec, const SweepOptions& options) {
  NADMM_CHECK(options.jobs >= 1, "sweep needs at least one scheduler thread");
  const std::vector<Scenario> scenarios = expand_scenarios(spec);
  const std::string fingerprint = spec_fingerprint(spec);

  if (!options.trace_dir.empty()) {
    std::filesystem::create_directories(options.trace_dir);
  }
  if (!options.trace_event_dir.empty()) {
    std::filesystem::create_directories(options.trace_event_dir);
  }

  SweepReport report;
  report.outcomes.resize(scenarios.size());
  std::vector<char> completed(scenarios.size(), 0);

  // Scenarios that agree on (dataset, n, p, seed) share one immutable
  // copy through the provider; budget 0 reverts to per-scenario
  // regeneration.
  data::DatasetProvider local_provider(options.cache_budget);
  data::DatasetProvider* provider =
      options.provider ? options.provider : &local_provider;
  const bool use_cache = options.provider != nullptr || options.cache_budget > 0;
  const auto full_data = [&](const data::DatasetKey& key) {
    return use_cache ? provider->get(key)
                     : std::make_shared<const data::TrainTest>(
                           data::generate_dataset(key));
  };

  bool journal_needs_newline = false;
  if (options.resume && !options.journal_path.empty() &&
      std::filesystem::exists(options.journal_path)) {
    std::ifstream in(options.journal_path);
    if (!in) {
      throw RuntimeError("cannot open sweep journal: " + options.journal_path);
    }
    std::string line;
    // A kill inside the truncate-then-write-header window leaves an
    // empty or torn header; nothing restorable was lost, so treat that
    // as a fresh start rather than dead-ending --resume.
    const auto header = std::getline(in, line) ? parse_flat_json(line)
                                               : std::nullopt;
    if (header) {
      const auto get = [&](const char* name) {
        const auto it = header->find(name);
        return it == header->end() ? std::string() : it->second.text;
      };
      std::int64_t journal_version = -1;
      std::size_t journal_scenarios = 0;
      NADMM_CHECK(get("kind") == kJournalKind,
                  "sweep journal " + options.journal_path +
                      " has an unrecognized header");
      NADMM_CHECK(from_text(get("version"), journal_version) &&
                      from_text(get("scenarios"), journal_scenarios),
                  "sweep journal " + options.journal_path +
                      " has a malformed header");
      NADMM_CHECK(journal_version == kJournalVersion,
                  "sweep journal " + options.journal_path +
                      " has unsupported version " +
                      std::to_string(journal_version) +
                      " (expected " + std::to_string(kJournalVersion) +
                      ") — rerun without --resume to start fresh");
      NADMM_CHECK(get("fingerprint") == fingerprint &&
                      journal_scenarios == scenarios.size(),
                  "sweep journal " + options.journal_path +
                      " was written for a different grid spec (fingerprint " +
                      get("fingerprint") + ", expected " + fingerprint +
                      ") — rerun without --resume to start fresh");
      bool ends_with_newline = true;
      while (std::getline(in, line)) {
        ends_with_newline = !in.eof() || line.empty();
        // Only the final line of a killed run can be torn (the writer
        // flushes per line); restore_outcome skips it.
        if (auto restored = restore_outcome(line, scenarios)) {
          const auto i = static_cast<std::size_t>(restored->scenario.index);
          report.outcomes[i] = std::move(*restored);
          completed[i] = 1;
        }
      }
      for (const char c : completed) report.resumed += c ? 1 : 0;
      journal_needs_newline = !ends_with_newline;
    }
  }

  std::ofstream journal;
  if (!options.journal_path.empty()) {
    const bool append = report.resumed > 0;
    journal.open(options.journal_path,
                 append ? std::ios::app : std::ios::trunc);
    if (!journal) {
      throw RuntimeError("cannot open sweep journal for writing: " +
                         options.journal_path);
    }
    if (!append) {
      journal << journal_header_line(fingerprint, scenarios.size()) << '\n';
      journal.flush();
    } else if (journal_needs_newline) {
      // A kill mid-write can leave a torn final line; terminate it so the
      // next appended record starts on its own line.
      journal << '\n';
      journal.flush();
    }
  }

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> claimed{0};
  std::atomic<std::size_t> done{0};
  std::mutex progress_mutex;
  const std::size_t to_execute = scenarios.size() - report.resumed;

  // Serving scenarios share one trained model per (solver, dataset):
  // training runs under the base cluster config, so the grid's
  // device/network axes rate only the serving plane, never the model.
  std::mutex model_mutex;
  std::map<std::string, std::shared_ptr<const serve::SavedModel>> model_cache;

  auto serve_model_for = [&](const Scenario& scenario,
                             const ExperimentConfig& config) {
    const std::string key = spec.serve_model.empty()
                                ? scenario.solver + "|" + config.dataset
                                : "@" + spec.serve_model;
    const std::scoped_lock lock(model_mutex);
    const auto it = model_cache.find(key);
    if (it != model_cache.end()) return it->second;
    std::shared_ptr<const serve::SavedModel> model;
    if (!spec.serve_model.empty()) {
      model = std::make_shared<serve::SavedModel>(
          serve::load_model(spec.serve_model));
    } else {
      ExperimentConfig train_config = config;
      train_config.device = spec.base.device;
      train_config.network = spec.base.network;
      const auto full = full_data(dataset_key(train_config));
      const data::TrainTest& tt = *full;
      comm::SimCluster cluster = make_cluster(train_config);
      const core::RunResult trained = SolverRegistry::instance().run(
          scenario.solver, cluster,
          shard_for_solver(scenario.solver, tt.train, &tt.test, train_config),
          train_config);
      model = std::make_shared<serve::SavedModel>(saved_model(
          scenario.solver, train_config, tt.train, trained.x));
    }
    model_cache.emplace(key, model);
    return model;
  };

  auto run_one = [&](const Scenario& scenario) {
    ScenarioOutcome outcome;
    outcome.scenario = scenario;
    // One tracer per scenario: spans stamp virtual time only, so the
    // exported file is byte-identical no matter how many scheduler
    // threads ran the grid. The scope is thread-local, so concurrent
    // scenarios on other workers never share a tracer.
    std::unique_ptr<telem::Tracer> tracer;
    std::optional<telem::TracerScope> tracer_scope;
    if (!options.trace_event_dir.empty()) {
      tracer = std::make_unique<telem::Tracer>(scenario.tag());
      tracer_scope.emplace(*tracer);
    }
    const auto write_trace = [&] {
      if (!tracer || !outcome.ok) return;
      tracer_scope.reset();  // detach before export
      tracer->write_chrome_trace_file(options.trace_event_dir + "/" +
                                      scenario.tag() + ".trace.json");
    };
    try {
      ExperimentConfig config = scenario.config;
      // One thread per rank: no oversubscription under --jobs.
      config.omp_threads = 1;
      if (scenario.serving) {
        const auto model = serve_model_for(scenario, config);
        // The request pool is the test split of the scenario's dataset,
        // which must be the data a loaded model was trained on.
        if (!spec.serve_model.empty()) check_model_pool(*model, config);
        const auto full = full_data(dataset_key(config));
        const data::TrainTest& tt = *full;
        NADMM_CHECK(!tt.test.empty(),
                    "serving needs a non-empty test split (n_test > 0)");
        const serve::ServeResult sr = serve::simulate(
            *model, tt.test, serve_config(config, scenario.serve));
        outcome.serve_requests = sr.requests;
        outcome.serve_batches = sr.batches;
        outcome.throughput_rps = sr.throughput_rps;
        outcome.mean_batch = sr.mean_batch;
        outcome.p50_latency_s = sr.p50_latency_s;
        outcome.p99_latency_s = sr.p99_latency_s;
        outcome.p999_latency_s = sr.p999_latency_s;
        outcome.result.solver = scenario.solver;
        outcome.result.final_test_accuracy = sr.accuracy;
        outcome.result.total_sim_seconds = sr.total_sim_seconds;
        outcome.ok = true;
        write_trace();
        return outcome;
      }
      const SolverInfo& info =
          SolverRegistry::instance().info(scenario.solver);
      const data::DatasetKey key = dataset_key(config);
      // Distributed solvers run on pre-sharded data: zero-copy views of
      // the cached full dataset, or — for `libsvm:` sources — per-rank
      // shards streamed straight from the file so the full matrix never
      // materializes. Single-node solvers need the full splits, so they
      // keep the materialized path (a one-part plan).
      std::shared_ptr<const data::ShardedDataset> shared;
      data::ShardedDataset owned;
      if (info.kind == SolverKind::kSingleNode) {
        // Materialize (streamed shards carry no full matrix) and wrap in
        // a one-part plan to keep the uniform registry signature.
        const auto full = full_data(key);
        owned = data::make_sharded(full->train, &full->test, data::ShardPlan{});
      } else if (use_cache) {
        shared = provider->get_sharded(key, shard_plan(config));
      } else {
        owned = data::generate_sharded_dataset(key, shard_plan(config));
      }
      const data::ShardedDataset& sharded = shared ? *shared : owned;
      outcome.peak_dataset_bytes = sharded.resident_bytes;
      comm::SimCluster cluster = make_cluster(config);
      outcome.result = SolverRegistry::instance().run(scenario.solver, cluster,
                                                      sharded, config);
      if (!options.trace_dir.empty()) {
        write_trace_csv(outcome.result,
                        options.trace_dir + "/" + scenario.tag() + ".csv");
      }
      outcome.comm_sim_seconds = outcome.result.trace.empty()
                                     ? 0.0
                                     : outcome.result.trace.back()
                                           .comm_sim_seconds;
      outcome.max_wait_seconds = outcome.result.max_wait_seconds();
      outcome.rank_waits = fmt_rank_waits(outcome.result.rank_wait_seconds);
      outcome.staleness_hist =
          fmt_staleness_hist(outcome.result.staleness_hist);
      outcome.ok = true;
      write_trace();
    } catch (const std::exception& e) {
      outcome.ok = false;
      outcome.error = e.what();
    }
    return outcome;
  };

  auto worker = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= scenarios.size()) return;
      if (completed[i]) continue;
      if (options.max_scenarios > 0 &&
          claimed.fetch_add(1) >= options.max_scenarios) {
        return;
      }
      ScenarioOutcome outcome = run_one(scenarios[i]);
      {
        const std::scoped_lock lock(progress_mutex);
        report.outcomes[i] = std::move(outcome);
        ++report.executed;
        if (journal.is_open()) {
          journal << outcome_json(report.outcomes[i], /*journal=*/true) << '\n';
          journal.flush();
        }
        const std::size_t finished = done.fetch_add(1) + 1;
        if (options.on_scenario_done) {
          options.on_scenario_done(report.outcomes[i], finished, to_execute);
        }
      }
    }
  };

  const std::size_t pool_size = std::min<std::size_t>(
      static_cast<std::size_t>(options.jobs), to_execute > 0 ? to_execute : 1);
  if (pool_size <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(pool_size);
    for (std::size_t t = 0; t < pool_size; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  report.cache = provider->stats();
  return report;
}

}  // namespace nadmm::runner
