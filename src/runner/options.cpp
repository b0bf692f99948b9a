#include "runner/options.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <stdexcept>

#include "comm/fault.hpp"
#include "comm/network_model.hpp"
#include "core/penalty.hpp"
#include "data/generators.hpp"
#include "data/partition.hpp"
#include "la/device.hpp"
#include "runner/harness.hpp"
#include "runner/registry.hpp"
#include "serve/arrival.hpp"
#include "serve/batching.hpp"
#include "support/check.hpp"

namespace nadmm::runner {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

std::string to_string(OptType type) {
  switch (type) {
    case OptType::kInt: return "int";
    case OptType::kDouble: return "double";
    case OptType::kString: return "string";
    case OptType::kFlag: return "flag";
  }
  return "?";
}

OptionSet& OptionSet::add(OptionSpec spec) {
  NADMM_CHECK(!spec.name.empty(), "option spec needs a name");
  NADMM_CHECK(find(spec.name) == nullptr,
              "option --" + spec.name + " specified twice");
  specs_.push_back(std::move(spec));
  return *this;
}

OptionSet& OptionSet::add_int(const std::string& name,
                              std::int64_t default_value,
                              const std::string& help,
                              OptionValidator validator) {
  return add({name, OptType::kInt, std::to_string(default_value), help,
              std::move(validator)});
}

OptionSet& OptionSet::add_string(const std::string& name,
                                 const std::string& default_value,
                                 const std::string& help,
                                 OptionValidator validator) {
  return add(
      {name, OptType::kString, default_value, help, std::move(validator)});
}

OptionSet& OptionSet::add_flag(const std::string& name,
                               const std::string& help) {
  return add({name, OptType::kFlag, "false", help, {}});
}

OptionSet& OptionSet::extend(const OptionSet& other) {
  for (const auto& spec : other.specs_) add(spec);
  return *this;
}

void OptionSet::register_into(CliParser& cli) const {
  for (const auto& spec : specs_) {
    switch (spec.type) {
      case OptType::kInt:
        cli.add_int(spec.name,
                    parse_number<std::int64_t>(spec.name, spec.default_value),
                    spec.help);
        break;
      case OptType::kDouble:
        cli.add_double(spec.name,
                       parse_number<double>(spec.name, spec.default_value),
                       spec.help);
        break;
      case OptType::kString:
        cli.add_string(spec.name, spec.default_value, spec.help);
        break;
      case OptType::kFlag:
        cli.add_flag(spec.name, spec.help);
        break;
    }
  }
}

void OptionSet::validate(const CliParser& cli) const {
  for (const auto& spec : specs_) {
    if (spec.validator) spec.validator(spec.name, cli.text(spec.name));
  }
}

const OptionSpec* OptionSet::find(const std::string& name) const {
  const auto it = std::find_if(
      specs_.begin(), specs_.end(),
      [&](const OptionSpec& spec) { return spec.name == name; });
  return it == specs_.end() ? nullptr : &*it;
}

// ---------------------------------------------------------------------------
// Validators.
// ---------------------------------------------------------------------------

OptionValidator v_int_min(std::int64_t min) {
  return [min](const std::string& flag, const std::string& value) {
    if (parse_number<std::int64_t>(flag, value) < min) {
      reject_value(flag, value, "must be >= " + std::to_string(min));
    }
  };
}

OptionValidator v_double_min(double min, bool inclusive) {
  return [min, inclusive](const std::string& flag, const std::string& value) {
    const double v = parse_number<double>(flag, value);
    if (inclusive ? v < min : v <= min) {
      reject_value(flag, value,
                   std::string("must be ") + (inclusive ? ">= " : "> ") +
                       fmt_double(min));
    }
  };
}

OptionValidator v_one_of(std::vector<std::string> allowed) {
  std::string expected;
  for (const auto& a : allowed) {
    if (!expected.empty()) expected += '|';
    expected += a;
  }
  return [allowed = std::move(allowed), expected = std::move(expected)](
             const std::string& flag, const std::string& value) {
    if (std::find(allowed.begin(), allowed.end(), value) == allowed.end()) {
      reject_value(flag, value, "expected " + expected);
    }
  };
}

std::vector<std::string> split_list(const std::string& value, char sep) {
  std::vector<std::string> out;
  if (value.empty()) return out;
  std::size_t begin = 0;
  for (std::size_t end; (end = value.find(sep, begin)) != std::string::npos;
       begin = end + 1) {
    out.push_back(trim(value.substr(begin, end - begin)));
  }
  out.push_back(trim(value.substr(begin)));
  return out;
}

OptionValidator v_each(char sep, OptionValidator inner) {
  return [sep, inner = std::move(inner)](const std::string& flag,
                                         const std::string& value) {
    for (const auto& token : split_list(value, sep)) {
      if (token.empty()) reject_value(flag, value, "empty list element");
      inner(flag, token);
    }
  };
}

OptionValidator v_dataset() { return v_parses(data::parse_dataset_source); }

OptionValidator v_device_list() {
  return v_parses(la::device_list_from_string);
}

OptionValidator v_device() {
  return [parses = v_parses(la::device_from_string)](
             const std::string& flag, const std::string& value) {
    if (value.find_first_of(",+") != std::string::npos) {
      reject_value(flag, value,
                   "this run prices one device; a ','/'+' list rates the "
                   "ranks of a distributed solver");
    }
    parses(flag, value);
  };
}

OptionValidator v_network() { return v_parses(comm::network_from_string); }

OptionValidator v_straggler() { return v_parses(parse_straggler); }

OptionValidator v_penalty() {
  return v_parses(core::penalty_rule_from_string);
}

OptionValidator v_partition() {
  return v_parses(data::partition_mode_from_string);
}

OptionValidator v_fault() { return v_parses(comm::FaultSpec::parse); }

OptionValidator v_kill() { return v_parses(parse_kill); }

OptionValidator v_solver() {
  return v_parses([](const std::string& v) {
    static_cast<void>(SolverRegistry::instance().info(v));
  });
}

OptionValidator v_arrival() { return v_parses(serve::make_arrival); }

OptionValidator v_batch_policy() { return v_parses(serve::make_batch_policy); }

OptionValidator v_byte_size() {
  return [](const std::string& flag, const std::string& value) {
    static_cast<void>(parse_byte_size(flag, value));
  };
}

std::size_t parse_byte_size(const std::string& flag,
                            const std::string& value) {
  std::size_t multiplier = 1;
  std::string digits = value;
  switch (digits.empty() ? '\0' : digits.back()) {
    case 'k': case 'K': multiplier = 1ull << 10; digits.pop_back(); break;
    case 'm': case 'M': multiplier = 1ull << 20; digits.pop_back(); break;
    case 'g': case 'G': multiplier = 1ull << 30; digits.pop_back(); break;
    default: break;
  }
  std::size_t v = 0;
  if (!parse_number(digits, v) || v > SIZE_MAX / multiplier) {
    reject_value(flag, value, "expected bytes with optional k/m/g suffix");
  }
  return v * multiplier;
}

// ---------------------------------------------------------------------------
// Typed text.
// ---------------------------------------------------------------------------

std::string to_text(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool from_text(const std::string& text, bool& out) {
  out = text == "true" || text == "1";
  return out || text == "false" || text == "0";
}

// ---------------------------------------------------------------------------
// The field tables.
// ---------------------------------------------------------------------------

namespace {

/// Table entry for member F: its flag `name`, `help` line and
/// `validator`, taken as a flag by the `flag_on` commands.
template <auto F>
Field<OwnerOf<F>> field(std::string name, std::string help,
                        OptionValidator validator = {},
                        unsigned flag_on = kRun) {
  using Config = OwnerOf<F>;
  using T = TypeOf<F>;
  const T value = Config{}.*F;
  OptionSpec spec{std::move(name), OptType::kString, to_text(value),
                  std::move(help), std::move(validator)};
  if constexpr (std::is_same_v<T, bool>) {
    spec.type = OptType::kFlag;
  } else if constexpr (std::is_integral_v<T>) {
    spec.type = OptType::kInt;
  } else if constexpr (std::is_floating_point_v<T>) {
    spec.type = OptType::kDouble;
    spec.default_value = fmt_double(value);  // as CliParser prints it
  }
  return {std::move(spec), flag_on,
          [](Config& c, const std::string& flag, const std::string& text) {
            c.*F = parse_as<T>(flag, text);
          },
          [](const Config& c) { return to_text(c.*F); },
          [](const Config& c) -> const void* { return &(c.*F); }};
}

/// A field no command takes as a flag (the sweep fingerprints it).
template <auto F>
ConfigField unflagged(std::string name) {
  return field<F>(std::move(name), "", {}, kNoFlag);
}

}  // namespace

const std::vector<ConfigField>& config_fields() {
  using C = ExperimentConfig;
  static const std::vector<ConfigField> fields = {
      field<&C::dataset>("dataset",
                         "higgs|mnist|cifar|e18|blobs (synthetic, "
                         "paper-shaped) | libsvm:<path> (streamed from disk "
                         "as row shards)",
                         v_dataset(), kRun | kServe),
      field<&C::n_train>("n-train", "training samples", v_int_min(1),
                         kRun | kServe),
      field<&C::n_test>("n-test", "test samples", v_int_min(0),
                        kRun | kServe),
      field<&C::e18_features>("e18-features", "feature dim for e18/blobs",
                              v_int_min(1), kRun | kServe),
      field<&C::seed>("seed", "dataset generator seed", v_int_min(0),
                      kRun | kServe),
      field<&C::workers>("workers", "simulated cluster size", v_int_min(1)),
      field<&C::device>("device",
                        "device model (p100|cpu|<gflops>[:<gbytes_per_s>]); "
                        "a ','/'+'-separated list cycles over the ranks "
                        "(\"p100+cpu\": even ranks p100, odd ranks cpu)",
                        v_device_list(), kRun | kServe),
      field<&C::network>("network",
                         "network model (ib100|eth10|eth1|wan|ideal)",
                         v_network(), kRun | kServe),
      field<&C::penalty>("penalty", "ADMM penalty rule (fixed|rb|sps)",
                         v_penalty()),
      field<&C::lambda>("lambda", "l2 regularization", v_double_min(0.0)),
      field<&C::rho0>("rho0", "initial ADMM penalty rho_0",
                      v_double_min(0.0, /*inclusive=*/false)),
      field<&C::straggler>(
          "straggler", "inject a straggler: <rank>:<slowdown> (none disables)",
          v_straggler()),
      field<&C::partition>("partition",
                           "shard plan across ranks: contiguous (zero-copy "
                           "views) | strided (label balance; copied shards) "
                           "| weighted (contiguous, sized by per-rank device "
                           "gflops)",
                           v_partition()),
      field<&C::iterations>("iterations", "outer iterations (epochs)",
                            v_int_min(1)),
      field<&C::cg_iterations>("cg-iterations", "CG budget per Newton step",
                               v_int_min(1)),
      field<&C::cg_tol>("cg-tol", "CG relative tolerance",
                        v_double_min(0.0, /*inclusive=*/false)),
      field<&C::line_search_iterations>("line-search-iterations",
                                        "line-search iteration budget",
                                        v_int_min(1)),
      unflagged<&C::local_newton_steps>("local-newton-steps"),
      field<&C::objective_target>(
          "objective-target", "stop once F(z) <= target (<= 0 disables)"),
      unflagged<&C::evaluate_accuracy>("evaluate-accuracy"),
      field<&C::staleness>("staleness",
                           "async-admm bounded-staleness (rounds)",
                           v_int_min(1)),
      field<&C::sync_every>("sync-every",
                            "stale-sync-admm barrier period (rounds)",
                            v_int_min(1)),
      field<&C::fault>("fault",
                       "async-engine link faults: none or "
                       "drop:<p>[,dup:<p>][,reorder:<p>][,corrupt:<p>]",
                       v_fault()),
      field<&C::kill>("kill",
                      "kill a rank after an epoch and rejoin it from the "
                      "last checkpoint: <rank>:<epoch> (none disables; "
                      "needs --checkpoint-every > 0)",
                      v_kill()),
      field<&C::checkpoint_every>(
          "checkpoint-every",
          "coordinator checkpoint period in applied updates (0 = off)",
          v_int_min(0)),
      field<&C::sgd_batch>("sgd-batch", "sync-sgd minibatch size",
                           v_int_min(1)),
      field<&C::sgd_step>("sgd-step", "sync-sgd step size",
                          v_double_min(0.0, /*inclusive=*/false)),
      field<&C::dane_epochs>("dane-epochs", "InexactDANE/AIDE epoch cap",
                             v_int_min(1)),
      field<&C::svrg_outer>("svrg-outer", "DANE inner SVRG budget",
                            v_int_min(1)),
      field<&C::fo_step>("fo-step",
                         "single-node first-order step size (0 = rule "
                         "default)",
                         v_double_min(0.0)),
      field<&C::gradient_tol>(
          "gradient-tol",
          "single-node gradient-norm stop (< 0 = solver default)"),
      field<&C::omp_threads>("omp-threads",
                             "OpenMP threads per rank (0 = auto)",
                             v_int_min(0), kRun | kServe),
  };
  return fields;
}

const std::vector<ServeField>& serve_fields() {
  using S = serve::ServeConfig;
  static const std::vector<ServeField> fields = {
      field<&S::arrival>("arrival",
                         "arrival model: poisson[:<rate>] | "
                         "diurnal[:<mean>[:<amp>[:<period>]]] | "
                         "bursty[:<base>[:<burst>[:<period>[:<duty>]]]]",
                         v_arrival(), kServe),
      field<&S::batch>("batch",
                       "batch policy: immediate | size:<B> | "
                       "deadline:<B>:<seconds>",
                       v_batch_policy(), kServe),
      field<&S::requests>("requests", "synthetic requests to serve",
                          v_int_min(0), kServe),
      field<&S::dispatch_overhead_s>(
          "dispatch-overhead",
          "fixed per-dispatch cost in seconds (kernel launch + result "
          "framing); the term batching amortizes",
          v_double_min(0.0), kServe),
  };
  return fields;
}

OptionSet config_options(FlagOn command) {
  OptionSet set;
  const auto add = [&](const auto& fields) {
    for (const auto& f : fields) {
      if ((f.flag_on & command) != 0) set.add(f.spec);
    }
  };
  add(config_fields());
  add(serve_fields());
  return set;
}

// ---------------------------------------------------------------------------
// Solver-knob catalog.
// ---------------------------------------------------------------------------

const OptionSpec& describe_knob(const std::string& name) {
  for (const auto& f : config_fields()) {
    if (f.spec.name == name && (f.flag_on & kRun) != 0) return f.spec;
  }
  throw InvalidArgument("solver knob '" + name +
                        "' is not a `nadmm run` config flag — declare it in "
                        "runner::config_fields()");
}

}  // namespace nadmm::runner
