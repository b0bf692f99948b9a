#include "runner/options.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <stdexcept>

#include "comm/fault.hpp"
#include "comm/network_model.hpp"
#include "la/device.hpp"
#include "runner/harness.hpp"
#include "runner/registry.hpp"
#include "serve/arrival.hpp"
#include "serve/batching.hpp"
#include "support/check.hpp"

namespace nadmm::runner {

namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

[[noreturn]] void reject(const std::string& flag, const std::string& value,
                         const std::string& why) {
  throw InvalidArgument("--" + flag + ": invalid value '" + value + "' (" +
                        why + ")");
}

std::int64_t parse_int(const std::string& flag, const std::string& value) {
  try {
    std::size_t pos = 0;
    const std::int64_t v = std::stoll(value, &pos);
    if (pos != value.size()) reject(flag, value, "expected an integer");
    return v;
  } catch (const InvalidArgument&) {
    throw;
  } catch (const std::exception&) {
    reject(flag, value, "expected an integer");
  }
}

double parse_double(const std::string& flag, const std::string& value) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(value, &pos);
    if (pos != value.size()) reject(flag, value, "expected a number");
    return v;
  } catch (const InvalidArgument&) {
    throw;
  } catch (const std::exception&) {
    reject(flag, value, "expected a number");
  }
}

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

}  // namespace

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

OptionSet& OptionSet::add_double(const std::string& name, double default_value,
                                 const std::string& help,
                                 OptionValidator validator) {
  return add({name, OptType::kDouble, fmt_double(default_value), help,
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
        cli.add_int(spec.name, parse_int(spec.name, spec.default_value),
                    spec.help);
        break;
      case OptType::kDouble:
        cli.add_double(spec.name, parse_double(spec.name, spec.default_value),
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
    if (!spec.validator) continue;
    std::string value;
    switch (spec.type) {
      case OptType::kInt:
        value = std::to_string(cli.get_int(spec.name));
        break;
      case OptType::kDouble:
        value = fmt_double(cli.get_double(spec.name));
        break;
      case OptType::kString:
        value = cli.get_string(spec.name);
        break;
      case OptType::kFlag:
        value = cli.get_flag(spec.name) ? "true" : "false";
        break;
    }
    spec.validator(spec.name, value);
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
    if (parse_int(flag, value) < min) {
      reject(flag, value, "must be >= " + std::to_string(min));
    }
  };
}

OptionValidator v_double_min(double min, bool inclusive) {
  return [min, inclusive](const std::string& flag, const std::string& value) {
    const double v = parse_double(flag, value);
    if (inclusive ? v < min : v <= min) {
      reject(flag, value,
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
      reject(flag, value, "expected " + expected);
    }
  };
}

OptionValidator v_each(char sep, OptionValidator inner) {
  return [sep, inner = std::move(inner)](const std::string& flag,
                                         const std::string& value) {
    if (value.empty()) return;
    std::size_t begin = 0;
    while (begin <= value.size()) {
      const auto end = value.find(sep, begin);
      const std::string token =
          trim(value.substr(begin, end == std::string::npos ? std::string::npos
                                                            : end - begin));
      if (token.empty()) reject(flag, value, "empty list element");
      inner(flag, token);
      if (end == std::string::npos) break;
      begin = end + 1;
    }
  };
}

OptionValidator v_dataset() {
  return [](const std::string& flag, const std::string& value) {
    static const std::vector<std::string> kNamed = {"higgs", "mnist", "cifar",
                                                    "e18", "blobs"};
    if (value.rfind("libsvm:", 0) == 0) {
      if (value.size() == 7) reject(flag, value, "libsvm: needs a path");
      return;
    }
    if (std::find(kNamed.begin(), kNamed.end(), value) == kNamed.end()) {
      reject(flag, value, "expected higgs|mnist|cifar|e18|blobs|libsvm:<path>");
    }
  };
}

OptionValidator v_device_list() {
  return [](const std::string& flag, const std::string& value) {
    if (value.empty()) return;  // unset alias
    std::size_t begin = 0;
    while (begin <= value.size()) {
      const auto end = value.find_first_of(",+", begin);
      const std::string token =
          trim(value.substr(begin, end == std::string::npos ? std::string::npos
                                                            : end - begin));
      if (token.empty()) reject(flag, value, "empty device entry");
      try {
        static_cast<void>(la::device_from_string(token));
      } catch (const std::exception& e) {
        reject(flag, value, e.what());
      }
      if (end == std::string::npos) break;
      begin = end + 1;
    }
  };
}

OptionValidator v_network() {
  return [](const std::string& flag, const std::string& value) {
    try {
      static_cast<void>(comm::network_from_string(value));
    } catch (const std::exception& e) {
      reject(flag, value, e.what());
    }
  };
}

OptionValidator v_straggler() {
  return [](const std::string& flag, const std::string& value) {
    if (value == "none") return;
    const auto colon = value.find(':');
    if (colon == std::string::npos) {
      reject(flag, value, "expected none or <rank>:<slowdown>");
    }
    const std::int64_t rank = parse_int(flag, value.substr(0, colon));
    const double slowdown = parse_double(flag, value.substr(colon + 1));
    if (rank < 0) reject(flag, value, "rank must be >= 0");
    if (slowdown < 1.0) reject(flag, value, "slowdown must be >= 1");
  };
}

OptionValidator v_partition() {
  return v_one_of({"contiguous", "strided", "weighted"});
}

OptionValidator v_fault() {
  return [](const std::string& flag, const std::string& value) {
    try {
      static_cast<void>(comm::FaultSpec::parse(value));
    } catch (const std::exception& e) {
      reject(flag, value, e.what());
    }
  };
}

OptionValidator v_kill() {
  return [](const std::string& flag, const std::string& value) {
    if (value == "none") return;
    const auto colon = value.find(':');
    if (colon == std::string::npos) {
      reject(flag, value, "expected none or <rank>:<epoch>");
    }
    const std::int64_t rank = parse_int(flag, value.substr(0, colon));
    const std::int64_t epoch = parse_int(flag, value.substr(colon + 1));
    if (rank < 0) reject(flag, value, "rank must be >= 0");
    if (epoch < 1) reject(flag, value, "epoch must be >= 1");
  };
}

OptionValidator v_solver() {
  return [](const std::string& flag, const std::string& value) {
    try {
      static_cast<void>(SolverRegistry::instance().info(value));
    } catch (const std::exception& e) {
      reject(flag, value, e.what());
    }
  };
}

OptionValidator v_arrival() {
  return [](const std::string& flag, const std::string& value) {
    try {
      static_cast<void>(serve::make_arrival(value));
    } catch (const std::exception& e) {
      reject(flag, value, e.what());
    }
  };
}

OptionValidator v_batch_policy() {
  return [](const std::string& flag, const std::string& value) {
    try {
      static_cast<void>(serve::make_batch_policy(value));
    } catch (const std::exception& e) {
      reject(flag, value, e.what());
    }
  };
}

OptionValidator v_byte_size() {
  return [](const std::string& flag, const std::string& value) {
    static_cast<void>(parse_byte_size(flag, value));
  };
}

std::size_t parse_byte_size(const std::string& flag,
                            const std::string& value) {
  if (value.empty()) reject(flag, value, "must not be empty");
  // stoull would silently wrap "-1" to 2^64−1.
  if (value.find('-') != std::string::npos) {
    reject(flag, value, "must be non-negative");
  }
  std::size_t multiplier = 1;
  std::string digits = value;
  switch (digits.back()) {
    case 'k': case 'K': multiplier = 1ull << 10; digits.pop_back(); break;
    case 'm': case 'M': multiplier = 1ull << 20; digits.pop_back(); break;
    case 'g': case 'G': multiplier = 1ull << 30; digits.pop_back(); break;
    default: break;
  }
  try {
    std::size_t pos = 0;
    const auto v = std::stoull(digits, &pos);
    NADMM_CHECK(pos == digits.size(), "trailing characters");
    NADMM_CHECK(v <= SIZE_MAX / multiplier, "size overflows");
    return v * multiplier;
  } catch (const std::exception&) {
    reject(flag, value, "expected bytes with optional k/m/g suffix");
  }
}

// ---------------------------------------------------------------------------
// Shared option tables.
// ---------------------------------------------------------------------------

const OptionSet& scenario_options() {
  static const OptionSet specs = [] {
    OptionSet s;
    s.add_string("dataset", "blobs",
                 "higgs|mnist|cifar|e18|blobs|libsvm:<path>", v_dataset());
    s.add_int("n-train", 8000, "training samples", v_int_min(1));
    s.add_int("n-test", 2000, "test samples", v_int_min(0));
    s.add_int("e18-features", 1400, "feature dim for e18/blobs", v_int_min(1));
    s.add_int("seed", 42, "dataset generator seed", v_int_min(0));
    s.add_int("workers", 8, "simulated cluster size", v_int_min(1));
    s.add_string("device", "p100",
                 "device model (p100|cpu|<gflops>[:<gbytes_per_s>]); a "
                 "','/'+'-separated list rates ranks individually",
                 v_device_list());
    s.add_string("devices", "",
                 "per-rank device list (alias for --device, matching the "
                 "sweep axis name)",
                 v_device_list());
    s.add_string("network", "ib100",
                 "network model (ib100|eth10|eth1|wan|ideal)", v_network());
    s.add_string("penalty", "sps", "ADMM penalty rule (fixed|rb|sps)",
                 v_one_of({"fixed", "rb", "sps"}));
    s.add_double("lambda", 1e-5, "l2 regularization", v_double_min(0.0));
    s.add_double("rho0", 1.0, "initial ADMM penalty rho_0",
                 v_double_min(0.0, /*inclusive=*/false));
    s.add_string("straggler", "none",
                 "inject a straggler: <rank>:<slowdown> (none disables)",
                 v_straggler());
    s.add_string("partition", "contiguous",
                 "shard plan across ranks: contiguous|strided|weighted "
                 "(weighted sizes shards by per-rank device gflops)",
                 v_partition());
    s.add_int("iterations", 100, "outer iterations (epochs)", v_int_min(1));
    s.add_int("cg-iterations", 10, "CG budget per Newton step", v_int_min(1));
    s.add_double("cg-tol", 1e-4, "CG relative tolerance",
                 v_double_min(0.0, /*inclusive=*/false));
    s.add_int("line-search", 10, "line-search iteration budget", v_int_min(1));
    s.add_double("objective-target", 0.0,
                 "stop once F(z) <= target (<= 0 disables)");
    s.add_int("staleness", 4, "async-admm bounded-staleness (rounds)",
              v_int_min(1));
    s.add_int("sync-every", 4, "stale-sync-admm barrier period (rounds)",
              v_int_min(1));
    s.add_string("fault", "none",
                 "async-engine link faults: none or "
                 "drop:<p>[,dup:<p>][,reorder:<p>][,corrupt:<p>]",
                 v_fault());
    s.add_string("kill", "none",
                 "kill a rank after an epoch and rejoin it from the last "
                 "checkpoint: <rank>:<epoch> (none disables; needs "
                 "--checkpoint-every > 0)",
                 v_kill());
    s.add_int("checkpoint-every", 0,
              "coordinator checkpoint period in applied updates (0 = off)",
              v_int_min(0));
    s.add_int("sgd-batch", 128, "sync-sgd minibatch size", v_int_min(1));
    s.add_double("sgd-step", 0.1, "sync-sgd step size",
                 v_double_min(0.0, /*inclusive=*/false));
    s.add_int("dane-epochs", 10, "InexactDANE/AIDE epoch cap", v_int_min(1));
    s.add_int("svrg-outer", 10, "DANE inner SVRG budget", v_int_min(1));
    s.add_double("fo-step", 0.0,
                 "single-node first-order step size (0 = rule default)",
                 v_double_min(0.0));
    s.add_double("gradient-tol", -1.0,
                 "single-node gradient-norm stop (< 0 = solver default)");
    s.add_int("omp-threads", 0, "OpenMP threads per rank (0 = auto)",
              v_int_min(0));
    return s;
  }();
  return specs;
}

ExperimentConfig config_from_cli(const CliParser& cli) {
  ExperimentConfig c;
  c.dataset = cli.get_string("dataset");
  c.n_train = cli.get_int_as<std::size_t>("n-train");
  c.n_test = cli.get_int_as<std::size_t>("n-test");
  c.e18_features = cli.get_int_as<std::size_t>("e18-features");
  c.seed = cli.get_int_as<std::uint64_t>("seed");
  c.workers = cli.get_int_as<int>("workers");
  c.device = cli.get_string("devices").empty() ? cli.get_string("device")
                                               : cli.get_string("devices");
  c.network = cli.get_string("network");
  c.penalty = cli.get_string("penalty");
  c.lambda = cli.get_double("lambda");
  c.rho0 = cli.get_double("rho0");
  c.straggler = cli.get_string("straggler");
  c.partition = cli.get_string("partition");
  c.iterations = cli.get_int_as<int>("iterations");
  c.cg_iterations = cli.get_int_as<int>("cg-iterations");
  c.cg_tol = cli.get_double("cg-tol");
  c.line_search_iterations = cli.get_int_as<int>("line-search");
  c.objective_target = cli.get_double("objective-target");
  c.staleness = cli.get_int_as<int>("staleness");
  c.sync_every = cli.get_int_as<int>("sync-every");
  c.fault = cli.get_string("fault");
  c.kill = cli.get_string("kill");
  c.checkpoint_every = cli.get_int_as<int>("checkpoint-every");
  c.sgd_batch = cli.get_int_as<std::size_t>("sgd-batch");
  c.sgd_step = cli.get_double("sgd-step");
  c.dane_epochs = cli.get_int_as<int>("dane-epochs");
  c.svrg_outer = cli.get_int_as<int>("svrg-outer");
  c.fo_step = cli.get_double("fo-step");
  c.gradient_tol = cli.get_double("gradient-tol");
  c.omp_threads = cli.get_int_as<int>("omp-threads");
  return c;
}

const OptionSet& serving_options() {
  static const OptionSet specs = [] {
    OptionSet s;
    s.add_string("arrival", "poisson:1000",
                 "arrival model: poisson[:<rate>] | "
                 "diurnal[:<mean>[:<amp>[:<period>]]] | "
                 "bursty[:<base>[:<burst>[:<period>[:<duty>]]]]",
                 v_arrival());
    s.add_string("batch", "immediate",
                 "batch policy: immediate | size:<B> | deadline:<B>:<seconds>",
                 v_batch_policy());
    s.add_int("requests", 10000, "synthetic requests to serve", v_int_min(0));
    s.add_double("dispatch-overhead", 1e-4,
                 "fixed per-dispatch cost in seconds (kernel launch + result "
                 "framing); the term batching amortizes",
                 v_double_min(0.0));
    return s;
  }();
  return specs;
}

// ---------------------------------------------------------------------------
// Solver-knob catalog.
// ---------------------------------------------------------------------------

KnobInfo describe_knob(const std::string& name) {
  const OptionSpec* spec = scenario_options().find(name);
  if (spec == nullptr) spec = serving_options().find(name);
  NADMM_CHECK(spec != nullptr,
              "solver knob '" + name +
                  "' is not a registered CLI option — add it to "
                  "runner::scenario_options()");
  return {spec->name, to_string(spec->type), spec->default_value, spec->help};
}

}  // namespace nadmm::runner
