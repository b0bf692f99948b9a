// Declarative CLI option specs shared by every `nadmm` subcommand.
//
// An OptionSpec carries a flag's name, type, default, help line and a
// validator closure; an OptionSet is an ordered collection of specs that
// registers itself into a CliParser (which generates `--help` from it,
// in declaration order) and validates the parsed values up front — every
// rejection names the offending flag and echoes the bad value.
//
// ExperimentConfig's fields are declared once, in config_fields(), and
// the serving fields of serve::ServeConfig once, in serve_fields(): each
// entry binds a member pointer to the field's name, help line and
// validator, and says which commands take it as a flag. `nadmm run` and
// `nadmm serve` flags (config_options, config_from_flags), the sweep's
// scalar, fixed and serving keys and the validators of its axes
// (runner/sweep.cpp), the vocabularies `nadmm list` prints, and the
// solver-knob catalog (describe_knob, behind `nadmm list --json` and the
// README solver table) are all built from those tables, so none of them
// can drift from the others. Every spec-string validator is
// v_parses(parser) over the parser the run itself calls, so a flag or
// key accepts exactly the texts a run does.
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "runner/harness.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"

namespace nadmm::runner {

enum class OptType { kInt, kDouble, kString, kFlag };
std::string to_string(OptType type);

/// Checks a parsed textual value; throws InvalidArgument naming `flag`
/// (without the leading "--") when the value is out of domain.
using OptionValidator =
    std::function<void(const std::string& flag, const std::string& value)>;

struct OptionSpec {
  std::string name;  ///< flag name without the leading "--"
  OptType type = OptType::kString;
  std::string default_value;  ///< textual, as CliParser stores it
  std::string help;
  OptionValidator validator;  ///< optional domain check
};

/// Ordered, duplicate-free collection of OptionSpecs.
class OptionSet {
 public:
  /// Append one spec; throws InvalidArgument on a duplicate name.
  OptionSet& add(OptionSpec spec);
  OptionSet& add_int(const std::string& name, std::int64_t default_value,
                     const std::string& help, OptionValidator validator = {});
  OptionSet& add_string(const std::string& name,
                        const std::string& default_value,
                        const std::string& help,
                        OptionValidator validator = {});
  OptionSet& add_flag(const std::string& name, const std::string& help);

  /// Append every spec of `other` (duplicates throw).
  OptionSet& extend(const OptionSet& other);

  /// Register all specs into `cli` in declaration order (the order
  /// --help prints).
  void register_into(CliParser& cli) const;

  /// Run every validator against the text `cli` parsed. Throws
  /// InvalidArgument naming the first offending flag.
  void validate(const CliParser& cli) const;

  /// Spec by name, or nullptr when absent.
  [[nodiscard]] const OptionSpec* find(const std::string& name) const;

 private:
  std::vector<OptionSpec> specs_;
};

// ---------------------------------------------------------------------------
// Validator combinators and domain validators.
// ---------------------------------------------------------------------------

OptionValidator v_int_min(std::int64_t min);
OptionValidator v_double_min(double min, bool inclusive = true);
OptionValidator v_one_of(std::vector<std::string> allowed);
/// Apply `inner` to every (trimmed) element of a `sep`-separated list;
/// empty values pass (unset axis).
OptionValidator v_each(char sep, OptionValidator inner);

/// Accepts whatever `parse` accepts; its exception text is the reason.
/// Every spec grammar is checked this way, by the parser the run uses.
template <class Parse>
OptionValidator v_parses(Parse parse) {
  return [parse](const std::string& flag, const std::string& value) {
    try {
      static_cast<void>(parse(value));
    } catch (const std::exception& e) {
      reject_value(flag, value, e.what());
    }
  };
}

OptionValidator v_dataset();      ///< data::parse_dataset_source
OptionValidator v_device_list();  ///< la::device_list_from_string
/// la::device_from_string: exactly one device. `nadmm serve`, serving
/// sweeps and single-node solvers price one device, so they check
/// --device with this as well: a per-rank list passes v_device_list()
/// and would only fail once the run had started.
OptionValidator v_device();
OptionValidator v_network();      ///< comm::network_from_string
OptionValidator v_straggler();    ///< parse_straggler
OptionValidator v_penalty();      ///< core::penalty_rule_from_string
OptionValidator v_partition();    ///< data::partition_mode_from_string
OptionValidator v_fault();        ///< comm::FaultSpec::parse
OptionValidator v_kill();         ///< parse_kill
OptionValidator v_solver();       ///< registered solver name
OptionValidator v_arrival();      ///< serve::make_arrival
OptionValidator v_batch_policy(); ///< serve::make_batch_policy
OptionValidator v_byte_size();    ///< bytes with optional k/m/g suffix

/// `s` without leading and trailing spaces, tabs, CRs and LFs.
std::string trim(const std::string& s);
/// The trimmed elements of a `sep`-separated list, empty ones included
/// ("" has none).
std::vector<std::string> split_list(const std::string& value, char sep);
/// `v` at %g, the spelling --help prints defaults in.
std::string fmt_double(double v);

/// Parse "0", "1500000", "512m", "2g" (case-insensitive k/m/g suffix).
/// Throws InvalidArgument naming `flag` on malformed input.
std::size_t parse_byte_size(const std::string& flag, const std::string& value);

// ---------------------------------------------------------------------------
// Typed text: one spelling per C++ type, shared by the config field table,
// the sweep key table (spec values and the fingerprint) and the sweep
// column table (report cells and journal restores): strings verbatim,
// integers in decimal, bools as 1/0, doubles at %.17g — exact round
// trips, non-finite values included (from_chars reads inf/nan back).
// ---------------------------------------------------------------------------

inline std::string to_text(const std::string& v) { return v; }
std::string to_text(double v);
inline std::string to_text(bool v) { return v ? "1" : "0"; }
template <class T>
  requires std::is_integral_v<T>
std::string to_text(T v) {
  return std::to_string(v);
}

inline bool from_text(const std::string& text, std::string& out) {
  out = text;
  return true;
}
bool from_text(const std::string& text, bool& out);
template <class T>
  requires(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>)
bool from_text(const std::string& text, T& out) {
  return parse_number(text, out);
}

/// The T that `text` spells; malformed or out-of-range text is rejected
/// through reject_value, naming `flag`.
template <class T>
T parse_as(const std::string& flag, const std::string& text) {
  if constexpr (std::is_same_v<T, std::string>) {
    return text;
  } else if constexpr (std::is_same_v<T, bool>) {
    bool value = false;
    if (!from_text(text, value)) {
      reject_value(flag, text, "expected true|false");
    }
    return value;
  } else {
    return parse_number<T>(flag, text);
  }
}

/// Owner class and value type of a data-member pointer.
template <class>
struct Member;
template <class C, class T>
struct Member<T C::*> {
  using Owner = C;
  using Type = T;
};
template <auto F>
using OwnerOf = typename Member<decltype(F)>::Owner;
template <auto F>
using TypeOf = typename Member<decltype(F)>::Type;

// ---------------------------------------------------------------------------
// The field tables: ExperimentConfig and the serving part of
// serve::ServeConfig.
// ---------------------------------------------------------------------------

/// The commands that take a field as a flag (a bit set). Every config
/// field is part of the sweep fingerprint; which fields are sweep keys is
/// chosen in sweep.cpp's key table.
enum FlagOn : unsigned { kNoFlag = 0, kRun = 1u, kServe = 2u };

/// One field of Config. `spec.name` is the flag spelling ("n-train");
/// the sweep key swaps '-' for '_'. The type comes from the member
/// pointer, the default from Config{}.
template <class Config>
struct Field {
  OptionSpec spec;
  unsigned flag_on = kNoFlag;  ///< FlagOn bits
  /// Parse `text` into the field (numbers through parse_number: a value
  /// the member's type cannot hold is rejected, never wrapped); throws
  /// naming `flag`.
  void (*assign)(Config& config, const std::string& flag,
                 const std::string& text);
  /// The field's value in to_text spelling (the sweep fingerprint's).
  std::string (*text)(const Config& config);
  /// The member's address inside `config`: identifies the field.
  const void* (*address)(const Config& config);

  /// `n-train` -> `n_train`.
  [[nodiscard]] std::string key() const {
    std::string key = spec.name;
    std::replace(key.begin(), key.end(), '-', '_');
    return key;
  }
};
using ConfigField = Field<ExperimentConfig>;
using ServeField = Field<serve::ServeConfig>;

/// Every ExperimentConfig field, once, in `nadmm run --help` order.
const std::vector<ConfigField>& config_fields();
/// The serving fields of serve::ServeConfig (arrival, batch, requests,
/// dispatch overhead), once, in `nadmm serve --help` order. The rest of a
/// ServeConfig comes from the ExperimentConfig (serve_config).
const std::vector<ServeField>& serve_fields();

/// The field table of Config.
template <class Config>
const std::vector<Field<Config>>& fields_of() {
  if constexpr (std::is_same_v<Config, ExperimentConfig>) {
    return config_fields();
  } else {
    return serve_fields();
  }
}

/// The table entry of member F.
template <auto F>
const Field<OwnerOf<F>>& config_field() {
  using Config = OwnerOf<F>;
  static const Field<Config>& field = []() -> const Field<Config>& {
    static const Config probe{};
    const auto& fields = fields_of<Config>();
    const auto it = std::find_if(
        fields.begin(), fields.end(),
        [](const Field<Config>& f) { return f.address(probe) == &(probe.*F); });
    NADMM_ASSERT(it != fields.end());
    return *it;
  }();
  return field;
}

/// The fields `command` (kRun or kServe) takes as flags, in table order:
/// config fields, then (for kServe) the serving fields.
OptionSet config_options(FlagOn command);

/// The Config that `cli`'s flags describe: each table field `cli`
/// registered is parsed from its text, the rest keep Config{}. Malformed
/// or out-of-range text throws InvalidArgument naming the flag.
template <class Config = ExperimentConfig>
Config config_from_flags(const CliParser& cli) {
  Config config;
  for (const auto& f : fields_of<Config>()) {
    const std::string& name = f.spec.name;
    if (cli.has(name)) f.assign(config, name, cli.text(name));
  }
  return config;
}

// ---------------------------------------------------------------------------
// Solver-knob catalog (registry introspection).
// ---------------------------------------------------------------------------

/// The spec of a knob name the registry declares, from the config field
/// table so `nadmm list` cannot drift from the flags; throws
/// InvalidArgument on names that are not `nadmm run` config flags.
const OptionSpec& describe_knob(const std::string& name);

}  // namespace nadmm::runner
