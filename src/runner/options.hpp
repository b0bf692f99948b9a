// Declarative CLI option specs shared by every `nadmm` subcommand.
//
// Before this header, each subcommand hand-registered its flags against
// CliParser and validated values ad hoc (or not at all), so run/sweep
// drifted apart and a malformed `--device` surfaced deep inside the
// harness with no flag name attached. An OptionSpec carries the flag's
// name, type, default, help line, and a validator closure; an OptionSet
// is an ordered collection of specs that registers itself into a
// CliParser (which generates `--help` from it, in declaration order) and
// validates the parsed values up front — every rejection names the
// offending flag and echoes the bad value.
//
// The same spec table doubles as the solver-knob catalog: the registry's
// per-solver knob names resolve to typed KnobInfo entries here, so
// `nadmm list --json` and the generated README solver table cannot
// drift from what the flags actually accept.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "support/cli.hpp"

namespace nadmm::runner {

struct ExperimentConfig;  // runner/harness.hpp

enum class OptType { kInt, kDouble, kString, kFlag };
std::string to_string(OptType type);

/// Checks a parsed textual value; throws InvalidArgument naming `flag`
/// (already "--"-prefixed) when the value is out of domain.
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
  OptionSet& add_double(const std::string& name, double default_value,
                        const std::string& help,
                        OptionValidator validator = {});
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

  /// Run every validator against the values `cli` parsed. Throws
  /// InvalidArgument naming the first offending flag.
  void validate(const CliParser& cli) const;

  [[nodiscard]] const std::vector<OptionSpec>& specs() const { return specs_; }
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

OptionValidator v_dataset();      ///< named dataset or libsvm:<path>
OptionValidator v_device_list();  ///< ','/'+'-separated device specs
OptionValidator v_network();      ///< comm::network_from_string presets
OptionValidator v_straggler();    ///< "none" or <rank>:<slowdown>
OptionValidator v_partition();    ///< contiguous|strided|weighted
OptionValidator v_fault();        ///< "none" or comm::FaultSpec::parse spec
OptionValidator v_kill();         ///< "none" or <rank>:<epoch>
OptionValidator v_solver();       ///< registered solver name
OptionValidator v_arrival();      ///< serve/arrival.hpp spec
OptionValidator v_batch_policy(); ///< serve/batching.hpp spec
OptionValidator v_byte_size();    ///< bytes with optional k/m/g suffix

/// Parse "0", "1500000", "512m", "2g" (case-insensitive k/m/g suffix).
/// Throws InvalidArgument naming `flag` on malformed input.
std::size_t parse_byte_size(const std::string& flag, const std::string& value);

// ---------------------------------------------------------------------------
// Shared option tables.
// ---------------------------------------------------------------------------

/// The scenario surface shared by `nadmm run` and (as scalar overrides)
/// `nadmm sweep`: dataset shape, cluster, solver knobs.
const OptionSet& scenario_options();

/// The ExperimentConfig that `cli`'s scenario_options() flags describe.
/// Integer flags outside their field's range throw InvalidArgument
/// naming the flag, never narrow.
ExperimentConfig config_from_cli(const CliParser& cli);

/// The serving-scenario surface shared by `nadmm serve` and the sweep's
/// serving mode: arrival/batch specs, request count, dispatch overhead.
const OptionSet& serving_options();

// ---------------------------------------------------------------------------
// Solver-knob catalog (registry introspection).
// ---------------------------------------------------------------------------

/// One solver knob with its CLI type/default/description — resolved from
/// the shared option tables so `nadmm list` cannot drift from the flags.
struct KnobInfo {
  std::string name;
  std::string type;  ///< "int" | "double" | "string" | "flag"
  std::string default_value;
  std::string description;
};

/// KnobInfo for a knob name the registry declares; throws
/// InvalidArgument on names no option table defines.
KnobInfo describe_knob(const std::string& name);

}  // namespace nadmm::runner
