// Tiny command-line option parser used by the nadmm CLI, benches and examples.
//
// Supports `--name value`, `--name=value`, and boolean flags `--name`.
// Every option must be registered with a default and a help string;
// `--help` prints the registry and exits.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace nadmm {

class CliParser {
 public:
  /// `program_summary` is printed at the top of --help output.
  explicit CliParser(std::string program_summary);

  /// Register options. Call before parse(). Returns *this for chaining.
  CliParser& add_int(const std::string& name, std::int64_t default_value,
                     const std::string& help);
  CliParser& add_double(const std::string& name, double default_value,
                        const std::string& help);
  CliParser& add_string(const std::string& name, const std::string& default_value,
                        const std::string& help);
  CliParser& add_flag(const std::string& name, const std::string& help);

  /// Parse argv. Throws nadmm::InvalidArgument on unknown options or
  /// malformed values. If `--help` is present, prints usage and returns
  /// false (caller should exit 0).
  bool parse(int argc, const char* const* argv);

  /// Typed accessors. Empty or out-of-range text throws
  /// nadmm::InvalidArgument naming the option and echoing its text.
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  /// get_int narrowed to the field type T: a value T cannot hold throws
  /// like get_int does instead of wrapping.
  template <class T>
  [[nodiscard]] T get_int_as(const std::string& name) const {
    const std::int64_t v = get_int(name);
    if (!std::in_range<T>(v)) {
      reject_int(name, std::to_string(std::numeric_limits<T>::min()),
                 std::to_string(std::numeric_limits<T>::max()));
    }
    return static_cast<T>(v);
  }
  [[nodiscard]] const std::string& get_string(const std::string& name) const;
  [[nodiscard]] bool get_flag(const std::string& name) const;

  /// Positional arguments (anything not starting with --).
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  enum class Kind { kInt, kDouble, kString, kFlag };
  struct Option {
    Kind kind;
    std::string value;  // textual; parsed on demand
    std::string default_value;
    std::string help;
    bool seen = false;
  };

  void print_help(const std::string& program) const;
  [[noreturn]] void reject_int(const std::string& name, const std::string& lo,
                               const std::string& hi) const;
  void insert(const std::string& name, Option opt);
  Option& find(const std::string& name, Kind kind);
  const Option& find(const std::string& name, Kind kind) const;

  std::string summary_;
  std::map<std::string, Option> options_;
  std::vector<std::string> order_;  // registration order, for --help
  std::vector<std::string> positional_;
};

}  // namespace nadmm
