// Tiny command-line option parser used by the nadmm CLI and the benches.
//
// Supports `--name value`, `--name=value`, and boolean flags `--name`.
// Every option must be registered with a default and a help string;
// `--help` prints the registry and exits. Any other argument is an error:
// no command reads positional arguments.
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace nadmm {

/// Throw InvalidArgument "--<flag>: invalid value '<text>' (<why>)" — the
/// one rejection format of every flag and spec key.
[[noreturn]] void reject_value(const std::string& flag, const std::string& text,
                               const std::string& why);

/// Parse all of `text` as a T with std::from_chars — the one number parser
/// behind flags, spec keys and journals. False on empty text, a leading
/// '+' or whitespace, trailing characters, or a value T cannot hold.
template <class T>
  requires(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>)
bool parse_number(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, out);
  return error == std::errc() && stop == end;
}

/// parse_number, rejecting malformed or out-of-range text through
/// reject_value (integer rejections state the type's range).
template <class T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  if (!parse_number(text, value)) {
    if constexpr (std::is_integral_v<T>) {
      reject_value(flag, text,
                   "expected an integer in [" +
                       std::to_string(std::numeric_limits<T>::min()) + ", " +
                       std::to_string(std::numeric_limits<T>::max()) + "]");
    } else {
      reject_value(flag, text, "expected a number in double range");
    }
  }
  return value;
}

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

  /// Parse argv. Throws nadmm::InvalidArgument on unknown options,
  /// malformed values or any argument not starting with "--". If
  /// `--help` is present, prints usage and returns false (caller should
  /// exit 0).
  bool parse(int argc, const char* const* argv);

  /// Typed accessors. Empty or out-of-range text throws
  /// nadmm::InvalidArgument naming the option and echoing its text.
  [[nodiscard]] std::int64_t get_int(const std::string& name) const {
    return get_int_as<std::int64_t>(name);
  }
  [[nodiscard]] double get_double(const std::string& name) const;
  /// get_int parsed straight into the field type T: a value T cannot
  /// hold throws like get_int does instead of wrapping.
  template <class T>
  [[nodiscard]] T get_int_as(const std::string& name) const {
    return parse_number<T>(name, find(name, Kind::kInt).value);
  }
  [[nodiscard]] const std::string& get_string(const std::string& name) const;
  [[nodiscard]] bool get_flag(const std::string& name) const;

  /// Whether an option `name` was registered.
  [[nodiscard]] bool has(const std::string& name) const {
    return options_.count(name) != 0;
  }
  /// The option's text as given (or its default), whatever its kind.
  [[nodiscard]] const std::string& text(const std::string& name) const;

 private:
  enum class Kind { kInt, kDouble, kString, kFlag };
  struct Option {
    Kind kind;
    std::string value;  // textual; parsed on demand
    std::string default_value;
    std::string help;
  };

  void print_help(const std::string& program) const;
  void insert(const std::string& name, Kind kind, std::string default_value,
              const std::string& help);
  const Option& find(const std::string& name) const;
  const Option& find(const std::string& name, Kind kind) const;

  std::string summary_;
  std::map<std::string, Option> options_;
  std::vector<std::string> order_;  // registration order, for --help
};

}  // namespace nadmm
