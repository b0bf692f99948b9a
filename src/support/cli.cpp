#include "support/cli.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "support/check.hpp"

namespace nadmm {

CliParser::CliParser(std::string program_summary)
    : summary_(std::move(program_summary)) {
  add_flag("help", "print this help message and exit");
}

void CliParser::insert(const std::string& name, Option opt) {
  if (options_.find(name) == options_.end()) order_.push_back(name);
  options_[name] = std::move(opt);
}

CliParser& CliParser::add_int(const std::string& name, std::int64_t default_value,
                              const std::string& help) {
  Option opt;
  opt.kind = Kind::kInt;
  opt.default_value = std::to_string(default_value);
  opt.value = opt.default_value;
  opt.help = help;
  insert(name, std::move(opt));
  return *this;
}

CliParser& CliParser::add_double(const std::string& name, double default_value,
                                 const std::string& help) {
  Option opt;
  opt.kind = Kind::kDouble;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", default_value);
  opt.default_value = buf;
  opt.value = opt.default_value;
  opt.help = help;
  insert(name, std::move(opt));
  return *this;
}

CliParser& CliParser::add_string(const std::string& name,
                                 const std::string& default_value,
                                 const std::string& help) {
  Option opt;
  opt.kind = Kind::kString;
  opt.default_value = default_value;
  opt.value = default_value;
  opt.help = help;
  insert(name, std::move(opt));
  return *this;
}

CliParser& CliParser::add_flag(const std::string& name, const std::string& help) {
  Option opt;
  opt.kind = Kind::kFlag;
  opt.default_value = "false";
  opt.value = "false";
  opt.help = help;
  insert(name, std::move(opt));
  return *this;
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    auto it = options_.find(name);
    NADMM_CHECK(it != options_.end(), "unknown option --" + name);
    Option& opt = it->second;
    if (opt.kind == Kind::kFlag) {
      NADMM_CHECK(!has_value || value == "true" || value == "false",
                  "flag --" + name + " takes no value (or true/false)");
      opt.value = has_value ? value : "true";
    } else {
      if (!has_value) {
        NADMM_CHECK(i + 1 < argc, "option --" + name + " expects a value");
        value = argv[++i];
      }
      opt.value = value;
    }
    opt.seen = true;
  }
  if (get_flag("help")) {
    print_help(argc > 0 ? argv[0] : "program");
    return false;
  }
  return true;
}

void CliParser::print_help(const std::string& program) const {
  std::printf("%s\n\nusage: %s [options]\n\noptions:\n", summary_.c_str(),
              program.c_str());
  // Registration order, so spec-generated surfaces print in the order
  // their OptionSet declared them (not alphabetically).
  for (const auto& name : order_) {
    const Option& opt = options_.at(name);
    std::printf("  --%-22s %s (default: %s)\n", name.c_str(), opt.help.c_str(),
                opt.default_value.c_str());
  }
}

CliParser::Option& CliParser::find(const std::string& name, Kind kind) {
  auto it = options_.find(name);
  NADMM_CHECK(it != options_.end(), "option --" + name + " was never registered");
  NADMM_CHECK(it->second.kind == kind, "option --" + name + " accessed as wrong type");
  return it->second;
}

const CliParser::Option& CliParser::find(const std::string& name,
                                         Kind kind) const {
  auto it = options_.find(name);
  NADMM_CHECK(it != options_.end(), "option --" + name + " was never registered");
  NADMM_CHECK(it->second.kind == kind, "option --" + name + " accessed as wrong type");
  return it->second;
}

void CliParser::reject_int(const std::string& name, const std::string& lo,
                           const std::string& hi) const {
  throw InvalidArgument("option --" + name + " expects an integer in [" + lo +
                        ", " + hi + "], got '" + options_.at(name).value +
                        "'");
}

std::int64_t CliParser::get_int(const std::string& name) const {
  const Option& opt = find(name, Kind::kInt);
  char* end = nullptr;
  errno = 0;
  const std::int64_t v = std::strtoll(opt.value.c_str(), &end, 10);
  if (opt.value.empty() || *end != '\0' || errno == ERANGE) {
    reject_int(name, std::to_string(std::numeric_limits<std::int64_t>::min()),
               std::to_string(std::numeric_limits<std::int64_t>::max()));
  }
  return v;
}

double CliParser::get_double(const std::string& name) const {
  const Option& opt = find(name, Kind::kDouble);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(opt.value.c_str(), &end);
  NADMM_CHECK(!opt.value.empty() && *end == '\0' && errno != ERANGE,
              "option --" + name + " expects a number in double range, got '" +
                  opt.value + "'");
  return v;
}

const std::string& CliParser::get_string(const std::string& name) const {
  return find(name, Kind::kString).value;
}

bool CliParser::get_flag(const std::string& name) const {
  return find(name, Kind::kFlag).value == "true";
}

}  // namespace nadmm
