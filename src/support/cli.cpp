#include "support/cli.hpp"

#include <cstdio>

#include "support/check.hpp"

namespace nadmm {

void reject_value(const std::string& flag, const std::string& text,
                  const std::string& why) {
  throw InvalidArgument("--" + flag + ": invalid value '" + text + "' (" +
                        why + ")");
}

CliParser::CliParser(std::string program_summary)
    : summary_(std::move(program_summary)) {
  add_flag("help", "print this help message and exit");
}

void CliParser::insert(const std::string& name, Kind kind,
                       std::string default_value, const std::string& help) {
  if (options_.find(name) == options_.end()) order_.push_back(name);
  options_[name] = {kind, default_value, default_value, help};
}

CliParser& CliParser::add_int(const std::string& name, std::int64_t default_value,
                              const std::string& help) {
  insert(name, Kind::kInt, std::to_string(default_value), help);
  return *this;
}

CliParser& CliParser::add_double(const std::string& name, double default_value,
                                 const std::string& help) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", default_value);
  insert(name, Kind::kDouble, buf, help);
  return *this;
}

CliParser& CliParser::add_string(const std::string& name,
                                 const std::string& default_value,
                                 const std::string& help) {
  insert(name, Kind::kString, default_value, help);
  return *this;
}

CliParser& CliParser::add_flag(const std::string& name, const std::string& help) {
  insert(name, Kind::kFlag, "false", help);
  return *this;
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw InvalidArgument("unexpected argument '" + arg + "'");
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    // What the user typed is wrong, not the program: the message is the
    // reason alone, without NADMM_CHECK's expression and source location.
    auto it = options_.find(name);
    if (it == options_.end()) {
      throw InvalidArgument("unknown option --" + name);
    }
    Option& opt = it->second;
    if (opt.kind == Kind::kFlag) {
      if (has_value && value != "true" && value != "false") {
        throw InvalidArgument("flag --" + name +
                              " takes no value (or true/false)");
      }
      opt.value = has_value ? value : "true";
    } else {
      if (!has_value) {
        if (i + 1 >= argc) {
          throw InvalidArgument("option --" + name + " expects a value");
        }
        value = argv[++i];
      }
      opt.value = value;
    }
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

const CliParser::Option& CliParser::find(const std::string& name) const {
  auto it = options_.find(name);
  NADMM_CHECK(it != options_.end(), "option --" + name + " was never registered");
  return it->second;
}

const CliParser::Option& CliParser::find(const std::string& name,
                                         Kind kind) const {
  const Option& opt = find(name);
  NADMM_CHECK(opt.kind == kind, "option --" + name + " accessed as wrong type");
  return opt;
}

double CliParser::get_double(const std::string& name) const {
  return parse_number<double>(name, find(name, Kind::kDouble).value);
}

const std::string& CliParser::get_string(const std::string& name) const {
  return find(name, Kind::kString).value;
}

bool CliParser::get_flag(const std::string& name) const {
  return find(name, Kind::kFlag).value == "true";
}

const std::string& CliParser::text(const std::string& name) const {
  return find(name).value;
}

}  // namespace nadmm
