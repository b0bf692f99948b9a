// The one JSON string escaper, shared by every JSON writer: `nadmm list
// --json`, the sweep's JSON report and journal, and the telemetry trace
// export.
#pragma once

#include <cstdio>
#include <string>

namespace nadmm {

/// `s` escaped for the inside of a JSON string: `"` and `\` get a
/// backslash, newline/tab/CR become \n \t \r and every other control
/// byte \u00XX.
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace nadmm
