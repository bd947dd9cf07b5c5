// JSON string escaping for the obs writers: the metrics JSON, the Chrome
// trace, the profile JSON and flight records. Private to src/obs.
#pragma once

#include <cstdio>
#include <string>

namespace ccg::obs {
namespace {

/// Appends `s` to `out` with quotes and backslashes escaped and control
/// characters written as \u00XX.
void json_escape_into(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
}

}  // namespace
}  // namespace ccg::obs
