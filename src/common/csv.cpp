#include "ccg/common/csv.hpp"

#include <cmath>
#include <cstdio>

namespace ccg {

CsvWriter& CsvWriter::raw(const std::string& text) {
  if (!at_row_start_) *out_ << ',';
  at_row_start_ = false;
  *out_ << text;
  return *this;
}

CsvWriter& CsvWriter::field(std::string_view text) {
  const bool needs_quote =
      text.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quote) return raw(std::string(text));
  std::string quoted;
  quoted.reserve(text.size() + 2);
  quoted.push_back('"');
  for (char c : text) {
    if (c == '"') quoted.push_back('"');
    quoted.push_back(c);
  }
  quoted.push_back('"');
  return raw(quoted);
}

CsvWriter& CsvWriter::field(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return raw(buf);
}

void CsvWriter::end_row() {
  *out_ << '\n';
  at_row_start_ = true;
  ++rows_;
}

std::vector<std::string> parse_csv_line(std::string_view line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;  // escaped quote
        } else {
          in_quotes = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c != '\r' || i + 1 != line.size()) {
      current.push_back(c);  // only a CRLF line end's trailing CR is dropped
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

}  // namespace ccg
