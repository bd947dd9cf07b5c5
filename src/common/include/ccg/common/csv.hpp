// Minimal CSV reader/writer for exporting telemetry and experiment series.
//
// NSG/VPC flow logs are line-oriented records; we keep the same spirit so
// examples can dump data that external tools (pandas, gnuplot) consume.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace ccg {

/// Streaming CSV writer. Fields containing commas, quotes or newlines are
/// quoted per RFC 4180.
class CsvWriter {
 public:
  /// The stream must outlive the writer.
  explicit CsvWriter(std::ostream& out) : out_(&out) {}

  CsvWriter& field(std::string_view text);
  CsvWriter& field(std::uint64_t v) { return raw(std::to_string(v)); }
  CsvWriter& field(std::int64_t v) { return raw(std::to_string(v)); }
  CsvWriter& field(double v);

  /// Terminates the current record.
  void end_row();

  std::size_t rows_written() const { return rows_; }

 private:
  CsvWriter& raw(const std::string& text);

  std::ostream* out_;
  bool at_row_start_ = true;
  std::size_t rows_ = 0;
};

/// Splits one CSV line into fields, honoring RFC 4180 quoting. A trailing
/// CR (a CRLF line end) is dropped; a CR anywhere else is field data.
std::vector<std::string> parse_csv_line(std::string_view line);

}  // namespace ccg
