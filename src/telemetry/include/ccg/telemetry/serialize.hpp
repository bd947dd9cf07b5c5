// Serialization of connection summaries as CSV — the shape customers see
// in NSG/VPC flow-log exports; good for interop with external tooling.
#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "ccg/telemetry/record.hpp"

namespace ccg {

/// Header row matching paper Table 2 column order.
std::string csv_header();

/// One record as a CSV row (no trailing newline).
std::string to_csv(const ConnectionSummary& rec);

/// Parses a row produced by to_csv. Returns nullopt on malformed input.
std::optional<ConnectionSummary> from_csv(std::string_view line);

/// Writes a batch as CSV with header.
void write_csv(std::ostream& out, const std::vector<ConnectionSummary>& batch);

/// Reads a whole CSV stream (header optional); malformed rows are skipped
/// and counted in *dropped if provided. Lines split as std::getline splits
/// them, and the stream is left with eofbit and failbit set; the accepted
/// dialect is in docs/FORMATS.md. Records the `ccg.telemetry.read_csv`
/// span and its rows / rows_dropped / bytes counters.
std::vector<ConnectionSummary> read_csv(std::istream& in, std::size_t* dropped = nullptr);

}  // namespace ccg
