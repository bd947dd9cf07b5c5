#include "ccg/obs/export.hpp"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "ccg/obs/fleet.hpp"
#include "json_escape.hpp"

namespace ccg::obs {
namespace {

/// %.9g round-trips every value we emit and keeps goldens readable.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Bucket i's upper bound as the exporters print it ("+Inf" for overflow).
std::string le_text(std::size_t i) {
  return i + 1 == kHistogramBuckets ? "+Inf" : fmt_double(histogram_bound(i));
}

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.
std::string prom_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                    c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) {
    out.insert(out.begin(), '_');
  }
  return out;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// "0.00123" -> "1.23ms": durations dominate the summary table and raw
/// seconds are unreadable at µs scale.
std::string fmt_duration(double seconds) {
  char buf[48];
  if (seconds >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.3fs", seconds);
  } else if (seconds >= 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.2fms", seconds * 1e3);
  } else if (seconds >= 1e-6) {
    std::snprintf(buf, sizeof(buf), "%.1fus", seconds * 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fns", seconds * 1e9);
  }
  return buf;
}

/// HELP text: backslash and newline are the only escapes.
void prom_help_escape_into(std::string& out, const std::string& v) {
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
}

/// `{shard="0",le="1"}`: the sample's shard, then the histogram bucket's
/// `le` when given. Empty when there is neither.
std::string prom_labels(std::optional<std::uint32_t> shard,
                        const std::string* le = nullptr) {
  if (!shard && le == nullptr) return "";
  std::string out = "{";
  if (shard) out += "shard=\"" + std::to_string(*shard) + "\"";
  if (le != nullptr) out += (shard ? ",le=\"" : "le=\"") + *le + "\"";
  out.push_back('}');
  return out;
}

/// Display key for JSON/summary output: a shard's series is suffixed with
/// its number so fleet-merged snapshots keep unique keys.
std::string labeled_name(const std::string& name,
                         std::optional<std::uint32_t> shard) {
  return shard ? name + "{shard=" + std::to_string(*shard) + "}" : name;
}

}  // namespace

std::string to_prometheus(const Snapshot& snapshot) {
  std::string out;
  // One HELP/TYPE block per distinct metric: labeled series of the same
  // name (snapshots keep them adjacent) share it — repeating the header
  // inside a metric family is an exposition-format violation.
  std::string last_header;
  const auto header = [&](const std::string& name, const char* type,
                          const std::string& dotted) {
    if (name == last_header) return;
    last_header = name;
    out += "# HELP " + name + " ";
    prom_help_escape_into(out, dotted);
    out += "\n# TYPE " + name + " ";
    out += type;
    out.push_back('\n');
  };
  for (const auto& c : snapshot.counters) {
    std::string name = prom_name(c.name);
    if (!ends_with(name, "_total")) name += "_total";
    header(name, "counter", c.name);
    out += name + prom_labels(c.shard) + " " + std::to_string(c.value) + "\n";
  }
  last_header.clear();
  for (const auto& g : snapshot.gauges) {
    const std::string name = prom_name(g.name);
    header(name, "gauge", g.name);
    out += name + prom_labels(g.shard) + " " + fmt_double(g.value) + "\n";
  }
  last_header.clear();
  for (const auto& h : snapshot.histograms) {
    const std::string name = prom_name(h.name);
    header(name, "histogram", h.name);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      cumulative += h.buckets[i];
      const std::string le = le_text(i);
      out += name + "_bucket" + prom_labels(h.shard, &le) + " " +
             std::to_string(cumulative) + "\n";
    }
    out += name + "_sum" + prom_labels(h.shard) + " " + fmt_double(h.sum) +
           "\n";
    out += name + "_count" + prom_labels(h.shard) + " " +
           std::to_string(h.count) + "\n";
  }
  return out;
}

std::string to_json(const Snapshot& snapshot) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& c : snapshot.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    json_escape_into(out, labeled_name(c.name, c.shard));
    out += "\": " + std::to_string(c.value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& g : snapshot.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    json_escape_into(out, labeled_name(g.name, g.shard));
    out += "\": " + fmt_double(g.value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& h : snapshot.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    json_escape_into(out, labeled_name(h.name, h.shard));
    out += "\": {\"count\": " + std::to_string(h.count) +
           ", \"sum\": " + fmt_double(h.sum) +
           ", \"min\": " + fmt_double(h.min) +
           ", \"max\": " + fmt_double(h.max) +
           ", \"p50\": " + fmt_double(quantile(h, 0.50)) +
           ", \"p90\": " + fmt_double(quantile(h, 0.90)) +
           ", \"p99\": " + fmt_double(quantile(h, 0.99)) + ", \"buckets\": [";
    bool first_bucket = true;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      // All-zero buckets are noise in the file; the bounds are implied by
      // the bucket layout, so only occupied buckets are listed.
      if (h.buckets[i] == 0) continue;
      if (!first_bucket) out += ", ";
      first_bucket = false;
      const std::string le =
          i + 1 == kHistogramBuckets ? "\"" + le_text(i) + "\"" : le_text(i);
      out += "{\"le\": " + le + ", \"n\": " + std::to_string(h.buckets[i]) +
             "}";
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::string summary_text(const Snapshot& snapshot) {
  std::ostringstream out;
  char line[256];
  if (!snapshot.histograms.empty()) {
    std::snprintf(line, sizeof(line), "%-44s %8s %10s %10s %10s %10s %10s\n",
                  "histogram", "count", "mean", "p50", "p90", "p99", "max");
    out << line;
    for (const auto& h : snapshot.histograms) {
      if (h.count == 0) continue;
      const bool secs = ends_with(h.name, ".seconds");
      const auto cell = [secs](double v) {
        return secs ? fmt_duration(v) : fmt_double(v);
      };
      std::snprintf(line, sizeof(line), "%-44s %8llu %10s %10s %10s %10s %10s\n",
                    labeled_name(h.name, h.shard).c_str(),
                    static_cast<unsigned long long>(h.count),
                    cell(h.sum / static_cast<double>(h.count)).c_str(),
                    cell(quantile(h, 0.50)).c_str(),
                    cell(quantile(h, 0.90)).c_str(),
                    cell(quantile(h, 0.99)).c_str(), cell(h.max).c_str());
      out << line;
    }
  }
  bool header = false;
  for (const auto& c : snapshot.counters) {
    if (c.value == 0) continue;
    if (!header) {
      out << "counters:\n";
      header = true;
    }
    std::snprintf(line, sizeof(line), "  %-44s %llu\n",
                  labeled_name(c.name, c.shard).c_str(),
                  static_cast<unsigned long long>(c.value));
    out << line;
  }
  header = false;
  for (const auto& g : snapshot.gauges) {
    if (g.value == 0.0) continue;
    if (!header) {
      out << "gauges:\n";
      header = true;
    }
    std::snprintf(line, sizeof(line), "  %-44s %s\n",
                  labeled_name(g.name, g.shard).c_str(),
                  fmt_double(g.value).c_str());
    out << line;
  }
  return out.str();
}

bool write_json_file(const std::string& path, const Snapshot& snapshot) {
  std::ofstream out(path);
  if (!out) return false;
  out << to_json(snapshot);
  return static_cast<bool>(out);
}

namespace {

std::string hex_id(std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(id));
  return buf;
}

/// Nanoseconds as fixed-point microseconds ("12345.678"): the trace-event
/// ts/dur unit. %g would drop into lossy scientific notation for the large
/// process-relative timestamps.
std::string fmt_us(std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

/// `{"displayTimeUnit", "otherData", "traceEvents": [` — the opening every
/// trace-event document shares.
std::string trace_json_head(std::size_t dropped) {
  return "{\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": "
         "{\"dropped\": " +
         std::to_string(dropped) + "},\n  \"traceEvents\": [";
}

/// Appends one complete-phase event per span of process `pid`, each
/// preceded by the list separator (`first` tracks the document's first
/// event). Thread hashes are unwieldy 64-bit values and chrome://tracing
/// renders one lane per tid, so each hash maps to a small tid, dense per
/// process by first appearance.
void append_span_events(std::string& out, bool& first,
                        const std::vector<TraceEvent>& events,
                        std::uint32_t pid) {
  std::map<std::uint64_t, std::size_t> tids;
  for (const TraceEvent& e : events) {
    tids.emplace(e.thread_hash, tids.size() + 1);
  }
  for (const TraceEvent& e : events) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"";
    json_escape_into(out, e.name);
    out += "\", \"cat\": \"ccg\", \"ph\": \"X\", \"ts\": " +
           fmt_us(e.start_ns) + ", \"dur\": " + fmt_us(e.duration_ns) +
           ", \"pid\": " + std::to_string(pid) +
           ", \"tid\": " + std::to_string(tids.at(e.thread_hash)) +
           ", \"args\": {";
    bool first_arg = true;
    const auto arg = [&](const char* key, std::uint64_t id) {
      if (id == 0) return;
      if (!first_arg) out += ", ";
      first_arg = false;
      out += "\"";
      out += key;
      out += "\": \"" + hex_id(id) + "\"";
    };
    arg("trace", e.trace_id);
    arg("span", e.span_id);
    arg("parent", e.parent_id);
    out += "}}";
  }
}

}  // namespace

std::string to_trace_json(const std::vector<TraceEvent>& events,
                          std::size_t dropped) {
  std::string out = trace_json_head(dropped);
  bool first = true;
  append_span_events(out, first, events, 1);
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::string to_trace_json_processes(
    const std::vector<ProcessTrace>& processes) {
  std::size_t dropped = 0;
  for (const ProcessTrace& p : processes) dropped += p.dropped;

  std::string out = trace_json_head(dropped);
  bool first = true;
  for (const ProcessTrace& p : processes) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " +
           std::to_string(p.pid) + ", \"tid\": 0, \"args\": {\"name\": \"";
    json_escape_into(out, p.name);
    out += "\"}}";
  }
  for (const ProcessTrace& p : processes) {
    append_span_events(out, first, p.events, p.pid);
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

bool write_trace_file(const std::string& path) {
  TraceRing& ring = TraceRing::global();
  std::ofstream out(path);
  if (!out) return false;
  const auto fleet = FleetRegistry::global().spans_by_shard();
  if (fleet.empty()) {
    out << to_trace_json(ring.events(), ring.dropped());
  } else {
    // An aggregator that received shard spans writes the merged fleet
    // trace: its own lane plus one process lane per shard.
    std::vector<ProcessTrace> processes;
    processes.push_back({"aggregator", 1, ring.events(), ring.dropped()});
    for (const auto& [shard, spans] : fleet) {
      processes.push_back({"shard " + std::to_string(shard), 2 + shard, spans,
                           FleetRegistry::global().spans_dropped(shard)});
    }
    out << to_trace_json_processes(processes);
  }
  return static_cast<bool>(out);
}

}  // namespace ccg::obs
