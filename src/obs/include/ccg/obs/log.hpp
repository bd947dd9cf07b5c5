// Structured, leveled logging for the pipeline: every record carries a
// level, a process-relative timestamp, the emitting thread, the ambient
// trace id (so a log line is attributable to the window that produced it)
// and key=value fields. Records always land in a bounded in-memory ring —
// the flight recorder's evidence — and are mirrored to stderr when at or
// above the stderr threshold (default: warn; ccgraph --log-level sets it).
//
//   obs::log_warn("store append rejected",
//                 {obs::field("window", w.to_string()),
//                  obs::field("windows_appended", count)});
//
// This replaces ad-hoc std::cerr/fprintf inside the library: CLI-facing
// usage errors stay on plain stderr, but anything a running pipeline wants
// to say goes through here so it is captured, leveled, and trace-stamped.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace ccg::obs {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// "debug" / "info" / "warn" / "error".
const char* level_name(LogLevel level) noexcept;

struct LogField {
  std::string key;
  std::string value;
};

inline LogField field(std::string_view key, std::string_view value) {
  return {std::string(key), std::string(value)};
}
inline LogField field(std::string_view key, const char* value) {
  return {std::string(key), std::string(value)};
}
template <typename T,
          std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                           int> = 0>
LogField field(std::string_view key, T value) {
  return {std::string(key), std::to_string(value)};
}
inline LogField field(std::string_view key, bool value) {
  return {std::string(key), value ? "true" : "false"};
}
LogField field(std::string_view key, double value);

struct LogRecord {
  LogLevel level = LogLevel::kInfo;
  std::uint64_t ts_ns = 0;        // steady_clock, process-relative
  std::uint64_t thread_hash = 0;  // std::hash of std::thread::id
  std::uint64_t trace_id = 0;     // ambient trace at emit time (0 = none)
  std::string message;
  std::vector<LogField> fields;

  /// One logfmt-style line: `level=warn ts=1.234 trace=0xabc msg="..." k=v`.
  std::string render() const;
};

/// Bounded ring of recent log records. Unlike the TraceRing it is always
/// on (logging is rare; the ring is the crash evidence), with a capacity
/// of kCapacity records: each owns a LogRecord (~88 bytes plus its message
/// and field strings), so the ring stays well under 1 MB.
class LogRing {
 public:
  static constexpr std::size_t kCapacity = 1024;

  static LogRing& global();

  void push(LogRecord record);

  /// Oldest-first copy of the retained records.
  std::vector<LogRecord> records() const;
  std::size_t dropped() const;
  void clear();

 private:
  LogRing() = default;

  mutable std::mutex mutex_;
  std::vector<LogRecord> ring_;
  std::size_t next_ = 0;
  std::size_t dropped_ = 0;
};

/// Minimum level mirrored to stderr: warn until set_stderr_level.
LogLevel stderr_level() noexcept;
void set_stderr_level(LogLevel level) noexcept;

/// Token-bucket limiter for the stderr mirror, one bucket per level so a
/// debug flood (a shard worker at --log-level debug, say) cannot starve
/// error lines. admit() is deterministic in the supplied timestamp, which
/// is what the unit tests drive. Records suppressed while a bucket is dry
/// are counted; the first admitted record after a dry spell reports them
/// so the terminal shows "...suppressed N..." instead of silence.
class StderrRateLimiter {
 public:
  struct Decision {
    bool mirror = true;          // print this record?
    std::uint64_t recovered = 0; // suppressed records this admit recovers
  };

  /// `rate_per_sec` tokens accrue per level, up to `burst`.
  StderrRateLimiter(double rate_per_sec, double burst);

  Decision admit(LogLevel level, std::uint64_t now_ns);

  /// Total records suppressed across all levels so far.
  std::uint64_t suppressed() const;

 private:
  struct Bucket {
    double tokens;
    std::uint64_t last_ns = 0;
    std::uint64_t dropped = 0;  // current dry spell
  };
  mutable std::mutex mutex_;
  double rate_;
  double burst_;
  Bucket buckets_[4];
  std::uint64_t suppressed_total_ = 0;
};

/// The limiter guarding the process's stderr mirror: 25 records/s per
/// level, burst 50.
StderrRateLimiter& stderr_rate_limiter();

/// Emits one record: stamps time/thread/trace, pushes into the global
/// LogRing, bumps the ccg.log.<level> counter, and mirrors to stderr when
/// `level >= stderr_level()`.
void log(LogLevel level, std::string_view message,
         std::initializer_list<LogField> fields = {});

inline void log_debug(std::string_view message,
                      std::initializer_list<LogField> fields = {}) {
  log(LogLevel::kDebug, message, fields);
}
inline void log_info(std::string_view message,
                     std::initializer_list<LogField> fields = {}) {
  log(LogLevel::kInfo, message, fields);
}
inline void log_warn(std::string_view message,
                     std::initializer_list<LogField> fields = {}) {
  log(LogLevel::kWarn, message, fields);
}
inline void log_error(std::string_view message,
                      std::initializer_list<LogField> fields = {}) {
  log(LogLevel::kError, message, fields);
}

/// Parses "debug"/"info"/"warn"/"error"; nullopt on anything else.
std::optional<LogLevel> parse_level(std::string_view name) noexcept;

}  // namespace ccg::obs
