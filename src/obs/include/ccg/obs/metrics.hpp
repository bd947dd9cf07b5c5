// Process-wide metrics for the analytics service (ROADMAP: "fast as the
// hardware allows" needs per-stage numbers before targeted optimization).
//
// Three instrument kinds, all safe for concurrent writers and near-zero
// overhead when unread:
//   Counter   — monotonically increasing uint64 (relaxed atomic add).
//   Gauge     — last-written double, with a CAS-based update_max for
//               high-water marks (queue depths, memory peaks).
//   Histogram — exponential histogram on one fixed bucket layout;
//               quantiles are estimated where samples are rendered.
//
// Instruments live in a Registry. Registration (name lookup) takes a
// mutex; the hot path never does — callers look up an instrument once and
// keep the reference, which stays valid for the registry's lifetime.
// `Registry::global()` is the process-wide instance every subsystem and
// the exporters share; independent Registry instances exist for tests.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ccg::obs {

/// Monotonic event count. All operations are lock-free relaxed atomics:
/// totals are exact, cross-counter reads are not a consistent cut.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value plus high-water-mark support.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Raises the gauge to `v` if `v` exceeds the current value (CAS loop).
  void update_max(double v) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// The one histogram bucket layout, shared by every histogram, sample and
/// wire frame: finite bucket i covers (1 µs·2^(i-1), 1 µs·2^i] (bucket 0
/// starts at 0), so latencies in seconds from 1 µs to ~18 min resolve, and
/// the last bucket is the +Inf overflow.
inline constexpr std::size_t kHistogramBuckets = 32;  // 31 finite + overflow

/// Upper bound of bucket i: 1e-6 · 2^i, +Inf for the overflow bucket.
constexpr double histogram_bound(std::size_t i) noexcept {
  if (i + 1 >= kHistogramBuckets) return std::numeric_limits<double>::infinity();
  double bound = 1e-6;
  for (std::size_t k = 0; k < i; ++k) bound *= 2.0;
  return bound;
}

/// Exponential histogram on the fixed layout. record() is wait-free (one
/// atomic add per bucket/count/sum plus two CAS loops for min/max); readers
/// see a possibly-torn but monotone snapshot, which is fine for monitoring.
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(double value) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  /// Smallest / largest recorded value; 0 when empty.
  double min() const noexcept;
  double max() const noexcept;
  /// Occupancy of bucket i (not cumulative).
  std::uint64_t bucket_value(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  void reset() noexcept;

 private:
  std::atomic<std::uint64_t> buckets_[kHistogramBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

// --- snapshots (what the exporters consume) --------------------------------

// Instruments registered directly carry no shard; the fleet registry
// numbers the samples each shard worker ships, and the exporters render
// that number as a `shard="N"` label.

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
  std::optional<std::uint32_t> shard;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
  std::optional<std::uint32_t> shard;
};

struct HistogramSample {
  std::string name;
  /// Occupancy per bucket of the fixed layout (histogram_bound).
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::optional<std::uint32_t> shard;
};

struct Snapshot {
  std::vector<CounterSample> counters;      // sorted by name
  std::vector<GaugeSample> gauges;          // sorted by name
  std::vector<HistogramSample> histograms;  // sorted by name
};

/// Estimated q-quantile (q clamped to [0, 1]) of a histogram sample: finds
/// the bucket holding rank q·count and interpolates linearly inside it,
/// bounded to [min, max]. 0 when empty. Renderers call it; no sample
/// stores a quantile.
double quantile(const HistogramSample& sample, double q) noexcept;

// --- registry ---------------------------------------------------------------

/// Named instruments. Lookup/registration is mutex-protected; returned
/// references are stable until the registry is destroyed (the global
/// registry is never destroyed), so cache them outside hot loops.
///
/// Naming scheme (see docs/OBSERVABILITY.md): dotted lower-case paths,
/// `ccg.<module>.<what>`, with latency histograms suffixed `.seconds`.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry. Intentionally leaked so instrument
  /// references and atexit exporters never outlive it.
  static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Consistent-per-instrument view of everything registered.
  Snapshot snapshot() const;

  /// Zeroes all values; registrations (and handed-out references) survive.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace ccg::obs
