// Process-wide metrics for the analytics service (ROADMAP: "fast as the
// hardware allows" needs per-stage numbers before targeted optimization).
//
// Three instrument kinds, all safe for concurrent writers and near-zero
// overhead when unread:
//   Counter   — monotonically increasing uint64 (relaxed atomic add).
//   Gauge     — last-written double, with a CAS-based update_max for
//               high-water marks (queue depths, memory peaks).
//   Histogram — fixed-bucket exponential histogram with quantile
//               estimation by linear interpolation inside the bucket.
//
// Instruments live in a Registry. Registration (name lookup) takes a
// mutex; the hot path never does — callers look up an instrument once and
// keep the reference, which stays valid for the registry's lifetime.
// `Registry::global()` is the process-wide instance every subsystem and
// the exporters share; independent Registry instances exist for tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
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

struct HistogramOptions {
  /// Upper bound of the first bucket. The defaults cover latencies from
  /// 1 µs to ~35 min when values are seconds.
  double first_bound = 1e-6;
  /// Bucket i covers (first_bound*growth^(i-1), first_bound*growth^i].
  double growth = 2.0;
  /// Finite buckets; one implicit (+Inf) overflow bucket is appended.
  std::size_t buckets = 31;
};

/// Fixed-bucket exponential histogram. record() is wait-free (one atomic
/// add per bucket/count/sum plus two CAS loops for min/max); readers see a
/// possibly-torn but monotone snapshot, which is fine for monitoring.
class Histogram {
 public:
  explicit Histogram(HistogramOptions options = {});

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
  double mean() const noexcept {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }

  /// Estimated q-quantile (q in [0,1]): quantile_from_buckets over this
  /// histogram's buckets, count, min and max. 0 when empty.
  double quantile(double q) const noexcept;

  /// Finite buckets + 1 overflow bucket.
  std::size_t bucket_count() const noexcept { return bounds_.size() + 1; }
  /// Upper bound of bucket i (+Inf for the overflow bucket).
  double upper_bound(std::size_t i) const noexcept;
  /// Occupancy of bucket i (not cumulative).
  std::uint64_t bucket_value(std::size_t i) const noexcept;

  const HistogramOptions& options() const noexcept { return options_; }
  void reset() noexcept;

 private:
  HistogramOptions options_;
  std::vector<double> bounds_;                         // ascending, finite
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_.size()+1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

// --- snapshots (what the exporters consume) --------------------------------

/// Label set attached to a sample ("shard" = "3", ...). Sorted by key by
/// convention; instruments registered directly always have no labels — the
/// fleet registry stamps them when merging remote snapshots.
using SampleLabels = std::vector<std::pair<std::string, std::string>>;

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
  SampleLabels labels;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
  SampleLabels labels;
};

struct HistogramSample {
  std::string name;
  /// (upper bound, occupancy) per bucket, ascending; last bound is +Inf.
  std::vector<std::pair<double, std::uint64_t>> buckets;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  SampleLabels labels;
};

struct Snapshot {
  std::vector<CounterSample> counters;      // sorted by name
  std::vector<GaugeSample> gauges;          // sorted by name
  std::vector<HistogramSample> histograms;  // sorted by name
};

/// Quantile estimate from (bound, occupancy) buckets: finds the bucket
/// holding the target rank and interpolates linearly inside it, bounded
/// to [min, max]. The one routine behind Histogram::quantile, snapshot
/// quantiles and shipped bucket sets, whose live Histogram is in another
/// process.
double quantile_from_buckets(
    const std::vector<std::pair<double, std::uint64_t>>& buckets,
    std::uint64_t count, double min, double max, double q) noexcept;

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
  /// `options` applies only on first registration of `name`.
  Histogram& histogram(std::string_view name, HistogramOptions options = {});

  /// Consistent-per-instrument view of everything registered.
  Snapshot snapshot() const;

  /// Zeroes all values; registrations (and handed-out references) survive.
  void reset();

  std::size_t instrument_count() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace ccg::obs
