#include "ccg/obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "ccg/common/expect.hpp"

namespace ccg::obs {

Histogram::Histogram(HistogramOptions options) : options_(options) {
  CCG_EXPECT(options.first_bound > 0.0);
  CCG_EXPECT(options.growth > 1.0);
  CCG_EXPECT(options.buckets >= 1);
  bounds_.reserve(options.buckets);
  double bound = options.first_bound;
  for (std::size_t i = 0; i < options.buckets; ++i) {
    bounds_.push_back(bound);
    bound *= options.growth;
  }
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::record(double value) noexcept {
  // upper_bound: first bucket whose bound is >= value (bounds are upper
  // inclusive); everything past the last finite bound lands in overflow.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);

  double cur = min_.load(std::memory_order_relaxed);
  while (value < cur &&
         !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (value > cur &&
         !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

double Histogram::min() const noexcept {
  const double v = min_.load(std::memory_order_relaxed);
  return std::isinf(v) ? 0.0 : v;
}

double Histogram::max() const noexcept {
  const double v = max_.load(std::memory_order_relaxed);
  return std::isinf(v) ? 0.0 : v;
}

double Histogram::upper_bound(std::size_t i) const noexcept {
  return i < bounds_.size() ? bounds_[i]
                            : std::numeric_limits<double>::infinity();
}

std::uint64_t Histogram::bucket_value(std::size_t i) const noexcept {
  return i <= bounds_.size() ? buckets_[i].load(std::memory_order_relaxed) : 0;
}

double Histogram::quantile(double q) const noexcept {
  std::vector<std::pair<double, std::uint64_t>> buckets;
  buckets.reserve(bucket_count());
  for (std::size_t i = 0; i < bucket_count(); ++i) {
    buckets.emplace_back(upper_bound(i), bucket_value(i));
  }
  return quantile_from_buckets(buckets, count(), min(), max(), q);
}

double quantile_from_buckets(
    const std::vector<std::pair<double, std::uint64_t>>& buckets,
    std::uint64_t count, double min, double max, double q) noexcept {
  q = std::clamp(q, 0.0, 1.0);
  if (count == 0 || buckets.empty()) return 0.0;
  // Rank of the requested quantile, 1-based ("nearest rank" with
  // interpolation inside the owning bucket).
  const double target = q * static_cast<double>(count);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const auto in_bucket = static_cast<double>(buckets[i].second);
    if (in_bucket == 0.0) continue;
    if (cumulative + in_bucket >= target) {
      const double bucket_lo = i == 0 ? 0.0 : buckets[i - 1].first;
      const double bound = buckets[i].first;
      // The overflow bucket has no finite upper bound; the observed max is
      // the tightest honest cap. Same for any bucket that contains it.
      const double bucket_hi = std::isinf(bound) ? max : std::min(bound, max);
      const double frac = (target - cumulative) / in_bucket;
      const double v = bucket_lo + frac * (bucket_hi - bucket_lo);
      // std::clamp's bits whenever min <= max, without its precondition: a
      // read racing a first record() can see min above max.
      return std::min(std::max(v, min), max);
    }
    cumulative += in_bucket;
  }
  return max;  // unreachable unless counts raced; max is the safe answer
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

Registry& Registry::global() {
  // Leaked on purpose: instruments are referenced from other statics and
  // atexit hooks whose destruction order we do not control.
  static Registry* instance = new Registry();
  return *instance;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name, HistogramOptions options) {
  std::lock_guard lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>(options))
             .first;
  }
  return *it->second;
}

Snapshot Registry::snapshot() const {
  std::lock_guard lock(mutex_);
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->value(), {}});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->value(), {}});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSample s;
    s.name = name;
    s.buckets.reserve(h->bucket_count());
    for (std::size_t i = 0; i < h->bucket_count(); ++i) {
      s.buckets.emplace_back(h->upper_bound(i), h->bucket_value(i));
    }
    s.count = h->count();
    s.sum = h->sum();
    s.min = h->min();
    // A snapshot racing the first record() can read min_ set and max_ not
    // yet; that value is the max too. Decoders reject min > max.
    s.max = std::max(h->max(), s.min);
    s.p50 = quantile_from_buckets(s.buckets, s.count, s.min, s.max, 0.50);
    s.p90 = quantile_from_buckets(s.buckets, s.count, s.min, s.max, 0.90);
    s.p99 = quantile_from_buckets(s.buckets, s.count, s.min, s.max, 0.99);
    snap.histograms.push_back(std::move(s));
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::size_t Registry::instrument_count() const {
  std::lock_guard lock(mutex_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

}  // namespace ccg::obs
