#include "ccg/obs/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace ccg::obs {

namespace {

/// The finite upper bounds of the fixed layout, ascending.
constexpr auto kFiniteBounds = [] {
  std::array<double, kHistogramBuckets - 1> bounds{};
  for (std::size_t i = 0; i < bounds.size(); ++i) bounds[i] = histogram_bound(i);
  return bounds;
}();

}  // namespace

void Histogram::record(double value) noexcept {
  // First bound >= value (bounds are upper inclusive); everything past the
  // last finite bound lands in the overflow bucket.
  const auto it =
      std::lower_bound(kFiniteBounds.begin(), kFiniteBounds.end(), value);
  const auto idx = static_cast<std::size_t>(it - kFiniteBounds.begin());
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

double quantile(const HistogramSample& sample, double q) noexcept {
  q = std::clamp(q, 0.0, 1.0);
  if (sample.count == 0) return 0.0;
  // Rank of the requested quantile, 1-based ("nearest rank" with
  // interpolation inside the owning bucket).
  const double target = q * static_cast<double>(sample.count);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    const auto in_bucket = static_cast<double>(sample.buckets[i]);
    if (in_bucket == 0.0) continue;
    if (cumulative + in_bucket >= target) {
      const double bucket_lo = i == 0 ? 0.0 : histogram_bound(i - 1);
      // The overflow bucket has no finite upper bound; the observed max is
      // the tightest honest cap. Same for any bucket that contains it.
      const double bucket_hi = std::min(histogram_bound(i), sample.max);
      const double frac = (target - cumulative) / in_bucket;
      const double v = bucket_lo + frac * (bucket_hi - bucket_lo);
      // std::clamp's bits whenever min <= max, without its precondition: a
      // read racing a first record() can see min above max.
      return std::min(std::max(v, sample.min), sample.max);
    }
    cumulative += in_bucket;
  }
  return sample.max;  // occupancies short of count; max is the safe answer
}

void Histogram::reset() noexcept {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
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

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
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
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      s.buckets[i] = h->bucket_value(i);
    }
    s.count = h->count();
    s.sum = h->sum();
    s.min = h->min();
    // A snapshot racing the first record() can read min_ set and max_ not
    // yet; that value is the max too. Decoders reject min > max.
    s.max = std::max(h->max(), s.min);
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

}  // namespace ccg::obs
