#include "ccg/common/stats.hpp"

#include <algorithm>
#include <bit>

#include "ccg/common/expect.hpp"

namespace ccg {

double PercentileSketch::quantile(double q) const {
  CCG_EXPECT(!values_.empty());
  CCG_EXPECT(q >= 0.0 && q <= 1.0);
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  if (values_.size() == 1) return values_[0];
  const double pos = q * static_cast<double>(values_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values_[lo] * (1.0 - frac) + values_[hi] * frac;
}

void Log2Histogram::add(std::uint64_t value) {
  const int b = value < 2 ? 0 : std::bit_width(value) - 1;
  if (buckets_.size() <= static_cast<std::size_t>(b)) buckets_.resize(b + 1, 0);
  ++buckets_[static_cast<std::size_t>(b)];
  ++total_;
}

std::uint64_t Log2Histogram::bucket_count(int b) const {
  if (b < 0 || static_cast<std::size_t>(b) >= buckets_.size()) return 0;
  return buckets_[static_cast<std::size_t>(b)];
}

int Log2Histogram::max_bucket() const {
  return static_cast<int>(buckets_.size()) - 1;
}

std::string Log2Histogram::to_string() const {
  std::string out;
  std::uint64_t peak = 0;
  for (auto c : buckets_) peak = std::max(peak, c);
  if (peak == 0) return "(empty histogram)\n";
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const auto bars = static_cast<std::size_t>(
        40.0 * static_cast<double>(buckets_[b]) / static_cast<double>(peak));
    out += "2^" + std::to_string(b) + "\t" + std::to_string(buckets_[b]) + "\t" +
           std::string(bars, '#') + "\n";
  }
  return out;
}

std::vector<CcdfPoint> traffic_concentration_ccdf(std::vector<double> weights) {
  std::vector<CcdfPoint> curve;
  if (weights.empty()) return curve;
  std::sort(weights.begin(), weights.end(), std::greater<>());
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0) return curve;

  curve.reserve(weights.size() + 1);
  curve.push_back({0.0, 1.0});
  double covered = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    covered += weights[i];
    curve.push_back({static_cast<double>(i + 1) / static_cast<double>(weights.size()),
                     std::max(0.0, 1.0 - covered / total)});
  }
  return curve;
}

double gini_coefficient(std::vector<double> weights) {
  if (weights.size() < 2) return 0.0;
  std::sort(weights.begin(), weights.end());
  double cum = 0.0, weighted = 0.0;
  const auto n = static_cast<double>(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    cum += weights[i];
    weighted += static_cast<double>(i + 1) * weights[i];
  }
  if (cum <= 0.0) return 0.0;
  return (2.0 * weighted) / (n * cum) - (n + 1.0) / n;
}

}  // namespace ccg
