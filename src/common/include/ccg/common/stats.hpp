// Small statistics toolkit used across analyses: percentiles, log-scale
// histograms and CCDF extraction (paper Fig. 6).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ccg {

/// Exact percentile over a stored sample using linear interpolation between
/// order statistics. Suitable for the modest sample counts in our benches.
class PercentileSketch {
 public:
  void add(double x) { values_.push_back(x); sorted_ = false; }
  std::size_t count() const { return values_.size(); }

  /// q in [0, 1]; precondition: at least one sample.
  double quantile(double q) const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

/// Histogram with power-of-two (log2) byte-count buckets; matches the
/// log-scale color coding of the paper's adjacency matrices (Fig. 4).
class Log2Histogram {
 public:
  void add(std::uint64_t value);
  std::uint64_t total() const { return total_; }

  /// Bucket b counts values in [2^b, 2^(b+1)); bucket 0 also counts 0 and 1.
  std::uint64_t bucket_count(int b) const;
  int max_bucket() const;

  /// Multi-line ASCII rendering for bench/example output.
  std::string to_string() const;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t total_ = 0;
};

/// A point on a complementary CDF: fraction of entities (x) vs fraction of
/// total weight carried by everything *beyond* that fraction (y).
struct CcdfPoint {
  double fraction_of_nodes;
  double ccdf;  // fraction of weight NOT yet covered by the top nodes
};

/// Computes the paper's Fig. 6 curve: sort weights descending, walk the top
/// fraction of nodes, report the weight share remaining. A steep drop means
/// a few nodes carry nearly all traffic.
std::vector<CcdfPoint> traffic_concentration_ccdf(std::vector<double> weights);

/// Gini coefficient of a weight distribution (0 = equal, 1 = concentrated);
/// scalar companion to the CCDF curve.
double gini_coefficient(std::vector<double> weights);

}  // namespace ccg
