// perfbench_calibrate — a fixed probe of how fast the host runs right now.
//
//   perfbench_calibrate        prints {"gemv_ms": ..., "sink": ...}
//
// The benchmark's host is a shared VM whose speed drifts by 20-50% over
// tens of seconds as other tenants load the physical cores. run.py runs this
// probe before every measured iteration and divides the run's time metrics
// by how much slower than nominal the probe ran (METRICS.md, "Host speed").
// The kernel is floating-point dot products over an L2-resident matrix, the
// kind of loop the product's spectral and similarity stages run. Probes that
// chase pointers, run one integer dependency chain or fill hash maps were
// measured not to follow the drift. This file links none of the
// repository's code, so a change to the product never moves the probe.
#include <chrono>
#include <cstdio>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// 3000 matrix-vector products with a 384 x 384 matrix (~330 ms nominal).
/// `sink` keeps the results live.
double gemv_ms(double& sink) {
  const int n = 384;
  std::vector<double> a(n * n), x(n, 1.0), y(n);
  for (int i = 0; i < n * n; ++i) a[i] = (i % 97) * 0.01;
  const auto t0 = Clock::now();
  for (int rep = 0; rep < 3000; ++rep) {
    for (int i = 0; i < n; ++i) {
      double acc = 0;
      const double* row = &a[i * n];
      for (int j = 0; j < n; ++j) acc += row[j] * x[j];
      y[i] = acc;
    }
    sink += y[rep % n];
    x[rep % n] += 1e-9;
  }
  return ms_since(t0);
}

}  // namespace

int main() {
  double sink = 0;
  const double gemv = gemv_ms(sink);
  std::printf("{\"gemv_ms\":%.4f,\"sink\":%g}\n", gemv, sink);
  return 0;
}
