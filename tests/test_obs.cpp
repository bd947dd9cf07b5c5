#include "ccg/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "ccg/analytics/service.hpp"
#include "ccg/common/rng.hpp"
#include "ccg/obs/export.hpp"
#include "ccg/obs/span.hpp"
#include "ccg/workload/driver.hpp"
#include "ccg/workload/presets.hpp"

namespace ccg {
namespace {

using obs::Histogram;
using obs::Registry;

/// The histogram "h" of `registry`, as the exporters see it.
obs::HistogramSample sample_of(const Registry& registry) {
  return registry.snapshot().histograms.at(0);
}

// --- histogram buckets & quantiles -------------------------------------------

TEST(ObsHistogram, BucketBoundariesAreUpperInclusive) {
  // The one layout: 1 µs doubling over 31 finite buckets, then +Inf.
  ASSERT_EQ(obs::kHistogramBuckets, 32u);
  EXPECT_DOUBLE_EQ(obs::histogram_bound(0), 1e-6);
  EXPECT_DOUBLE_EQ(obs::histogram_bound(1), 2e-6);
  EXPECT_DOUBLE_EQ(obs::histogram_bound(2), 4e-6);
  EXPECT_DOUBLE_EQ(obs::histogram_bound(3), 8e-6);
  EXPECT_DOUBLE_EQ(obs::histogram_bound(30), 1e-6 * (1 << 30));
  EXPECT_TRUE(std::isinf(obs::histogram_bound(31)));

  Histogram h;
  h.record(0.5e-6);   // bucket 0
  h.record(1e-6);     // bucket 0: bounds are upper-inclusive
  h.record(1.01e-6);  // bucket 1
  h.record(2e-6);     // bucket 1
  h.record(4e-6);     // bucket 2
  h.record(8e-6);     // bucket 3
  h.record(8.01e-6);  // bucket 4
  h.record(1e9);      // overflow

  EXPECT_EQ(h.bucket_value(0), 2u);
  EXPECT_EQ(h.bucket_value(1), 2u);
  EXPECT_EQ(h.bucket_value(2), 1u);
  EXPECT_EQ(h.bucket_value(3), 1u);
  EXPECT_EQ(h.bucket_value(4), 1u);
  EXPECT_EQ(h.bucket_value(31), 1u);
  EXPECT_EQ(h.count(), 8u);
  EXPECT_DOUBLE_EQ(h.min(), 0.5e-6);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
}

TEST(ObsHistogram, QuantileInterpolatesInsideBucket) {
  Registry registry;
  Histogram& h = registry.histogram("h");
  h.record(0.0003);  // bucket (256 µs, 512 µs]
  h.record(0.0007);  // bucket (512 µs, 1024 µs], twice
  h.record(0.0007);
  h.record(0.003);   // bucket (2048 µs, 4096 µs]
  const obs::HistogramSample sample = sample_of(registry);
  // p50 rank = 2 of 4: one sample below bucket (512 µs, 1024 µs], half way
  // through its two samples -> 512 µs + 0.5 * 512 µs = 768 µs.
  EXPECT_DOUBLE_EQ(obs::quantile(sample, 0.5), 0.000768);
  // p100 is the observed max, p0 clamps to the observed min.
  EXPECT_DOUBLE_EQ(obs::quantile(sample, 1.0), 0.003);
  EXPECT_GE(obs::quantile(sample, 0.0), 0.0003 - 1e-15);
}

TEST(ObsHistogram, SingleValueQuantilesCollapseToThatValue) {
  Registry registry;
  registry.histogram("h").record(0.003);
  const obs::HistogramSample sample = sample_of(registry);
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(obs::quantile(sample, q), 0.003) << q;
  }
}

TEST(ObsHistogram, QuantilesAreMonotoneAndEmptyIsZero) {
  Histogram empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_DOUBLE_EQ(obs::quantile(obs::HistogramSample{}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.min(), 0.0);
  EXPECT_DOUBLE_EQ(empty.max(), 0.0);

  Registry registry;
  Histogram& h = registry.histogram("h");
  Rng rng(42);
  for (int i = 0; i < 1000; ++i) {
    h.record(1e-6 * static_cast<double>(1 + rng.uniform(1'000'000)));
  }
  const obs::HistogramSample sample = sample_of(registry);
  EXPECT_LE(obs::quantile(sample, 0.5), obs::quantile(sample, 0.9));
  EXPECT_LE(obs::quantile(sample, 0.9), obs::quantile(sample, 0.99));
  EXPECT_LE(obs::quantile(sample, 0.99), h.max());
  EXPECT_GE(obs::quantile(sample, 0.5), h.min());
}

TEST(ObsHistogram, OverflowQuantileIsCappedByObservedMax) {
  Registry registry;
  Histogram& h = registry.histogram("h");
  h.record(2000.0);  // overflow bucket (the last finite bound is ~1074 s)
  h.record(4000.0);
  const obs::HistogramSample sample = sample_of(registry);
  EXPECT_GE(obs::quantile(sample, 0.99), 2000.0);
  EXPECT_LE(obs::quantile(sample, 0.99), 4000.0);
}

// --- concurrency -------------------------------------------------------------

TEST(ObsCounter, ConcurrentIncrementsAreExact) {
  Registry registry;
  obs::Counter& counter = registry.counter("test.hits");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsHistogram, ConcurrentRecordsKeepExactCountAndSum) {
  Histogram h;
  constexpr int kThreads = 6;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.record(0.001);
    });
  }
  for (auto& t : threads) t.join();
  const auto total = static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(h.count(), total);
  EXPECT_NEAR(h.sum(), 0.001 * static_cast<double>(total), 1e-6);
  std::uint64_t bucket_total = 0;
  for (std::size_t i = 0; i < obs::kHistogramBuckets; ++i) {
    bucket_total += h.bucket_value(i);
  }
  EXPECT_EQ(bucket_total, total);
}

TEST(ObsGauge, ConcurrentUpdateMaxKeepsMaximum) {
  Registry registry;
  obs::Gauge& gauge = registry.gauge("test.hwm");
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&gauge, t] {
      for (int i = 0; i < 10'000; ++i) {
        gauge.update_max(static_cast<double>(t * 10'000 + i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(gauge.value(), 79'999.0);
}

TEST(ObsRegistry, SameNameReturnsSameInstrument) {
  Registry registry;
  EXPECT_EQ(&registry.counter("a"), &registry.counter("a"));
  EXPECT_NE(&registry.counter("a"), &registry.counter("b"));
  EXPECT_EQ(&registry.histogram("h"), &registry.histogram("h"));
  EXPECT_EQ(registry.snapshot().counters.size(), 2u);
  EXPECT_EQ(registry.snapshot().histograms.size(), 1u);

  registry.counter("a").add(5);
  registry.reset();
  EXPECT_EQ(registry.counter("a").value(), 0u);
  // Registrations survive reset.
  EXPECT_EQ(registry.snapshot().counters.size(), 2u);
  EXPECT_EQ(registry.snapshot().histograms.size(), 1u);
}

// --- exporters ---------------------------------------------------------------

Registry& golden_registry() {
  static Registry* registry = [] {
    auto* r = new Registry();
    r->counter("ccg.test.requests").add(3);
    r->gauge("ccg.test.depth").set(2.5);
    Histogram& h = r->histogram("ccg.test.latency");
    h.record(3e-6);
    h.record(0.001);
    h.record(2000.0);
    return r;
  }();
  return *registry;
}

TEST(ObsExport, PrometheusGolden) {
  const std::string expected =
      "# HELP ccg_test_requests_total ccg.test.requests\n"
      "# TYPE ccg_test_requests_total counter\n"
      "ccg_test_requests_total 3\n"
      "# HELP ccg_test_depth ccg.test.depth\n"
      "# TYPE ccg_test_depth gauge\n"
      "ccg_test_depth 2.5\n"
      "# HELP ccg_test_latency ccg.test.latency\n"
      "# TYPE ccg_test_latency histogram\n"
      "ccg_test_latency_bucket{le=\"1e-06\"} 0\n"
      "ccg_test_latency_bucket{le=\"2e-06\"} 0\n"
      "ccg_test_latency_bucket{le=\"4e-06\"} 1\n"
      "ccg_test_latency_bucket{le=\"8e-06\"} 1\n"
      "ccg_test_latency_bucket{le=\"1.6e-05\"} 1\n"
      "ccg_test_latency_bucket{le=\"3.2e-05\"} 1\n"
      "ccg_test_latency_bucket{le=\"6.4e-05\"} 1\n"
      "ccg_test_latency_bucket{le=\"0.000128\"} 1\n"
      "ccg_test_latency_bucket{le=\"0.000256\"} 1\n"
      "ccg_test_latency_bucket{le=\"0.000512\"} 1\n"
      "ccg_test_latency_bucket{le=\"0.001024\"} 2\n"
      "ccg_test_latency_bucket{le=\"0.002048\"} 2\n"
      "ccg_test_latency_bucket{le=\"0.004096\"} 2\n"
      "ccg_test_latency_bucket{le=\"0.008192\"} 2\n"
      "ccg_test_latency_bucket{le=\"0.016384\"} 2\n"
      "ccg_test_latency_bucket{le=\"0.032768\"} 2\n"
      "ccg_test_latency_bucket{le=\"0.065536\"} 2\n"
      "ccg_test_latency_bucket{le=\"0.131072\"} 2\n"
      "ccg_test_latency_bucket{le=\"0.262144\"} 2\n"
      "ccg_test_latency_bucket{le=\"0.524288\"} 2\n"
      "ccg_test_latency_bucket{le=\"1.048576\"} 2\n"
      "ccg_test_latency_bucket{le=\"2.097152\"} 2\n"
      "ccg_test_latency_bucket{le=\"4.194304\"} 2\n"
      "ccg_test_latency_bucket{le=\"8.388608\"} 2\n"
      "ccg_test_latency_bucket{le=\"16.777216\"} 2\n"
      "ccg_test_latency_bucket{le=\"33.554432\"} 2\n"
      "ccg_test_latency_bucket{le=\"67.108864\"} 2\n"
      "ccg_test_latency_bucket{le=\"134.217728\"} 2\n"
      "ccg_test_latency_bucket{le=\"268.435456\"} 2\n"
      "ccg_test_latency_bucket{le=\"536.870912\"} 2\n"
      "ccg_test_latency_bucket{le=\"1073.74182\"} 2\n"
      "ccg_test_latency_bucket{le=\"+Inf\"} 3\n"
      "ccg_test_latency_sum 2000.001\n"
      "ccg_test_latency_count 3\n";
  EXPECT_EQ(obs::to_prometheus(golden_registry().snapshot()), expected);
}

TEST(ObsExport, PrometheusLabeledSeriesShareOneHeaderBlock) {
  // Fleet-merged snapshots put the unlabeled local series first, then one
  // labeled series per shard, all adjacent. The exposition format allows
  // exactly one HELP/TYPE block per metric family.
  obs::Snapshot snap;
  snap.counters.push_back({"ccg.dist.agg.windows_merged", 4, {}});
  snap.counters.push_back({"ccg.dist.shard.windows", 2, 0});
  snap.counters.push_back({"ccg.dist.shard.windows", 3, 1});
  const std::string expected =
      "# HELP ccg_dist_agg_windows_merged_total ccg.dist.agg.windows_merged\n"
      "# TYPE ccg_dist_agg_windows_merged_total counter\n"
      "ccg_dist_agg_windows_merged_total 4\n"
      "# HELP ccg_dist_shard_windows_total ccg.dist.shard.windows\n"
      "# TYPE ccg_dist_shard_windows_total counter\n"
      "ccg_dist_shard_windows_total{shard=\"0\"} 2\n"
      "ccg_dist_shard_windows_total{shard=\"1\"} 3\n";
  EXPECT_EQ(obs::to_prometheus(snap), expected);
}

TEST(ObsExport, PrometheusHelpTextIsEscaped) {
  // The HELP line keeps the original name, escaping backslash and newline;
  // the metric name itself is sanitized to underscores.
  obs::Snapshot snap;
  snap.gauges.push_back({"ccg.test\\g\nx", 1.0, {}});
  EXPECT_EQ(obs::to_prometheus(snap),
            "# HELP ccg_test_g_x ccg.test\\\\g\\nx\n"
            "# TYPE ccg_test_g_x gauge\n"
            "ccg_test_g_x 1\n");
}

TEST(ObsExport, PrometheusLabeledHistogramAppendsLe) {
  obs::Snapshot snap;
  obs::HistogramSample h;
  h.name = "ccg.test.lat";
  h.buckets[0] = 2;
  h.buckets[31] = 1;
  h.count = 3;
  h.sum = 4.5;
  h.shard = 2;
  snap.histograms.push_back(std::move(h));
  const std::string text = obs::to_prometheus(snap);
  EXPECT_EQ(text.rfind("# HELP ccg_test_lat ccg.test.lat\n"
                       "# TYPE ccg_test_lat histogram\n"
                       "ccg_test_lat_bucket{shard=\"2\",le=\"1e-06\"} 2\n"
                       "ccg_test_lat_bucket{shard=\"2\",le=\"2e-06\"} 2\n",
                       0),
            0u)
      << text;
  const std::string tail =
      "ccg_test_lat_bucket{shard=\"2\",le=\"1073.74182\"} 2\n"
      "ccg_test_lat_bucket{shard=\"2\",le=\"+Inf\"} 3\n"
      "ccg_test_lat_sum{shard=\"2\"} 4.5\n"
      "ccg_test_lat_count{shard=\"2\"} 3\n";
  ASSERT_GE(text.size(), tail.size());
  EXPECT_EQ(text.substr(text.size() - tail.size()), tail);
}

TEST(ObsExport, JsonGolden) {
  const std::string expected =
      "{\n"
      "  \"counters\": {\n"
      "    \"ccg.test.requests\": 3\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"ccg.test.depth\": 2.5\n"
      "  },\n"
      "  \"histograms\": {\n"
      // p50/p90/p99 by hand: rank q*3 over one sample each in (2 µs, 4 µs],
      // (512 µs, 1024 µs] and the overflow bucket, which is interpolated
      // over (2^30 µs, max=2000]: p50 = 512 µs + 0.5 * 512 µs, p90 =
      // 1073.741824 + 0.7 * 926.258176.
      "    \"ccg.test.latency\": {\"count\": 3, \"sum\": 2000.001, \"min\": 3e-06,"
      " \"max\": 2000, \"p50\": 0.000768, \"p90\": 1722.12255,"
      " \"p99\": 1972.21225, \"buckets\": [{\"le\": 4e-06, \"n\": 1},"
      " {\"le\": 0.001024, \"n\": 1}, {\"le\": \"+Inf\", \"n\": 1}]}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(obs::to_json(golden_registry().snapshot()), expected);
}

TEST(ObsExport, SummaryTextSkipsZeroInstruments) {
  Registry registry;
  registry.counter("test.zero");
  registry.counter("test.nonzero").add(7);
  registry.histogram("test.empty");
  const std::string text = obs::summary_text(registry.snapshot());
  EXPECT_EQ(text.find("test.zero"), std::string::npos);
  EXPECT_EQ(text.find("test.empty"), std::string::npos);
  EXPECT_NE(text.find("test.nonzero"), std::string::npos);
}

// --- spans & trace ring ------------------------------------------------------

TEST(ObsSpan, MacroFeedsLatencyHistogram) {
  obs::Histogram& h = obs::span_histogram("ccg.test.spanned");
  const std::uint64_t before = h.count();
  for (int i = 0; i < 3; ++i) {
    CCG_OBS_SPAN("ccg.test.spanned");
  }
  EXPECT_EQ(h.count(), before + 3);
  EXPECT_GT(h.sum(), 0.0);
}

TEST(ObsSpan, TraceRingKeepsMostRecentEvents) {
  obs::TraceRing& ring = obs::TraceRing::global();
  ring.enable(2);
  for (int i = 0; i < 3; ++i) {
    CCG_OBS_SPAN("ccg.test.traced");
  }
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "ccg.test.traced");
  EXPECT_EQ(ring.dropped(), 1u);
  EXPECT_LE(events[0].start_ns, events[1].start_ns);
  ring.disable();
}

// --- end-to-end instrumentation ----------------------------------------------

TEST(ObsIntegration, AnalyticsServiceRecordsEveryStage) {
  Registry& registry = Registry::global();
  registry.reset();

  Cluster cluster(presets::tiny(), 7);
  TelemetryHub hub(ProviderProfile::azure(), 7);
  SimulationDriver driver(cluster, hub);
  const auto ips = cluster.monitored_ips();
  std::size_t reports = 0;
  AnalyticsService service(
      {.graph = {.facet = GraphFacet::kIp, .window_minutes = 60},
       .training_windows = 3,
       .spectral = {.rank = 8}},
      {ips.begin(), ips.end()}, [&](const WindowReport&) { ++reports; });
  hub.set_sink(&service);
  driver.run(TimeWindow::minutes(0, 5 * 60));
  service.flush();
  ASSERT_EQ(reports, 5u);

  // Every pipeline stage must have fired: 5 windows total, 3 of them
  // training-only (no spectral scoring).
  for (const char* stage :
       {"ccg.analytics.stage.build.seconds", "ccg.analytics.stage.edges.seconds",
        "ccg.analytics.stage.tracker.seconds",
        "ccg.analytics.stage.patterns.seconds",
        "ccg.analytics.stage.spectral.seconds",
        "ccg.analytics.spectral_fit.seconds"}) {
    EXPECT_GT(registry.histogram(stage).count(), 0u) << stage;
  }
  EXPECT_EQ(registry.counter("ccg.analytics.windows").value(), 5u);
  EXPECT_EQ(registry.counter("ccg.analytics.training_windows").value(), 3u);
  EXPECT_EQ(registry.histogram("ccg.analytics.stage.spectral.seconds").count(), 2u);
  EXPECT_EQ(registry.histogram("ccg.analytics.stage.tracker.seconds").count(), 5u);
  // The telemetry hub metered the same stream it handed to the service.
  EXPECT_GT(registry.counter("ccg.telemetry.records").value(), 0u);
  EXPECT_EQ(registry.counter("ccg.telemetry.batches").value(), 300u);
  EXPECT_GT(registry.histogram("ccg.telemetry.flush.seconds").count(), 0u);
}

}  // namespace
}  // namespace ccg
