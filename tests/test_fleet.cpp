// FleetRegistry: each shard's latest shipped snapshot wins, shard-numbered
// snapshot rendering, the retention cap for shipped spans, and the
// local+fleet process view every export renders.
#include "ccg/obs/fleet.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ccg/obs/export.hpp"
#include "ccg/obs/metrics.hpp"

namespace ccg {
namespace {

/// The fleet registry is global (the aggregator owns it); every test
/// starts and ends empty so ordering doesn't matter.
class FleetTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::FleetRegistry::global().clear(); }
  void TearDown() override { obs::FleetRegistry::global().clear(); }
};

obs::Snapshot counter_frame(const std::string& name, std::uint64_t value) {
  obs::Snapshot s;
  s.counters.push_back({name, value, {}});
  return s;
}

/// The samples of `snap` numbered `shard`, with the number removed.
obs::Snapshot shard_series(const obs::Snapshot& snap, std::uint32_t shard) {
  obs::Snapshot out;
  const auto pick = [&](const auto& samples, auto& into) {
    for (auto sample : samples) {
      if (sample.shard != shard) continue;
      sample.shard.reset();
      into.push_back(std::move(sample));
    }
  };
  pick(snap.counters, out.counters);
  pick(snap.gauges, out.gauges);
  pick(snap.histograms, out.histograms);
  return out;
}

TEST_F(FleetTest, StartsInactiveAndEmpty) {
  obs::FleetRegistry& fleet = obs::FleetRegistry::global();
  EXPECT_EQ(fleet.frames_applied(), 0u);
  const obs::Snapshot snap = fleet.labeled_snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

TEST_F(FleetTest, CountersAreTheLatestFramePerShard) {
  obs::FleetRegistry& fleet = obs::FleetRegistry::global();
  fleet.apply(0, counter_frame("ccg.dist.shard.records", 100));
  fleet.apply(1, counter_frame("ccg.dist.shard.records", 40));
  fleet.apply(0, counter_frame("ccg.dist.shard.records", 111));

  EXPECT_EQ(fleet.frames_applied(), 3u);
  obs::Snapshot snap = fleet.labeled_snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].value, 111u);  // shard 0's latest, not a sum
  EXPECT_EQ(snap.counters[0].shard, 0u);
  EXPECT_EQ(snap.counters[1].value, 40u);
  EXPECT_EQ(snap.counters[1].shard, 1u);

  // A series the shard's latest frame no longer carries is gone with it.
  fleet.apply(1, counter_frame("ccg.dist.shard.windows_shipped", 2));
  snap = fleet.labeled_snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "ccg.dist.shard.records");
  EXPECT_EQ(snap.counters[0].shard, 0u);
  EXPECT_EQ(snap.counters[1].name, "ccg.dist.shard.windows_shipped");
  EXPECT_EQ(snap.counters[1].shard, 1u);
}

TEST_F(FleetTest, RepeatedOrLatestOnlyFrameEqualsTheShardRegistry) {
  // One shard's registry, snapshotted as it grows: what a worker ships.
  obs::Registry shard;
  shard.counter("ccg.dist.shard.records").add(512);
  shard.gauge("ccg.parallel.threads").set(4.0);
  obs::Histogram& ship = shard.histogram("ccg.dist.shard.ship.seconds");
  ship.record(0.002);
  const obs::Snapshot first = shard.snapshot();
  shard.counter("ccg.dist.shard.records").add(488);
  shard.gauge("ccg.parallel.threads").set(2.0);
  ship.record(0.5);
  const obs::Snapshot latest = shard.snapshot();

  obs::FleetRegistry& fleet = obs::FleetRegistry::global();
  fleet.apply(0, first);  // shard 0: every frame, the latest one twice
  fleet.apply(0, latest);
  fleet.apply(0, latest);
  fleet.apply(1, latest);  // shard 1: only the latest frame

  const obs::Snapshot snap = fleet.labeled_snapshot();
  EXPECT_EQ(obs::to_json(shard_series(snap, 0)), obs::to_json(latest));
  EXPECT_EQ(obs::to_json(shard_series(snap, 1)), obs::to_json(latest));
}

TEST_F(FleetTest, GaugesAreLastWrite) {
  obs::FleetRegistry& fleet = obs::FleetRegistry::global();
  obs::Snapshot d;
  d.gauges.push_back({"ccg.dist.agg.queue_depth_hwm", 4.0, {}});
  fleet.apply(2, d);
  d.gauges[0].value = 1.5;
  fleet.apply(2, d);
  const obs::Snapshot snap = fleet.labeled_snapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 1.5);
  EXPECT_EQ(snap.gauges[0].shard, 2u);
}

TEST_F(FleetTest, LabeledSnapshotSortsByNameThenNumericShard) {
  obs::FleetRegistry& fleet = obs::FleetRegistry::global();
  // Shard 10 must sort after shard 2 (numeric, not lexicographic).
  fleet.apply(10, counter_frame("b.metric", 1));
  fleet.apply(2, counter_frame("b.metric", 1));
  fleet.apply(7, counter_frame("a.metric", 1));
  const obs::Snapshot snap = fleet.labeled_snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "a.metric");
  EXPECT_EQ(snap.counters[1].name, "b.metric");
  EXPECT_EQ(snap.counters[1].shard, 2u);
  EXPECT_EQ(snap.counters[2].shard, 10u);
}

TEST_F(FleetTest, HistogramIsTheLatestFrame) {
  obs::FleetRegistry& fleet = obs::FleetRegistry::global();
  obs::Snapshot frame;
  obs::HistogramSample h;
  h.name = "ccg.analytics.window.seconds";
  h.buckets[20] = 2;
  h.count = 2;
  h.sum = 1.0;
  h.min = 0.4;
  h.max = 0.6;
  frame.histograms.push_back(h);
  fleet.apply(0, frame);

  // The shard's next frame restates the whole histogram.
  h.buckets[21] = 3;
  h.count = 5;
  h.sum = 5.5;
  h.max = 1.8;
  frame.histograms = {h};
  fleet.apply(0, frame);

  const obs::Snapshot snap = fleet.labeled_snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const obs::HistogramSample& latest = snap.histograms[0];
  EXPECT_EQ(latest.count, 5u);
  EXPECT_DOUBLE_EQ(latest.sum, 5.5);
  EXPECT_DOUBLE_EQ(latest.min, 0.4);
  EXPECT_DOUBLE_EQ(latest.max, 1.8);
  EXPECT_EQ(latest.buckets, h.buckets);
  EXPECT_DOUBLE_EQ(obs::quantile(latest, 0.5), obs::quantile(h, 0.5));
  EXPECT_EQ(latest.shard, 0u);
}

TEST_F(FleetTest, SpanRetentionDropsOverflowAndCountsIt) {
  obs::FleetRegistry& fleet = obs::FleetRegistry::global();
  const std::size_t cap = obs::FleetRegistry::span_capacity();
  std::vector<obs::TraceEvent> spans(cap + 7);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    spans[i].name = "s";
    spans[i].start_ns = i;
  }
  fleet.add_spans(3, spans);
  const auto by_shard = fleet.spans_by_shard();
  ASSERT_EQ(by_shard.size(), 1u);
  EXPECT_EQ(by_shard[0].first, 3u);
  EXPECT_EQ(by_shard[0].second.size(), cap);
  EXPECT_EQ(fleet.spans_dropped(3), 7u);
}

TEST_F(FleetTest, MergeSnapshotsPutsUnlabeledFirstPerName) {
  obs::Registry& local = obs::Registry::global();
  local.counter("ccg.test.merge.b_shared").add(9);
  local.counter("ccg.test.merge.c_local_only").add(1);

  obs::FleetRegistry& fleet = obs::FleetRegistry::global();
  obs::Snapshot shard0;
  shard0.counters.push_back({"ccg.test.merge.a_fleet_only", 2, {}});
  shard0.counters.push_back({"ccg.test.merge.b_shared", 4, {}});
  fleet.apply(0, shard0);
  fleet.apply(1, counter_frame("ccg.test.merge.b_shared", 5));

  std::vector<obs::CounterSample> merged;
  for (const obs::CounterSample& c : obs::process_snapshot().counters) {
    if (c.name.rfind("ccg.test.merge.", 0) == 0) merged.push_back(c);
  }
  ASSERT_EQ(merged.size(), 5u);
  EXPECT_EQ(merged[0].name, "ccg.test.merge.a_fleet_only");
  // Same name: the local series leads its shard series, so the Prometheus
  // renderer emits one header block for the family.
  EXPECT_EQ(merged[1].name, "ccg.test.merge.b_shared");
  EXPECT_FALSE(merged[1].shard.has_value());
  EXPECT_EQ(merged[1].value, 9u);
  EXPECT_EQ(merged[2].shard, 0u);
  EXPECT_EQ(merged[3].shard, 1u);
  EXPECT_EQ(merged[4].name, "ccg.test.merge.c_local_only");
}

TEST_F(FleetTest, ClearResetsEverything) {
  obs::FleetRegistry& fleet = obs::FleetRegistry::global();
  fleet.apply(0, counter_frame("x", 1));
  fleet.add_spans(0, std::vector<obs::TraceEvent>(3));
  fleet.clear();
  EXPECT_EQ(fleet.frames_applied(), 0u);
  EXPECT_TRUE(fleet.spans_by_shard().empty());
}

}  // namespace
}  // namespace ccg
