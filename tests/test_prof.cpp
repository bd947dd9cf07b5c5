// Span-time profile: folded stacks, per-frame self/total, per-window time
// and `(untracked)` wall time, built from TraceRing events.
//
// The suites run in the TSan job (its filter matches `Prof`): the profile
// is a pure function of ring events, and the pipeline test drives the same
// pool and ring the Obs suites do.
#include "ccg/obs/prof.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ccg/analytics/service.hpp"
#include "ccg/obs/span.hpp"
#include "ccg/obs/trace.hpp"
#include "ccg/workload/driver.hpp"
#include "ccg/workload/presets.hpp"

namespace ccg {
namespace {

namespace prof = obs::prof;

obs::TraceEvent span(const char* name, std::uint64_t id, std::uint64_t parent,
                     std::uint64_t trace, std::uint64_t start,
                     std::uint64_t duration) {
  obs::TraceEvent e;
  e.name = name;
  e.span_id = id;
  e.parent_id = parent;
  e.trace_id = trace;
  e.start_ns = start;
  e.duration_ns = duration;
  return e;
}

TEST(ProfAggregation, FoldedAndCostsFromSyntheticSamples) {
  // Interval [1000, 2000). Children close before their parents, so they
  // come first in ring order.
  prof::Profile profile;
  profile.start_ns = 1000;
  profile.wall_ns = 1000;
  profile.spans = {
      // a [1100, 1600) with child b: nesting folds to "a;b".
      span("b", 2, 1, 7, 1200, 200),
      span("a", 1, 0, 7, 1100, 500),
      // c [1700, 1800) with two concurrent worker-thread children of 80 ns
      // each: 160 ns of children in a 100 ns parent clamps c's self at 0.
      span("w", 4, 3, 8, 1700, 80),
      span("w", 5, 3, 8, 1710, 80),
      span("c", 3, 0, 8, 1700, 100),
      // d's parent 6 was evicted from the ring: d becomes a root.
      span("d", 7, 6, 8, 1650, 40),
  };

  // Roots cover 500 + 100 + 40 ns of the 1000 ns interval.
  const auto folded = profile.folded();
  const std::vector<std::pair<std::string, std::uint64_t>> want_folded = {
      {"(untracked)", 360}, {"a", 300}, {"a;b", 200},
      {"c", 0},             {"c;w", 160}, {"d", 40},
  };
  EXPECT_EQ(folded, want_folded);
  EXPECT_EQ(profile.folded_text(),
            "(untracked) 360\na 300\na;b 200\nc 0\nc;w 160\nd 40\n");

  const auto costs = profile.frame_costs();
  ASSERT_EQ(costs.size(), 6u);
  const auto cost = [&costs](const std::string& name) {
    for (const prof::FrameCost& c : costs) {
      if (c.name == name) return c;
    }
    ADD_FAILURE() << "no frame " << name;
    return prof::FrameCost{};
  };
  // Sorted by self, descending.
  EXPECT_EQ(costs[0].name, "(untracked)");
  EXPECT_EQ(costs[1].name, "a");
  EXPECT_EQ(costs[2].name, "b");
  EXPECT_EQ(costs[3].name, "w");
  EXPECT_EQ(costs[4].name, "d");
  EXPECT_EQ(costs[5].name, "c");
  // self + children = total, and total is the span's duration.
  EXPECT_EQ(cost("a").self_ns, 300u);
  EXPECT_EQ(cost("a").total_ns, 500u);
  EXPECT_EQ(cost("a").self_ns + cost("b").total_ns, cost("a").total_ns);
  EXPECT_EQ(cost("b").self_ns, 200u);
  EXPECT_EQ(cost("b").total_ns, 200u);
  // Overlapping children: the parent keeps no self time, and its total is
  // the children's summed time, past its own duration.
  EXPECT_EQ(cost("c").self_ns, 0u);
  EXPECT_EQ(cost("c").total_ns, 160u);
  EXPECT_EQ(cost("w").self_ns, 160u);
  EXPECT_EQ(cost("d").self_ns, 40u);
  EXPECT_EQ(cost("d").total_ns, 40u);
  EXPECT_EQ(cost("(untracked)").self_ns, 360u);

  // Untracked time belongs to no window.
  const auto by_window = profile.window_costs();
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> want_windows = {
      {0, 360}, {7, 500}, {8, 200}};
  EXPECT_EQ(by_window, want_windows);

  const std::string table = profile.table_text();
  EXPECT_NE(table.find("6 spans over"), std::string::npos);
  EXPECT_NE(table.find("self(s)"), std::string::npos);
  const std::string json = profile.to_json();
  EXPECT_NE(json.find("\"spans\": 6"), std::string::npos);
  EXPECT_NE(json.find("{\"stack\": \"a;b\", \"ns\": 200}"), std::string::npos);
}

/// Folded stacks from a pipeline run's ring match the span tree `ccgraph
/// trace` prints: stage frames sit under the window root, and every
/// window id is a real window of the run.
TEST(ProfIntegration, PipelineFoldedStacksMatchSpanTree) {
  obs::TraceRing::global().enable(1 << 12);
  const auto start = std::chrono::steady_clock::now();

  Cluster cluster(presets::tiny(), 31);
  TelemetryHub hub(ProviderProfile::azure(), 31);
  SimulationDriver driver(cluster, hub);
  const auto ips = cluster.monitored_ips();
  AnalyticsService service(
      {.graph = {.facet = GraphFacet::kIp, .window_minutes = 5},
       .training_windows = 1},
      {ips.begin(), ips.end()}, [](const WindowReport&) {});
  hub.set_sink(&service);
  driver.run(TimeWindow::minutes(0, 15));
  service.flush();

  const prof::Profile profile = prof::capture(start);
  obs::TraceRing::global().disable();
  ASSERT_EQ(profile.dropped, 0u);
  ASSERT_GT(profile.spans.size(), 0u);

  // The hub traces each minute's batch (and the graph build it feeds)
  // under that minute's id; windows begin at minutes 0, 5 and 10.
  std::set<std::uint64_t> minute_ids{0};
  for (std::int64_t m = 0; m < 15; ++m) minute_ids.insert(obs::window_trace_id(m));
  for (const auto& [trace_id, ns] : profile.window_costs()) {
    EXPECT_TRUE(minute_ids.contains(trace_id))
        << "time attributed to nonexistent trace 0x" << std::hex << trace_id;
  }
  std::set<std::uint64_t> window_ids;
  for (const obs::TraceEvent& e : profile.spans) {
    if (e.name == "ccg.analytics.window") window_ids.insert(e.trace_id);
  }
  EXPECT_EQ(window_ids, (std::set<std::uint64_t>{obs::window_trace_id(0),
                                                 obs::window_trace_id(5),
                                                 obs::window_trace_id(10)}));

  // An analysis-stage frame is always preceded by the window root, as the
  // span tree nests stages under ccg.analytics.window. stage.build is the
  // exception by design: graph building runs during per-minute ingestion,
  // before the window closes, so it is a root span and a root frame.
  std::size_t stage_stacks = 0;
  bool saw_window = false;
  for (const auto& [stack, ns] : profile.folded()) {
    const auto stage_at = stack.find("ccg.analytics.stage.");
    const auto window_at = stack.find("ccg.analytics.window");
    if (window_at != std::string::npos) saw_window = true;
    if (stage_at == std::string::npos) continue;
    if (stack.compare(stage_at, 25, "ccg.analytics.stage.build") == 0) {
      EXPECT_EQ(stage_at, 0u) << "stage.build must be a root: " << stack;
      continue;
    }
    ++stage_stacks;
    ASSERT_NE(window_at, std::string::npos)
        << "orphaned stage frame in: " << stack;
    EXPECT_LT(window_at, stage_at) << "window must be outer in: " << stack;
  }
  EXPECT_TRUE(saw_window);
  EXPECT_GT(stage_stacks, 0u);
}

TEST(ProfRings, DefaultTraceRingCapacityIsPositive) {
  EXPECT_EQ(obs::kTraceRingCapacity, std::size_t{1} << 16);
}

}  // namespace
}  // namespace ccg
