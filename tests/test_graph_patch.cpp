// GraphPatch: the exact (lossless) delta under the snapshot store. The
// contract tested here is stronger than value equality — apply_patch must
// reproduce the target's NodeId/EdgeId assignment order, because downstream
// analyses tie-break by iteration order.
#include "ccg/graph/delta.hpp"

#include <gtest/gtest.h>

#include "ccg/common/rng.hpp"
#include "ccg/graph/builder.hpp"
#include "ccg/workload/driver.hpp"
#include "ccg/workload/presets.hpp"

namespace ccg {
namespace {

CommGraph random_graph(std::uint64_t seed, std::size_t nodes = 25,
                       std::size_t edges = 60) {
  Rng rng(seed);
  CommGraph g(TimeWindow::hour(1));
  for (std::size_t i = 0; i < nodes; ++i) {
    const NodeId id = g.add_node(NodeKey::for_ip(IpAddr(static_cast<std::uint32_t>(i + 1))));
    g.set_monitored(id, rng.chance(0.5));
  }
  for (std::size_t e = 0; e < edges; ++e) {
    const NodeId a = static_cast<NodeId>(rng.uniform(nodes));
    NodeId b = static_cast<NodeId>(rng.uniform(nodes));
    if (a == b) b = (b + 1) % nodes;
    g.add_edge_volume(a, b, rng.uniform(1 << 20), rng.uniform(1 << 20),
                      rng.uniform(1 << 10), rng.uniform(1 << 10),
                      1 + rng.uniform(60),
                      1 + static_cast<std::uint32_t>(rng.uniform(60)),
                      rng.uniform(30), rng.uniform(30),
                      rng.chance(0.8) ? static_cast<std::int32_t>(rng.uniform(65536)) : -1);
  }
  return g;
}

/// Per-window graphs from a simulated workload — realistic churn: most
/// nodes/edges persist window over window, some come and go.
std::vector<CommGraph> workload_windows(std::int64_t minutes,
                                        std::int64_t window_minutes,
                                        std::uint64_t seed) {
  Cluster cluster(presets::tiny(), seed);
  TelemetryHub hub(ProviderProfile::azure(), seed);
  SimulationDriver driver(cluster, hub);
  const auto ips = cluster.monitored_ips();
  GraphBuilder builder({.facet = GraphFacet::kIp,
                        .window_minutes = window_minutes,
                        .collapse_threshold = 0.001},
                       {ips.begin(), ips.end()});
  hub.set_sink(&builder);
  driver.run(TimeWindow::minutes(0, minutes));
  builder.flush();
  return builder.take_graphs();
}

TEST(GraphPatch, KeyframeRoundTripsRandomGraphs) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const CommGraph g = random_graph(seed);
    const GraphPatch keyframe = make_patch(CommGraph{}, g);
    EXPECT_EQ(keyframe.nodes.size(), g.node_count());
    EXPECT_EQ(keyframe.edges.size(), g.edge_count());
    for (const auto& n : keyframe.nodes) EXPECT_LT(n.ref, 0);
    const auto rebuilt = apply_patch(CommGraph{}, keyframe);
    ASSERT_TRUE(rebuilt.has_value()) << "seed " << seed;
    EXPECT_TRUE(graphs_identical(g, *rebuilt));
  }
}

TEST(GraphPatch, DeltaChainReproducesWorkloadWindows) {
  const auto windows = workload_windows(120, 5, 99);
  ASSERT_GE(windows.size(), 20u);

  // Keyframe the first window, then roll deltas forward — exactly the
  // store's materialization loop — and demand bit-identical graphs.
  auto current = apply_patch(CommGraph{}, make_patch(CommGraph{}, windows[0]));
  ASSERT_TRUE(current.has_value());
  ASSERT_TRUE(graphs_identical(windows[0], *current));
  for (std::size_t i = 1; i < windows.size(); ++i) {
    const GraphPatch patch = make_patch(*current, windows[i]);
    // Churn sanity: consecutive tiny-preset windows share most nodes, so
    // the patch must actually reference the base instead of re-emitting.
    std::size_t refs = 0;
    for (const auto& n : patch.nodes) refs += n.ref >= 0 ? 1 : 0;
    EXPECT_GT(refs, patch.nodes.size() / 2) << "window " << i;
    current = apply_patch(*current, patch);
    ASSERT_TRUE(current.has_value()) << "window " << i;
    ASSERT_TRUE(graphs_identical(windows[i], *current)) << "window " << i;
  }
}

TEST(GraphPatch, AppliesEndpointOrientationFlip) {
  // Same conversation in both windows, but the target assigns NodeIds in
  // the opposite order, so the canonical (a < b) edge flips direction and
  // its ab/ba stats must swap on the way through the patch.
  CommGraph before(TimeWindow::hour(0));
  before.add_node(NodeKey::for_ip(IpAddr(1u)));
  before.add_node(NodeKey::for_ip(IpAddr(2u)));
  before.add_edge_volume(0, 1, 1000, 50, 10, 5, 3, 3, 2, 0, 443);

  CommGraph after(TimeWindow::hour(1));
  after.add_node(NodeKey::for_ip(IpAddr(2u)));  // order swapped
  after.add_node(NodeKey::for_ip(IpAddr(1u)));
  after.add_edge_volume(0, 1, 60, 1200, 6, 12, 4, 4, 0, 3, 443);

  const GraphPatch patch = make_patch(before, after);
  ASSERT_EQ(patch.edges.size(), 1u);
  EXPECT_GE(patch.edges[0].ref, 0) << "same conversation must be a ref";
  const auto rebuilt = apply_patch(before, patch);
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_TRUE(graphs_identical(after, *rebuilt));
  EXPECT_EQ(rebuilt->edge(0).stats.bytes_ab, 60u);
  EXPECT_EQ(rebuilt->edge(0).stats.bytes_ba, 1200u);
}

TEST(GraphPatch, CarriesFlagChangesOnReferencedNodes) {
  CommGraph before(TimeWindow::hour(0));
  before.add_node(NodeKey::for_ip(IpAddr(1u)));
  before.set_monitored(0, false);

  CommGraph after(TimeWindow::hour(1));
  after.add_node(NodeKey::for_ip(IpAddr(1u)));
  after.set_monitored(0, true);

  const auto rebuilt = apply_patch(before, make_patch(before, after));
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_TRUE(rebuilt->node_stats(0).monitored);
  EXPECT_TRUE(graphs_identical(after, *rebuilt));
}

TEST(GraphPatch, RejectsInconsistentPatches) {
  const CommGraph base = random_graph(5, 8, 12);

  {
    GraphPatch dangling = make_patch(base, base);
    dangling.nodes[0].ref = 99;  // no such node in base
    EXPECT_FALSE(apply_patch(base, dangling).has_value());
  }
  {
    GraphPatch dup = make_patch(CommGraph{}, base);
    dup.nodes[1] = dup.nodes[0];  // duplicate new-node key
    EXPECT_FALSE(apply_patch(CommGraph{}, dup).has_value());
  }
  {
    GraphPatch dup_edge = make_patch(CommGraph{}, base);
    ASSERT_GE(dup_edge.edges.size(), 2u);
    dup_edge.edges[1] = dup_edge.edges[0];  // same pair twice
    EXPECT_FALSE(apply_patch(CommGraph{}, dup_edge).has_value());
  }
  {
    // A patch made against one base must not silently apply to another.
    GraphPatch patch = make_patch(base, base);
    EXPECT_FALSE(apply_patch(CommGraph{}, patch).has_value());
  }
}

TEST(GraphPatch, GraphsIdenticalIsOrderSensitive) {
  CommGraph a(TimeWindow::hour(0));
  a.add_node(NodeKey::for_ip(IpAddr(1u)));
  a.add_node(NodeKey::for_ip(IpAddr(2u)));
  CommGraph b(TimeWindow::hour(0));
  b.add_node(NodeKey::for_ip(IpAddr(2u)));
  b.add_node(NodeKey::for_ip(IpAddr(1u)));
  EXPECT_TRUE(graphs_identical(a, a));
  EXPECT_FALSE(graphs_identical(a, b)) << "same keys, different NodeId order";
}

}  // namespace
}  // namespace ccg
