#include "ccg/graph/builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "ccg/common/expect.hpp"
#include "ccg/common/rng.hpp"
#include "ccg/graph/comm_graph.hpp"
#include "ccg/graph/delta.hpp"
#include "ccg/store/format.hpp"
#include "ccg/telemetry/collector.hpp"
#include "ccg/workload/driver.hpp"
#include "ccg/workload/presets.hpp"

namespace ccg {
namespace {

ConnectionSummary record(std::int64_t minute, IpAddr local, std::uint16_t lport,
                         IpAddr remote, std::uint16_t rport,
                         std::uint64_t bytes_sent, std::uint64_t bytes_rcvd) {
  return ConnectionSummary{
      .time = MinuteBucket(minute),
      .flow = FlowKey{.local_ip = local, .local_port = lport,
                      .remote_ip = remote, .remote_port = rport,
                      .protocol = Protocol::kTcp},
      .counters = TrafficCounters{.packets_sent = bytes_sent / 1000 + 1,
                                  .packets_rcvd = bytes_rcvd / 1000 + 1,
                                  .bytes_sent = bytes_sent,
                                  .bytes_rcvd = bytes_rcvd}};
}

const IpAddr kA(0x0A000001), kB(0x0A000002), kC(0x0A000003), kX(0x64000001);

TEST(CommGraph, AddNodeIsIdempotent) {
  CommGraph g;
  const NodeId a = g.add_node(NodeKey::for_ip(kA));
  EXPECT_EQ(g.add_node(NodeKey::for_ip(kA)), a);
  EXPECT_EQ(g.node_count(), 1u);
  EXPECT_EQ(g.find_node(NodeKey::for_ip(kA)), a);
  EXPECT_FALSE(g.find_node(NodeKey::for_ip(kB)).has_value());
}

TEST(CommGraph, EdgeVolumeAccumulatesAndCanonicalizes) {
  CommGraph g;
  const NodeId a = g.add_node(NodeKey::for_ip(kA));
  const NodeId b = g.add_node(NodeKey::for_ip(kB));
  g.add_edge_volume(a, b, 100, 50, 1, 1, 1, 1);
  // Reverse orientation must land on the same edge, direction-swapped.
  g.add_edge_volume(b, a, 30, 10, 1, 1, 1, 1);

  EXPECT_EQ(g.edge_count(), 1u);
  const Edge& e = g.edge(0);
  EXPECT_EQ(e.a, a);
  EXPECT_EQ(e.b, b);
  EXPECT_EQ(e.stats.bytes_ab, 110u);  // 100 + reversed 10
  EXPECT_EQ(e.stats.bytes_ba, 80u);   // 50 + reversed 30
  EXPECT_EQ(e.stats.bytes(), 190u);
  EXPECT_EQ(g.total_bytes(), 190u);
  EXPECT_EQ(g.node_stats(a).bytes, 190u);
  EXPECT_EQ(g.node_stats(b).bytes, 190u);
}

TEST(CommGraph, RejectsSelfEdges) {
  CommGraph g;
  const NodeId a = g.add_node(NodeKey::for_ip(kA));
  EXPECT_THROW(g.add_edge_volume(a, a, 1, 1, 1, 1, 1, 1), ContractViolation);
}

TEST(CommGraph, NeighborsAndDegree) {
  CommGraph g;
  const NodeId a = g.add_node(NodeKey::for_ip(kA));
  const NodeId b = g.add_node(NodeKey::for_ip(kB));
  const NodeId c = g.add_node(NodeKey::for_ip(kC));
  g.add_edge_volume(a, b, 1, 0, 1, 0, 1, 1);
  g.add_edge_volume(a, c, 1, 0, 1, 0, 1, 1);
  EXPECT_EQ(g.degree(a), 2u);
  EXPECT_EQ(g.degree(b), 1u);
  EXPECT_TRUE(g.find_edge(a, c).has_value());
  EXPECT_TRUE(g.find_edge(c, a).has_value());
  EXPECT_FALSE(g.find_edge(b, c).has_value());
}

TEST(CommGraph, DenseByteMatrixIsSymmetric) {
  CommGraph g;
  const NodeId a = g.add_node(NodeKey::for_ip(kA));
  const NodeId b = g.add_node(NodeKey::for_ip(kB));
  g.add_edge_volume(a, b, 70, 30, 1, 1, 1, 1);
  const auto m = g.dense_byte_matrix();
  ASSERT_EQ(m.size(), 4u);
  EXPECT_EQ(m[0 * 2 + 1], 100.0);
  EXPECT_EQ(m[1 * 2 + 0], 100.0);
  EXPECT_EQ(m[0], 0.0);
  EXPECT_THROW(g.dense_byte_matrix(1), ContractViolation);
}

TEST(GraphBuilder, DeduplicatesBothSidesOfOneConversation) {
  GraphBuilder builder({.facet = GraphFacet::kIp, .window_minutes = 60}, {kA, kB});
  // The same conversation reported by both endpoints.
  builder.ingest(record(0, kA, 40000, kB, 443, 500, 1000));
  builder.ingest(record(0, kB, 443, kA, 40000, 1000, 500));
  builder.flush();

  ASSERT_EQ(builder.graphs().size(), 1u);
  const CommGraph& g = builder.graphs()[0];
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.edge(0).stats.bytes(), 1500u);  // NOT 3000: deduplicated
  EXPECT_EQ(g.edge(0).stats.connection_minutes, 1u);
}

TEST(GraphBuilder, OneSidedFlowsStillCounted) {
  GraphBuilder builder({.facet = GraphFacet::kIp, .window_minutes = 60}, {kA});
  builder.ingest(record(0, kA, 40000, kX, 443, 200, 800));  // internet peer
  builder.flush();
  const CommGraph& g = builder.graphs()[0];
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.edge(0).stats.bytes(), 1000u);
  // Monitored flag set only for the local VM.
  const NodeId a = *g.find_node(NodeKey::for_ip(kA));
  const NodeId x = *g.find_node(NodeKey::for_ip(kX));
  EXPECT_TRUE(g.node_stats(a).monitored);
  EXPECT_FALSE(g.node_stats(x).monitored);
}

TEST(GraphBuilder, WindowsRollAtAlignedBoundaries) {
  GraphBuilder builder({.facet = GraphFacet::kIp, .window_minutes = 60}, {kA, kB});
  builder.ingest(record(10, kA, 40000, kB, 443, 100, 0));
  builder.ingest(record(59, kA, 40000, kB, 443, 100, 0));
  builder.ingest(record(60, kA, 40000, kB, 443, 100, 0));  // next hour
  builder.flush();

  ASSERT_EQ(builder.graphs().size(), 2u);
  EXPECT_EQ(builder.graphs()[0].window(), TimeWindow::hour(0));
  EXPECT_EQ(builder.graphs()[1].window(), TimeWindow::hour(1));
  EXPECT_EQ(builder.graphs()[0].edge(0).stats.bytes(), 200u);
  EXPECT_EQ(builder.graphs()[1].edge(0).stats.bytes(), 100u);
}

TEST(GraphBuilder, ActiveMinutesAndConnectionMinutes) {
  GraphBuilder builder({.facet = GraphFacet::kIp, .window_minutes = 60}, {kA, kB});
  builder.ingest(record(0, kA, 40000, kB, 443, 100, 0));
  builder.ingest(record(1, kA, 40000, kB, 443, 100, 0));
  builder.ingest(record(1, kA, 40001, kB, 443, 100, 0));  // second flow, same pair
  builder.ingest(record(5, kA, 40000, kB, 443, 100, 0));
  builder.flush();
  const Edge& e = builder.graphs()[0].edge(0);
  EXPECT_EQ(e.stats.active_minutes, 3u);       // minutes 0, 1, 5
  EXPECT_EQ(e.stats.connection_minutes, 4u);   // four flow-minute records
}

TEST(GraphBuilder, IpPortFacetSplitsServices) {
  GraphBuilder builder({.facet = GraphFacet::kIpPort, .window_minutes = 60}, {kA, kB});
  builder.ingest(record(0, kA, 40000, kB, 443, 100, 0));
  builder.ingest(record(0, kA, 40000, kB, 8080, 100, 0));
  builder.flush();
  const CommGraph& g = builder.graphs()[0];
  // (A,40000), (B,443), (B,8080): the IP-port graph is strictly larger.
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 2u);
}

TEST(GraphBuilder, ServiceFacetKeepsServerIdentityOnly) {
  GraphBuilder builder({.facet = GraphFacet::kService, .window_minutes = 60},
                       {kA, kB});
  // kA runs two services (443, 8080); kB's client side uses ephemeral
  // ports that must NOT become nodes.
  builder.ingest(record(0, kB, 41000, kA, 443, 100, 200));
  builder.ingest(record(0, kA, 443, kB, 41000, 200, 100));
  builder.ingest(record(0, kB, 42000, kA, 8080, 100, 200));
  builder.ingest(record(0, kA, 8080, kB, 42000, 200, 100));
  builder.flush();
  const CommGraph& g = builder.graphs()[0];

  // Nodes: kB (client, IP-level), (kA, 443), (kA, 8080).
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_TRUE(g.find_node(NodeKey::for_ip(kB)).has_value());
  EXPECT_TRUE(g.find_node(NodeKey::for_ip_port(kA, 443)).has_value());
  EXPECT_TRUE(g.find_node(NodeKey::for_ip_port(kA, 8080)).has_value());
  EXPECT_FALSE(g.find_node(NodeKey::for_ip(kA)).has_value());
  EXPECT_EQ(g.edge_count(), 2u);
  // Both sides' reports still deduplicate into one conversation per edge.
  EXPECT_EQ(g.total_bytes(), 600u);
}

TEST(GraphBuilder, ServiceFacetSplitsMultiRoleVm) {
  // kA is a server on 443 AND a client of kC: it appears as two nodes —
  // the paper's "resources may have multiple roles".
  GraphBuilder builder({.facet = GraphFacet::kService, .window_minutes = 60},
                       {kA, kB, kC});
  builder.ingest(record(0, kB, 41000, kA, 443, 100, 0));
  builder.ingest(record(0, kA, 39000, kC, 5432, 50, 0));
  builder.flush();
  const CommGraph& g = builder.graphs()[0];
  EXPECT_TRUE(g.find_node(NodeKey::for_ip_port(kA, 443)).has_value());
  EXPECT_TRUE(g.find_node(NodeKey::for_ip(kA)).has_value());  // client half
  EXPECT_EQ(g.node_count(), 4u);
}

TEST(GraphBuilder, CollapsesSmallRemotePeersOnly) {
  GraphBuilder builder({.facet = GraphFacet::kIp,
                        .window_minutes = 60,
                        .collapse_threshold = 0.01},
                       {kA});
  // One heavy remote peer (active all hour) and 50 tiny one-shot ones. A
  // node survives if it clears the threshold on bytes, packets OR
  // connection-minutes, so the tail must be small on all three axes.
  for (std::int64_t m = 0; m < 60; ++m) {
    builder.ingest(record(m, kA, 40000, kB, 443, 1'000'000, 0));
  }
  for (std::uint32_t i = 0; i < 50; ++i) {
    builder.ingest(record(0, kA, 40000, IpAddr(0x64000100 + i), 443, 10, 0));
  }
  builder.flush();
  const CommGraph& g = builder.graphs()[0];
  // kA (monitored, exempt), kB (heavy), <other> (50 collapsed).
  EXPECT_EQ(g.node_count(), 3u);
  const auto other = g.find_node(NodeKey::collapsed());
  ASSERT_TRUE(other.has_value());
  EXPECT_EQ(g.node_stats(*other).collapsed_members, 50u);
}

TEST(GraphBuilder, CollapseKeepsMonitoredNodes) {
  GraphBuilder builder({.facet = GraphFacet::kIp,
                        .window_minutes = 60,
                        .collapse_threshold = 0.4},
                       {kA, kB, kC});
  for (std::int64_t m = 0; m < 10; ++m) {
    builder.ingest(record(m, kA, 40000, kB, 443, 1'000'000, 0));
  }
  builder.ingest(record(0, kA, 40001, kC, 443, 10, 0));  // kC tiny but monitored
  builder.flush();
  const CommGraph& g = builder.graphs()[0];
  EXPECT_TRUE(g.find_node(NodeKey::for_ip(kC)).has_value());
  EXPECT_FALSE(g.find_node(NodeKey::collapsed()).has_value());
}

TEST(GraphBuilder, TracksInitiatorDirectionAndServerPort) {
  GraphBuilder builder({.facet = GraphFacet::kIp, .window_minutes = 60}, {kA, kB});
  // Client kA -> server kB:443, both sides report.
  builder.ingest(record(0, kA, 40000, kB, 443, 500, 1000));
  builder.ingest(record(0, kB, 443, kA, 40000, 1000, 500));
  builder.ingest(record(1, kA, 40000, kB, 443, 500, 1000));
  builder.ingest(record(1, kB, 443, kA, 40000, 1000, 500));
  builder.flush();
  const CommGraph& g = builder.graphs()[0];
  const NodeId a = *g.find_node(NodeKey::for_ip(kA));
  const NodeId b = *g.find_node(NodeKey::for_ip(kB));
  const EdgeId e = *g.find_edge(a, b);
  EXPECT_EQ(g.edge_role(a, e), CommGraph::EdgeRole::kInitiator);
  EXPECT_EQ(g.edge_role(b, e), CommGraph::EdgeRole::kResponder);
  EXPECT_EQ(g.edge(e).stats.server_port_hint, 443);
}

TEST(GraphBuilder, InitiatorBitOverridesPortHeuristic) {
  // gRPC-style service port (50051) in the ephemeral range: only the
  // initiator bit keeps the direction straight on the server-side record.
  GraphBuilder builder({.facet = GraphFacet::kIp, .window_minutes = 60}, {kA, kB});
  auto client_side = record(0, kA, 41000, kB, 50051, 100, 200);
  client_side.initiator = Initiator::kLocal;
  auto server_side = record(0, kB, 50051, kA, 41000, 200, 100);
  server_side.initiator = Initiator::kRemote;
  builder.ingest(client_side);
  builder.ingest(server_side);
  builder.flush();
  const CommGraph& g = builder.graphs()[0];
  const NodeId a = *g.find_node(NodeKey::for_ip(kA));
  const EdgeId e = 0;
  EXPECT_EQ(g.edge_role(a, e), CommGraph::EdgeRole::kInitiator);
  EXPECT_EQ(g.edge(e).stats.server_port_hint, 50051);
}

TEST(GraphBuilder, MergeGraphsEqualsSingleBuilder) {
  const GraphBuildConfig config{.facet = GraphFacet::kIp, .window_minutes = 60};
  GraphBuilder whole(config, {kA, kB, kC});
  GraphBuilder part1(config, {kA, kB, kC});
  GraphBuilder part2(config, {kA, kB, kC});

  const auto r1 = record(0, kA, 40000, kB, 443, 500, 100);
  const auto r2 = record(0, kA, 40000, kC, 443, 300, 50);
  whole.ingest(r1);
  whole.ingest(r2);
  part1.ingest(r1);  // edge A-B in shard 1
  part2.ingest(r2);  // edge A-C in shard 2
  whole.flush();
  part1.flush();
  part2.flush();

  std::vector<CommGraph> parts;
  parts.push_back(part1.graphs()[0]);
  parts.push_back(part2.graphs()[0]);
  const CommGraph merged = finalize_window_graph(parts, config);
  const CommGraph& reference = whole.graphs()[0];

  EXPECT_EQ(merged.node_count(), reference.node_count());
  EXPECT_EQ(merged.edge_count(), reference.edge_count());
  EXPECT_EQ(merged.total_bytes(), reference.total_bytes());
}

TEST(CollapseHeavyHitters, PostHocMatchesBuilderCollapse) {
  const std::unordered_set<IpAddr> monitored{kA};
  GraphBuilder with({.facet = GraphFacet::kIp,
                     .window_minutes = 60,
                     .collapse_threshold = 0.02},
                    monitored);
  GraphBuilder without({.facet = GraphFacet::kIp, .window_minutes = 60}, monitored);
  for (std::int64_t m = 0; m < 60; ++m) {
    const auto heavy = record(m, kA, 40000, IpAddr(0x64000200), 443, 1'000'000, 0);
    with.ingest(heavy);
    without.ingest(heavy);
  }
  for (std::uint32_t i = 1; i < 30; ++i) {
    const auto r = record(59, kA, 40000, IpAddr(0x64000200 + i), 443, 10, 0);
    with.ingest(r);
    without.ingest(r);
  }
  with.flush();
  without.flush();
  const CommGraph post = finalize_window_graph({&without.graphs()[0], 1},
                                               {.collapse_threshold = 0.02});
  EXPECT_EQ(post.node_count(), with.graphs()[0].node_count());
  EXPECT_EQ(post.total_bytes(), with.graphs()[0].total_bytes());
}


// --- The one-pass finalize against the chain it replaced --------------------
//
// finalize_window_graph used to build a window's graph four times: merge the
// parts in order, canonicalize, collapse heavy hitters, canonicalize again.
// That chain is kept here, as it was, as the reference: the one pass must
// give the same graph and the same keyframe bytes.

namespace chain {

CommGraph merge_graphs(const std::vector<CommGraph>& parts) {
  CommGraph merged(parts.empty() ? TimeWindow{} : parts.front().window());
  for (const CommGraph& part : parts) {
    for (NodeId i = 0; i < part.node_count(); ++i) {
      const NodeId m = merged.add_node(part.key(i));
      if (part.node_stats(i).monitored) merged.set_monitored(m, true);
    }
    for (const Edge& e : part.edges()) {
      const NodeId ma = merged.add_node(part.key(e.a));
      const NodeId mb = merged.add_node(part.key(e.b));
      merged.add_edge_volume(ma, mb, e.stats.bytes_ab, e.stats.bytes_ba,
                             e.stats.packets_ab, e.stats.packets_ba,
                             e.stats.connection_minutes, e.stats.active_minutes,
                             e.stats.client_minutes_ab, e.stats.client_minutes_ba,
                             e.stats.server_port_hint);
    }
  }
  return merged;
}

CommGraph collapse_heavy_hitters(const CommGraph& graph, double threshold) {
  std::uint64_t total_bytes = 0, total_packets = 0, total_conn = 0;
  for (const Edge& e : graph.edges()) {
    total_bytes += e.stats.bytes();
    total_packets += e.stats.packets();
    total_conn += e.stats.connection_minutes;
  }
  auto share = [](std::uint64_t part, std::uint64_t whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
  };
  auto survives = [&](NodeId i) {
    if (threshold <= 0.0) return true;
    const NodeStats& s = graph.node_stats(i);
    if (s.monitored) return true;
    return share(s.bytes, total_bytes) >= threshold ||
           share(s.packets, total_packets) >= threshold ||
           share(s.connection_minutes, total_conn) >= threshold;
  };

  CommGraph out(graph.window());
  std::optional<NodeId> other;
  std::uint32_t collapsed_members = 0;
  std::vector<NodeId> mapping(graph.node_count());
  for (NodeId i = 0; i < graph.node_count(); ++i) {
    if (survives(i)) {
      const NodeId m = out.add_node(graph.key(i));
      out.set_monitored(m, graph.node_stats(i).monitored);
      mapping[i] = m;
    } else {
      if (!other) other = out.add_node(NodeKey::collapsed());
      mapping[i] = *other;
      ++collapsed_members;
    }
  }
  for (const Edge& e : graph.edges()) {
    const NodeId a = mapping[e.a];
    const NodeId b = mapping[e.b];
    if (a == b) continue;
    out.add_edge_volume(a, b, e.stats.bytes_ab, e.stats.bytes_ba,
                        e.stats.packets_ab, e.stats.packets_ba,
                        e.stats.connection_minutes, e.stats.active_minutes,
                        e.stats.client_minutes_ab, e.stats.client_minutes_ba,
                        e.stats.server_port_hint);
  }
  if (other) out.note_collapsed_members(*other, collapsed_members);
  return out;
}

CommGraph canonical_graph(const CommGraph& graph) {
  std::vector<NodeId> order(graph.node_count());
  std::iota(order.begin(), order.end(), NodeId{0});
  std::sort(order.begin(), order.end(), [&](NodeId x, NodeId y) {
    return graph.key(x) < graph.key(y);
  });

  CommGraph out(graph.window());
  std::vector<NodeId> mapping(graph.node_count());
  for (const NodeId old : order) {
    const NodeId id = out.add_node(graph.key(old));
    mapping[old] = id;
    const NodeStats& s = graph.node_stats(old);
    out.set_monitored(id, s.monitored);
    if (s.collapsed_members > 0) out.note_collapsed_members(id, s.collapsed_members);
  }

  std::vector<EdgeId> edge_order(graph.edge_count());
  std::iota(edge_order.begin(), edge_order.end(), EdgeId{0});
  auto endpoints = [&](EdgeId e) {
    const NodeId a = mapping[graph.edge(e).a];
    const NodeId b = mapping[graph.edge(e).b];
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  };
  std::sort(edge_order.begin(), edge_order.end(),
            [&](EdgeId x, EdgeId y) { return endpoints(x) < endpoints(y); });
  for (const EdgeId eid : edge_order) {
    const Edge& e = graph.edge(eid);
    out.add_edge_volume(mapping[e.a], mapping[e.b], e.stats.bytes_ab,
                        e.stats.bytes_ba, e.stats.packets_ab, e.stats.packets_ba,
                        e.stats.connection_minutes, e.stats.active_minutes,
                        e.stats.client_minutes_ab, e.stats.client_minutes_ba,
                        e.stats.server_port_hint);
  }
  return out;
}

CommGraph finalize(const std::vector<CommGraph>& parts, double threshold) {
  CommGraph out = canonical_graph(merge_graphs(parts));
  if (threshold > 0.0) out = canonical_graph(collapse_heavy_hitters(out, threshold));
  return out;
}

}  // namespace chain

std::vector<std::uint8_t> keyframe(const CommGraph& graph) {
  return store::encode_frame(store::FrameKind::kKeyframe, CommGraph(), graph);
}

/// "" when the one pass equals the chain on `parts`, else what differs.
std::string compare_with_chain(const std::vector<CommGraph>& parts,
                               double threshold) {
  const CommGraph got =
      finalize_window_graph(parts, {.collapse_threshold = threshold});
  const CommGraph want = chain::finalize(parts, threshold);
  if (!graphs_identical(got, want)) return "graphs differ";
  if (keyframe(got) != keyframe(want)) return "keyframe bytes differ";
  return "";
}

/// How many nodes the chain folds into <other>, and how many unmonitored
/// keys the parts hold (all of them fold when the two are equal).
std::pair<std::uint32_t, std::size_t> folded_of_remotes(
    const std::vector<CommGraph>& parts, double threshold) {
  const CommGraph g = chain::finalize(parts, threshold);
  const std::uint32_t folded =
      g.node_count() > 0 && g.key(0) == NodeKey::collapsed()
          ? g.node_stats(0).collapsed_members
          : 0;
  const CommGraph merged = chain::merge_graphs(parts);
  std::size_t remotes = 0;
  for (NodeId i = 0; i < merged.node_count(); ++i) {
    remotes += !merged.node_stats(i).monitored;
  }
  return {folded, remotes};
}

enum class KeyKind { kIp, kIpPort, kMixed };

/// `count` parts of one 3-minute window drawn from a shared pool of node
/// keys, so they share nodes and edges: each part adds pool keys in its own
/// order with its own monitored flags, gives some of them no edge, and adds
/// edges whose volumes span 24 powers of two (so thresholds fold none, some
/// or all remotes) and whose server port hints differ between parts. One
/// part is empty for every seventh seed.
std::vector<CommGraph> seeded_parts(std::uint64_t seed, std::size_t count,
                                    KeyKind kind, bool zero_key) {
  Rng rng(seed);
  std::vector<NodeKey> pool;
  for (std::uint32_t i = 0; i < 24; ++i) {
    const IpAddr ip(0x0A000001 + i / 2);  // two keys per address
    const bool port = kind == KeyKind::kIpPort || (kind == KeyKind::kMixed && i % 3 == 0);
    pool.push_back(port ? NodeKey::for_ip_port(ip, static_cast<std::uint16_t>(80 + i % 2))
                        : NodeKey::for_ip(IpAddr(0x0A000001 + i)));
  }
  if (zero_key) pool.push_back(NodeKey::collapsed());  // a raw 0.0.0.0 node
  constexpr std::int32_t kHints[] = {-1, 80, 443, 8080};

  std::vector<CommGraph> parts(count, CommGraph(TimeWindow::minutes(0, 3)));
  for (std::size_t p = 0; p < count; ++p) {
    if (seed % 7 == 0 && p == seed % count) continue;  // an empty part
    CommGraph& part = parts[p];
    const std::size_t nodes = 2 + rng.uniform(pool.size() - 1);
    for (std::size_t n = 0; n < nodes; ++n) {
      const NodeId id = part.add_node(pool[rng.uniform(pool.size())]);
      part.set_monitored(id, rng.chance(0.25));
    }
    const std::size_t drawn = part.node_count();
    const std::size_t edges = rng.uniform(3 * drawn);
    for (std::size_t k = 0; k < edges; ++k) {
      const auto x = static_cast<NodeId>(rng.uniform(drawn));
      const auto y = static_cast<NodeId>(rng.uniform(drawn));
      if (x == y) continue;
      const std::uint64_t scale = std::uint64_t{1} << rng.uniform(24);
      part.add_edge_volume(x, y, scale * (1 + rng.uniform(100)),
                           scale * rng.uniform(100), scale / 64 + rng.uniform(10),
                           rng.uniform(10), 1 + rng.uniform(scale / 1024 + 1),
                           1 + static_cast<std::uint32_t>(rng.uniform(3)),
                           rng.uniform(5), rng.uniform(5),
                           kHints[rng.uniform(std::size(kHints))]);
    }
    // A key of this part only, never on an edge.
    const auto own = static_cast<std::uint32_t>(seed * 8 + p);
    part.add_node(NodeKey::for_ip(IpAddr(0x0B000000 + own)));
  }
  return parts;
}

TEST(FinalizeMatchesChainReference, OnSeededParts) {
  std::map<std::string, std::size_t> folds;  // none / some / all remotes
  std::size_t cases = 0;
  for (std::size_t count = 1; count <= 4; ++count) {
    for (const KeyKind kind : {KeyKind::kIp, KeyKind::kIpPort, KeyKind::kMixed}) {
      for (const bool zero_key : {false, true}) {
        for (std::uint64_t seed = 1; seed <= 40; ++seed) {
          const auto parts = seeded_parts(seed * 31 + count, count, kind, zero_key);
          for (const double threshold : {0.0, 0.001, 0.02, 0.5}) {
            ASSERT_EQ(compare_with_chain(parts, threshold), "")
                << count << " parts, key kind " << static_cast<int>(kind)
                << ", zero key " << zero_key << ", seed " << seed
                << ", threshold " << threshold;
            ++cases;
            if (threshold == 0.0) continue;
            const auto [folded, remotes] = folded_of_remotes(parts, threshold);
            ++folds[folded == 0 ? "none" : folded == remotes ? "all" : "some"];
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 4u * 3 * 2 * 40 * 4);
  EXPECT_GT(folds["none"], 0u);
  EXPECT_GT(folds["some"], 0u);
  EXPECT_GT(folds["all"], 0u);
}

TEST(FinalizeMatchesChainReference, RawZeroAddressNodeSurvivingAndCollapsing) {
  // The CSV reader accepts 0.0.0.0, so a raw node can carry <other>'s key.
  // Monitored, it survives and the folded peers join it (its edges to them
  // vanish inside <other>); light and unmonitored, it folds like any peer.
  for (const bool survives : {true, false}) {
    std::vector<CommGraph> parts(2, CommGraph(TimeWindow::minutes(0, 3)));
    for (CommGraph& part : parts) {
      const NodeId hub = part.add_node(NodeKey::for_ip(kA));
      part.set_monitored(hub, true);
      const NodeId heavy = part.add_node(NodeKey::for_ip(kX));
      part.add_edge_volume(hub, heavy, 1'000'000, 500'000, 10'000, 5'000, 1'000,
                           3, 900, 0, 443);
      const NodeId zero = part.add_node(NodeKey::collapsed());
      part.set_monitored(zero, survives);
      part.add_edge_volume(zero, hub, 10, 20, 1, 1, 1, 1, 0, 1, -1);
      for (std::uint32_t i = 0; i < 5; ++i) {
        const NodeId peer = part.add_node(NodeKey::for_ip(IpAddr(0x64000100 + i)));
        part.add_edge_volume(hub, peer, 100 + i, 7, 1, 1, 1, 1, 1, 0,
                             i % 2 == 0 ? -1 : 8080 + static_cast<std::int32_t>(i));
        part.add_edge_volume(peer, zero, 3, 4, 1, 1, 1, 1, 0, 0, 53);
      }
    }
    for (const double threshold : {0.0, 0.02, 0.5}) {
      EXPECT_EQ(compare_with_chain(parts, threshold), "")
          << "survives " << survives << ", threshold " << threshold;
    }
    const CommGraph g = finalize_window_graph(parts, {.collapse_threshold = 0.02});
    ASSERT_EQ(g.key(0), NodeKey::collapsed());
    EXPECT_EQ(g.node_stats(0).monitored, survives);
    EXPECT_EQ(g.node_stats(0).collapsed_members, survives ? 5u : 6u);
    EXPECT_EQ(g.node_count(), 3u);  // <other>, the hub and the heavy peer
  }
}

TEST(FinalizeMatchesChainReference, OnSimulatedK8sWindowsSplitIntoShardParts) {
  // One hour of the k8s preset in 3-minute windows, split by
  // shard_of_record into 1-4 collapse-off builders as `serve` splits it; a
  // window's parts are the shards' graphs of it in ascending shard order.
  Cluster cluster(presets::k8s_paas(0.125), 7);
  TelemetryHub hub(ProviderProfile::azure(), 7);
  SimulationDriver driver(cluster, hub);
  const auto ips = cluster.monitored_ips();
  const std::unordered_set<IpAddr> monitored(ips.begin(), ips.end());
  std::vector<std::vector<ConnectionSummary>> minutes;
  for (std::int64_t m = 0; m < 60; ++m) minutes.push_back(driver.step(MinuteBucket(m)));

  const GraphBuildConfig config{.facet = GraphFacet::kIp, .window_minutes = 3};
  std::size_t compared = 0;
  for (std::size_t shards = 1; shards <= 4; ++shards) {
    std::vector<GraphBuilder> builders;
    builders.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) builders.emplace_back(config, monitored);
    for (std::size_t m = 0; m < minutes.size(); ++m) {
      std::vector<std::vector<ConnectionSummary>> split(shards);
      for (const ConnectionSummary& r : minutes[m]) {
        split[shard_of_record(r, config.facet, shards)].push_back(r);
      }
      for (std::size_t s = 0; s < shards; ++s) {
        builders[s].on_batch(MinuteBucket(static_cast<std::int64_t>(m)), split[s]);
      }
    }
    std::map<std::int64_t, std::vector<CommGraph>> windows;
    for (GraphBuilder& builder : builders) {
      builder.flush();
      for (CommGraph& g : builder.take_graphs()) {
        windows[g.window().begin().index()].push_back(std::move(g));
      }
    }
    ASSERT_EQ(windows.size(), 20u);
    for (const auto& [begin, parts] : windows) {
      for (const double threshold : {0.0, 0.001, 0.02}) {
        EXPECT_EQ(compare_with_chain(parts, threshold), "")
            << shards << " shards, window " << begin << ", threshold " << threshold;
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, 4u * 20 * 3);
}

}  // namespace
}  // namespace ccg
