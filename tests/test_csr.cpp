// CsrAdjacency: round-trip against the map-based CommGraph, golden
// neighbor order, orientation canonicalization, collapsed-node rows,
// arena alignment/lifetime (meant to run under ASan in CI), and rebuild()
// arena reuse against fresh builds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "ccg/common/rng.hpp"
#include "ccg/graph/comm_graph.hpp"
#include "ccg/graph/csr.hpp"

namespace ccg {
namespace {

std::int32_t expected_tag(const CommGraph& g, NodeId owner, EdgeId e) {
  switch (g.edge_role(owner, e)) {
    case CommGraph::EdgeRole::kInitiator: return CsrAdjacency::kTagInitiator;
    case CommGraph::EdgeRole::kResponder: return CsrAdjacency::kTagResponder;
    case CommGraph::EdgeRole::kMixed: return CsrAdjacency::kTagMixed;
  }
  return CsrAdjacency::kTagMixed;
}

/// Seeded random multi-edge graph with direction and port diversity.
CommGraph random_graph(std::size_t nodes, std::size_t edges, std::uint64_t seed) {
  CommGraph g;
  Rng rng(seed);
  for (std::size_t i = 0; i < nodes; ++i) {
    g.add_node(NodeKey::for_ip(IpAddr(static_cast<std::uint32_t>(i + 1))));
  }
  for (std::size_t e = 0; e < edges; ++e) {
    const auto a = static_cast<NodeId>(rng.uniform(nodes));
    const auto b = static_cast<NodeId>(rng.uniform(nodes));
    if (a == b) continue;
    g.add_edge_volume(a, b, 100 + rng.uniform(100000), rng.uniform(5000), 4, 2,
                      3, 2, /*client_ab=*/rng.uniform(10),
                      /*client_ba=*/rng.uniform(10),
                      /*port=*/rng.chance(0.7)
                          ? static_cast<std::int32_t>(rng.uniform(1024))
                          : -1);
  }
  return g;
}

TEST(CsrAdjacency, RoundTripMatchesMapBasedGraph) {
  const CommGraph g = random_graph(60, 400, 19);
  const CsrAdjacency csr(g);

  ASSERT_EQ(csr.node_count(), g.node_count());
  std::size_t total = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) total += g.degree(v);
  ASSERT_EQ(csr.edge_entry_count(), total);

  for (NodeId v = 0; v < g.node_count(); ++v) {
    ASSERT_EQ(csr.degree(v), g.degree(v)) << "node " << v;
    // Expected row: every incident edge, sorted by neighbor id — the same
    // canonical order regardless of insertion order.
    struct Entry {
      std::uint32_t id;
      std::int32_t tag;
      std::int32_t port;
      double weight;
    };
    std::vector<Entry> expect;
    for (const auto& [nbr, eid] : g.neighbors(v)) {
      expect.push_back({nbr, expected_tag(g, v, eid),
                        g.edge(eid).stats.server_port_hint,
                        std::log1p(static_cast<double>(g.edge(eid).stats.bytes()))});
    }
    std::sort(expect.begin(), expect.end(),
              [](const Entry& a, const Entry& b) { return a.id < b.id; });

    const auto ids = csr.ids(v);
    const auto tags = csr.tags(v);
    const auto ports = csr.ports(v);
    const auto weights = csr.weights(v);
    ASSERT_TRUE(std::is_sorted(ids.begin(), ids.end())) << "node " << v;
    for (std::size_t k = 0; k < expect.size(); ++k) {
      ASSERT_EQ(ids[k], expect[k].id) << "node " << v << " entry " << k;
      ASSERT_EQ(tags[k], expect[k].tag) << "node " << v << " entry " << k;
      ASSERT_EQ(ports[k], expect[k].port) << "node " << v << " entry " << k;
      ASSERT_EQ(weights[k], expect[k].weight) << "node " << v << " entry " << k;
    }
  }
}

TEST(CsrAdjacency, GoldenNeighborOrder) {
  CommGraph g;
  const NodeId n0 = g.add_node(NodeKey::for_ip(IpAddr(10u)));
  const NodeId n1 = g.add_node(NodeKey::for_ip(IpAddr(11u)));
  const NodeId n2 = g.add_node(NodeKey::for_ip(IpAddr(12u)));
  const NodeId n3 = g.add_node(NodeKey::for_ip(IpAddr(13u)));
  // Insert n0's edges in descending-neighbor order; the CSR row must come
  // out ascending anyway (the order is a function of the graph, not of the
  // insertion sequence).
  g.add_edge_volume(n0, n3, 800, 0, 1, 0, 1, 1, /*client_ab=*/5, 0, 443);
  g.add_edge_volume(n0, n2, 400, 0, 1, 0, 1, 1, /*client_ab=*/0, /*client_ba=*/5, 80);
  g.add_edge_volume(n0, n1, 200, 0, 1, 0, 1, 1, 0, 0, -1);

  const CsrAdjacency csr(g);
  ASSERT_EQ(csr.degree(n0), 3u);
  EXPECT_EQ(std::vector<std::uint32_t>(csr.ids(n0).begin(), csr.ids(n0).end()),
            (std::vector<std::uint32_t>{n1, n2, n3}));
  EXPECT_EQ(std::vector<std::int32_t>(csr.tags(n0).begin(), csr.tags(n0).end()),
            (std::vector<std::int32_t>{CsrAdjacency::kTagMixed,
                                       CsrAdjacency::kTagResponder,
                                       CsrAdjacency::kTagInitiator}));
  EXPECT_EQ(std::vector<std::int32_t>(csr.ports(n0).begin(), csr.ports(n0).end()),
            (std::vector<std::int32_t>{-1, 80, 443}));
  EXPECT_EQ(csr.weights(n0)[0], std::log1p(200.0));
  EXPECT_EQ(csr.weights(n0)[1], std::log1p(400.0));
  EXPECT_EQ(csr.weights(n0)[2], std::log1p(800.0));
  // The far ends see the mirrored tags.
  EXPECT_EQ(csr.tags(n3)[0], CsrAdjacency::kTagResponder);
  EXPECT_EQ(csr.tags(n2)[0], CsrAdjacency::kTagInitiator);
}

/// CommGraph canonicalizes edge orientation (a < b, *_ab swapped to match);
/// the CSR built from either insertion orientation must be identical down
/// to the last tag and weight bit.
TEST(CsrAdjacency, OrientationCanonicalizationInvariance) {
  const auto build = [](bool reversed) {
    CommGraph g;
    const NodeId a = g.add_node(NodeKey::for_ip(IpAddr(1u)));
    const NodeId b = g.add_node(NodeKey::for_ip(IpAddr(2u)));
    const NodeId c = g.add_node(NodeKey::for_ip(IpAddr(3u)));
    if (reversed) {
      g.add_edge_volume(b, a, 10, 1000, 1, 4, 3, 2, /*client_ab=*/0,
                        /*client_ba=*/9, 443);
      g.add_edge_volume(c, b, 50, 700, 2, 3, 2, 2, /*client_ab=*/8,
                        /*client_ba=*/1, 8080);
    } else {
      g.add_edge_volume(a, b, 1000, 10, 4, 1, 3, 2, /*client_ab=*/9,
                        /*client_ba=*/0, 443);
      g.add_edge_volume(b, c, 700, 50, 3, 2, 2, 2, /*client_ab=*/1,
                        /*client_ba=*/8, 8080);
    }
    return g;
  };
  const CommGraph fwd = build(false);
  const CommGraph rev = build(true);
  const CsrAdjacency csr_fwd(fwd);
  const CsrAdjacency csr_rev(rev);

  ASSERT_EQ(csr_fwd.edge_entry_count(), csr_rev.edge_entry_count());
  for (NodeId v = 0; v < csr_fwd.node_count(); ++v) {
    for (std::size_t k = 0; k < csr_fwd.degree(v); ++k) {
      ASSERT_EQ(csr_fwd.ids(v)[k], csr_rev.ids(v)[k]);
      ASSERT_EQ(csr_fwd.tags(v)[k], csr_rev.tags(v)[k]);
      ASSERT_EQ(csr_fwd.ports(v)[k], csr_rev.ports(v)[k]);
      ASSERT_EQ(csr_fwd.weights(v)[k], csr_rev.weights(v)[k]);
    }
  }
  // Direction survives canonicalization: node 0 initiated 9-of-9 flow
  // minutes on its edge, so its tag is initiator either way; node 2 holds
  // 8-of-9 client minutes on the b-c edge, so it is an initiator too.
  EXPECT_EQ(csr_fwd.tags(0)[0], CsrAdjacency::kTagInitiator);
  EXPECT_EQ(csr_rev.tags(0)[0], CsrAdjacency::kTagInitiator);
  EXPECT_EQ(csr_fwd.tags(2)[0], CsrAdjacency::kTagInitiator);
  EXPECT_EQ(csr_fwd.tags(1)[0], CsrAdjacency::kTagResponder);
}

TEST(CsrAdjacency, CollapsedNodeIsAnOrdinaryRow) {
  CommGraph g;
  const NodeId coll = g.add_node(NodeKey::collapsed());
  g.note_collapsed_members(coll, 17);
  const NodeId s1 = g.add_node(NodeKey::for_ip(IpAddr(5u)));
  const NodeId s2 = g.add_node(NodeKey::for_ip(IpAddr(6u)));
  g.add_edge_volume(s1, coll, 5000, 100, 3, 1, 2, 2, /*client_ab=*/6, 0, 53);
  g.add_edge_volume(s2, coll, 300, 10, 1, 1, 1, 1, 0, 0, -1);
  ASSERT_TRUE(g.key(coll).is_collapsed());

  const CsrAdjacency csr(g);
  ASSERT_EQ(csr.degree(coll), 2u);
  EXPECT_EQ(std::vector<std::uint32_t>(csr.ids(coll).begin(), csr.ids(coll).end()),
            (std::vector<std::uint32_t>{s1, s2}));
  // The collapse node is the responder of the DNS-ish edge s1 initiated.
  EXPECT_EQ(csr.tags(coll)[0], CsrAdjacency::kTagResponder);
  EXPECT_EQ(csr.ports(coll)[0], 53);
  EXPECT_EQ(csr.weights(coll)[0], std::log1p(5100.0));
  EXPECT_EQ(csr.tags(s1)[0], CsrAdjacency::kTagInitiator);
}

TEST(CsrAdjacency, ArenaAlignmentAndLifetime) {
  const CommGraph g = random_graph(40, 200, 23);
  CsrAdjacency csr(g);

  // Every column base sits on a 64-byte boundary inside one arena.
  const auto aligned = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) % 64 == 0;
  };
  EXPECT_TRUE(aligned(csr.offsets()));
  EXPECT_TRUE(aligned(csr.ids_base()));
  EXPECT_TRUE(aligned(csr.tags_base()));
  EXPECT_TRUE(aligned(csr.ports_base()));
  EXPECT_TRUE(aligned(csr.weights_base()));
  EXPECT_GT(csr.arena_bytes(), 0u);

  // Walk every entry through both the span accessors and the raw bases —
  // under ASan this proves the arena covers everything the accessors hand
  // out, with no over- or under-allocation.
  double span_sum = 0.0, raw_sum = 0.0;
  for (NodeId v = 0; v < csr.node_count(); ++v) {
    for (const double w : csr.weights(v)) span_sum += w;
  }
  for (std::size_t k = 0; k < csr.edge_entry_count(); ++k) {
    raw_sum += csr.weights_base()[k];
    (void)csr.ids_base()[k];
    (void)csr.tags_base()[k];
    (void)csr.ports_base()[k];
  }
  EXPECT_EQ(span_sum, raw_sum);

  // Moved-from construction keeps the arena alive in the destination.
  const CsrAdjacency moved = std::move(csr);
  double moved_sum = 0.0;
  for (NodeId v = 0; v < moved.node_count(); ++v) {
    for (const double w : moved.weights(v)) moved_sum += w;
  }
  EXPECT_EQ(moved_sum, span_sum);

  // Degenerate shapes allocate and free cleanly.
  const CommGraph empty;
  const CsrAdjacency csr_empty(empty);
  EXPECT_EQ(csr_empty.node_count(), 0u);
  EXPECT_EQ(csr_empty.edge_entry_count(), 0u);

  CommGraph isolated;
  isolated.add_node(NodeKey::for_ip(IpAddr(9u)));
  const CsrAdjacency csr_isolated(isolated);
  EXPECT_EQ(csr_isolated.node_count(), 1u);
  EXPECT_EQ(csr_isolated.degree(0), 0u);
  EXPECT_TRUE(csr_isolated.ids(0).empty());

  // Churn: repeated build/teardown of differently-shaped arenas.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const CommGraph gg = random_graph(10 + seed * 7, 30 + seed * 23, seed);
    const CsrAdjacency c(gg);
    std::size_t entries = 0;
    for (NodeId v = 0; v < c.node_count(); ++v) entries += c.ids(v).size();
    EXPECT_EQ(entries, c.edge_entry_count());
  }
}

TEST(CsrAdjacency, RebuildMatchesFreshBuildEveryWindow) {
  // One long-lived CSR rebuild()s over growing-then-shrinking graphs, as
  // segment_all_methods does: its grow-only arena never shrinks, graphs
  // smaller than the peak reuse it, and every column matches a fresh
  // build byte for byte.
  CsrAdjacency reused;
  std::size_t reused_bytes = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const std::uint64_t size = seed < 6 ? seed : 11 - seed;
    const CommGraph gg = random_graph(10 + size * 7, 30 + size * 23, seed);
    const CsrAdjacency c(gg);

    reused.rebuild(gg);
    EXPECT_GE(reused.arena_bytes(), reused_bytes) << "seed " << seed;
    reused_bytes = reused.arena_bytes();
    if (seed > 6) {
      EXPECT_GT(reused.arena_bytes(), c.arena_bytes()) << "seed " << seed;
    }
    ASSERT_EQ(reused.node_count(), c.node_count()) << "seed " << seed;
    ASSERT_EQ(reused.edge_entry_count(), c.edge_entry_count()) << seed;
    const std::size_t n = c.node_count(), m = c.edge_entry_count();
    EXPECT_EQ(std::memcmp(reused.offsets(), c.offsets(),
                          (n + 1) * sizeof(std::uint64_t)), 0) << seed;
    EXPECT_EQ(std::memcmp(reused.ids_base(), c.ids_base(),
                          m * sizeof(std::uint32_t)), 0) << seed;
    EXPECT_EQ(std::memcmp(reused.tags_base(), c.tags_base(),
                          m * sizeof(std::int32_t)), 0) << seed;
    EXPECT_EQ(std::memcmp(reused.ports_base(), c.ports_base(),
                          m * sizeof(std::int32_t)), 0) << seed;
    EXPECT_EQ(std::memcmp(reused.weights_base(), c.weights_base(),
                          m * sizeof(double)), 0) << seed;
  }
}

}  // namespace
}  // namespace ccg
