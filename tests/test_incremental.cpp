// Incremental analytics engine: dirty-set rules, the exactness contract
// (incremental segmentation byte-identical to auto_segment, across thread
// counts and SIMD tiers), the LSH carry path, every fallback-to-full
// trigger, bounded-divergence refine mode, and in-place CSR patching.
#include "ccg/incremental/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "ccg/graph/builder.hpp"
#include "ccg/graph/csr.hpp"
#include "ccg/graph/delta.hpp"
#include "ccg/incremental/dirty.hpp"
#include "ccg/obs/metrics.hpp"
#include "ccg/parallel/parallel.hpp"
#include "ccg/segmentation/auto_segment.hpp"
#include "ccg/simd/simd.hpp"
#include "ccg/workload/driver.hpp"
#include "ccg/workload/presets.hpp"

namespace ccg {
namespace {

using incremental::ChurnStats;
using incremental::DirtySet;
using incremental::IncrementalEngine;
using incremental::IncrementalOptions;

// --- synthetic low-churn window sequences -----------------------------------
//
// An editable graph spec: windows are rebuilt from it with a stable node
// insertion order, so consecutive windows differ exactly by the edits made
// between builds — the controlled-churn input the engine is for. (The
// simulated workloads below exercise realism; this exercises precision.)

struct EdgeSpec {
  std::uint32_t a, b;
  std::uint64_t bytes_ab, bytes_ba;
  std::int32_t port;
};

struct GraphSpec {
  std::size_t nodes = 0;
  std::uint32_t first_ip = 1;  // key of node 0; node i keys first_ip + i
  std::vector<EdgeSpec> edges;

  CommGraph build(int step) const {
    CommGraph g(TimeWindow::minutes(step * 5, (step + 1) * 5));
    for (std::size_t i = 0; i < nodes; ++i) {
      const NodeId id = g.add_node(
          NodeKey::for_ip(IpAddr(first_ip + static_cast<std::uint32_t>(i))));
      g.set_monitored(id, true);
    }
    for (const EdgeSpec& e : edges) {
      // Symmetric client-minutes keep the direction role stable (kMixed),
      // so byte edits stay in the weighted tier.
      g.add_edge_volume(e.a, e.b, e.bytes_ab, e.bytes_ba, e.bytes_ab / 100 + 1,
                        e.bytes_ba / 100 + 1, 10, 5, 4, 4, e.port);
    }
    return g;
  }
};

/// Four 10-node communities (dense intra-edges) plus a few bridges —
/// enough structure that Louvain has something real to find.
GraphSpec community_spec() {
  GraphSpec spec;
  spec.nodes = 40;
  for (std::uint32_t c = 0; c < 4; ++c) {
    const std::uint32_t base = c * 10;
    for (std::uint32_t i = 0; i < 10; ++i) {
      for (std::uint32_t j = i + 1; j < 10; j += 2 + (i % 3)) {
        spec.edges.push_back({base + i, base + j, 5000 + 100ull * (i + j), 900,
                              static_cast<std::int32_t>(8000 + c)});
      }
    }
  }
  spec.edges.push_back({3, 13, 700, 700, 443});
  spec.edges.push_back({17, 25, 650, 650, 443});
  spec.edges.push_back({29, 38, 600, 600, 443});
  return spec;
}

/// A deterministic low-churn evolution: byte drifts every window, a
/// topology tweak every second window, a node arrival at step 3.
std::vector<CommGraph> low_churn_windows(int count) {
  GraphSpec spec = community_spec();
  std::vector<CommGraph> out;
  for (int step = 0; step < count; ++step) {
    if (step > 0) {
      for (std::size_t k = step % 7; k < spec.edges.size(); k += 9)
        spec.edges[k].bytes_ab += 331 * static_cast<std::uint64_t>(step);
      if (step % 2 == 0) {
        spec.edges.push_back({static_cast<std::uint32_t>(step % 10),
                              static_cast<std::uint32_t>(10 + step % 10), 800,
                              80, 443});
      }
      if (step == 3) {
        const auto fresh = static_cast<std::uint32_t>(spec.nodes++);
        spec.edges.push_back({2, fresh, 1200, 120, 9000});
        spec.edges.push_back({5, fresh, 1100, 110, 9000});
      }
    }
    out.push_back(spec.build(step));
  }
  return out;
}

/// Simulated per-window graphs — realistic churn on top of the synthetic
/// precision sequences.
std::vector<CommGraph> workload_windows(std::int64_t minutes,
                                        std::uint64_t seed) {
  Cluster cluster(presets::tiny(), seed);
  TelemetryHub hub(ProviderProfile::azure(), seed);
  SimulationDriver driver(cluster, hub);
  const auto ips = cluster.monitored_ips();
  GraphBuilder builder(
      {.facet = GraphFacet::kIp, .window_minutes = 5, .collapse_threshold = 0.001},
      {ips.begin(), ips.end()});
  hub.set_sink(&builder);
  driver.run(TimeWindow::minutes(0, minutes));
  builder.flush();
  return builder.take_graphs();
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// --- dirty-set rules --------------------------------------------------------

TEST(DirtySet, KeyframeMarksEverythingNew) {
  const CommGraph g = community_spec().build(0);
  const DirtySet dirty = incremental::compute_dirty(
      CommGraph{}, make_patch(CommGraph{}, g), g);
  EXPECT_EQ(dirty.structural.size(), g.node_count());
  EXPECT_EQ(dirty.weighted.size(), g.node_count());
  EXPECT_FALSE(dirty.identity_map);
  EXPECT_EQ(dirty.stats.nodes_added, g.node_count());
  EXPECT_EQ(dirty.stats.edges_added, g.edge_count());
  EXPECT_DOUBLE_EQ(dirty.stats.node_churn(), 1.0);
}

TEST(DirtySet, ByteOnlyChurnIsWeightedNotStructural) {
  GraphSpec spec = community_spec();
  const CommGraph before = spec.build(0);
  const EdgeSpec touched = spec.edges[4];
  spec.edges[4].bytes_ab += 999;
  const CommGraph after = spec.build(1);

  const DirtySet dirty =
      incremental::compute_dirty(before, make_patch(before, after), after);
  EXPECT_TRUE(dirty.identity_map);
  EXPECT_TRUE(dirty.structural.empty())
      << "byte drift must not invalidate MinHash rows";
  EXPECT_EQ(dirty.weighted.size(), 2u);
  EXPECT_EQ(dirty.weighted[0], static_cast<NodeId>(touched.a));
  EXPECT_EQ(dirty.weighted[1], static_cast<NodeId>(touched.b));
  EXPECT_EQ(dirty.stats.edges_restated, 1u);
  EXPECT_EQ(dirty.stats.nodes_touched, 0u);
}

TEST(DirtySet, PortChangeIsStructural) {
  GraphSpec spec = community_spec();
  const CommGraph before = spec.build(0);
  const EdgeSpec touched = spec.edges[4];
  spec.edges[4].port = 31337;
  const CommGraph after = spec.build(1);

  const DirtySet dirty =
      incremental::compute_dirty(before, make_patch(before, after), after);
  ASSERT_EQ(dirty.structural.size(), 2u);
  EXPECT_EQ(dirty.structural[0], static_cast<NodeId>(touched.a));
  EXPECT_EQ(dirty.structural[1], static_cast<NodeId>(touched.b));
}

TEST(DirtySet, AddedEdgeDirtiesItsEndpoints) {
  GraphSpec spec = community_spec();
  const CommGraph before = spec.build(0);
  spec.edges.push_back({0, 39, 500, 50, 443});
  const CommGraph after = spec.build(1);

  const DirtySet dirty =
      incremental::compute_dirty(before, make_patch(before, after), after);
  ASSERT_EQ(dirty.structural.size(), 2u);
  EXPECT_EQ(dirty.structural[0], 0);
  EXPECT_EQ(dirty.structural[1], 39);
  EXPECT_EQ(dirty.stats.edges_added, 1u);
  // The frontier adds the endpoints' neighbors (whose pair scores can
  // move even though their own rows are clean).
  EXPECT_GT(dirty.frontier.size(), dirty.structural.size());
}

TEST(DirtySet, RemovedNodeDirtiesItsNeighborsAndRenumbers) {
  GraphSpec spec = community_spec();
  const CommGraph before = spec.build(0);
  // Drop node 0 by rebuilding without it: the survivors keep their keys
  // (first_ip skips the removed one) while every NodeId shifts down.
  GraphSpec shrunk;
  shrunk.nodes = spec.nodes - 1;
  shrunk.first_ip = 2;
  for (const EdgeSpec& e : spec.edges) {
    if (e.a == 0 || e.b == 0) continue;
    shrunk.edges.push_back({e.a - 1, e.b - 1, e.bytes_ab, e.bytes_ba, e.port});
  }
  const CommGraph after = shrunk.build(1);

  const DirtySet dirty =
      incremental::compute_dirty(before, make_patch(before, after), after);
  EXPECT_FALSE(dirty.identity_map);
  EXPECT_EQ(dirty.stats.nodes_removed, 1u);
  EXPECT_EQ(dirty.old_to_new[0], -1);
  // Every surviving neighbor of the removed node lost a CSR entry.
  for (const EdgeSpec& e : spec.edges) {
    if (e.a != 0 && e.b != 0) continue;
    const std::uint32_t other = (e.a == 0 ? e.b : e.a) - 1;
    EXPECT_TRUE(dirty.structural_flag[other])
        << "neighbor " << other << " of removed node must be dirty";
  }
}

TEST(DirtySet, PatchChurnMatchesComputeDirty) {
  const auto windows = low_churn_windows(5);
  for (std::size_t i = 1; i < windows.size(); ++i) {
    const GraphPatch patch = make_patch(windows[i - 1], windows[i]);
    const ChurnStats a = incremental::patch_churn(windows[i - 1], patch);
    const ChurnStats b =
        incremental::compute_dirty(windows[i - 1], patch, windows[i]).stats;
    EXPECT_EQ(a.nodes_touched, b.nodes_touched);
    EXPECT_EQ(a.edges_touched, b.edges_touched);
    EXPECT_EQ(a.nodes_added, b.nodes_added);
    EXPECT_EQ(a.edges_restated, b.edges_restated);
  }
}

// --- exactness: incremental == auto_segment, bit for bit --------------------

void expect_matches_full(const IncrementalEngine& engine,
                         const CommGraph& window, SegmentationMethod method,
                         const SegmentationOptions& sopts, std::size_t i,
                         const char* config) {
  const auto& r = engine.last();
  EXPECT_TRUE(r.verified) << config << " window " << i << ": "
                          << r.verify_error;
  const Segmentation full = auto_segment(window, method, sopts);
  EXPECT_EQ(r.segmentation.labels, full.labels) << config << " window " << i;
  EXPECT_EQ(r.segmentation.segment_count, full.segment_count);
  EXPECT_TRUE(same_bits(r.segmentation.objective_modularity,
                        full.objective_modularity))
      << config << " window " << i;
}

TEST(IncrementalEngine, ExactModeMatchesAutoSegmentOnLowChurnWindows) {
  const auto windows = low_churn_windows(8);
  const SegmentationOptions sopts;
  IncrementalOptions opts;
  opts.verify_against_full = true;
  IncrementalEngine engine(opts);

  std::size_t incremental_windows = 0, carried = 0;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    engine.observe(windows[i]);
    expect_matches_full(engine, windows[i],
                        SegmentationMethod::kJaccardLouvain, sopts, i,
                        "exact");
    if (!engine.last().full_recompute) {
      ++incremental_windows;
      carried += engine.last().carried_pairs;
    }
  }
  // The point of the subsystem: most windows must actually take the
  // incremental path and carry previous scores.
  EXPECT_GE(incremental_windows, windows.size() - 1);
  EXPECT_GT(carried, 0u);
}

TEST(IncrementalEngine, ExactAcrossThreadCountsAndSimdTiers) {
  const auto windows = low_churn_windows(6);
  const SegmentationOptions sopts;
  for (const char* tier : {"scalar", "auto"}) {
    ASSERT_TRUE(simd::set_tier(tier));
    for (const int threads : {1, 2, 4}) {
      parallel::set_thread_count(threads);
      const std::string config = std::string(tier) + "/" +
                                 std::to_string(threads) + "t";
      IncrementalOptions opts;
      opts.verify_against_full = true;
      IncrementalEngine engine(opts);
      for (std::size_t i = 0; i < windows.size(); ++i) {
        engine.observe(windows[i]);
        expect_matches_full(engine, windows[i],
                            SegmentationMethod::kJaccardLouvain, sopts, i,
                            config.c_str());
      }
    }
  }
  parallel::set_thread_count(0);
  simd::set_tier("auto");
}

TEST(IncrementalEngine, ExactOnSimulatedWorkloadAllMethods) {
  const auto windows = workload_windows(60, 11);
  ASSERT_GE(windows.size(), 8u);
  for (const SegmentationMethod method :
       {SegmentationMethod::kJaccardLouvain,
        SegmentationMethod::kWeightedJaccardLouvain,
        SegmentationMethod::kConnectivityModularity,
        SegmentationMethod::kByteModularity}) {
    IncrementalOptions opts;
    opts.method = method;
    opts.verify_against_full = true;
    IncrementalEngine engine(opts);
    for (std::size_t i = 0; i < windows.size(); ++i) {
      engine.observe(windows[i]);
      expect_matches_full(engine, windows[i], method, SegmentationOptions{},
                          i, to_string(method).c_str());
    }
  }
}

TEST(IncrementalEngine, LshSchemeCarriesSignaturesExactly) {
  const auto windows = low_churn_windows(6);
  IncrementalOptions opts;
  opts.verify_against_full = true;
  opts.exact_pair_limit = 0;  // forces LSH banding at every size
  IncrementalEngine engine(opts);
  bool saw_partial_restamp = false;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    engine.observe(windows[i]);
    const auto& r = engine.last();
    EXPECT_TRUE(r.verified) << "window " << i << ": " << r.verify_error;
    if (!r.full_recompute) {
      EXPECT_EQ(r.restamped, r.dirty_nodes);
      if (r.restamped < windows[i].node_count()) saw_partial_restamp = true;
    }
  }
  EXPECT_TRUE(saw_partial_restamp)
      << "every window re-stamped every signature — nothing was incremental";
}

// --- fallback triggers ------------------------------------------------------

TEST(IncrementalEngine, FallbackReasonsFirstChurnSchemeMethod) {
  {
    IncrementalEngine engine;
    engine.observe(community_spec().build(0));
    EXPECT_TRUE(engine.last().full_recompute);
    EXPECT_EQ(engine.last().full_reason, "first");
  }
  {
    // Two structurally unrelated graphs: churn above the threshold.
    IncrementalEngine engine;
    GraphSpec a = community_spec();
    engine.observe(a.build(0));
    GraphSpec b;
    b.nodes = 30;
    for (std::uint32_t i = 0; i + 1 < 30; ++i)
      b.edges.push_back({i, i + 1, 100, 10, 80});
    engine.observe(b.build(1));
    EXPECT_TRUE(engine.last().full_recompute);
    EXPECT_EQ(engine.last().full_reason, "churn");
  }
  {
    // One node arrival across the exact/LSH crossover: low churn, but the
    // candidate generator switches, so caches are invalid.
    IncrementalOptions opts;
    opts.verify_against_full = true;
    opts.exact_pair_limit = 40;
    IncrementalEngine engine(opts);
    GraphSpec spec = community_spec();  // exactly 40 nodes
    engine.observe(spec.build(0));
    EXPECT_EQ(engine.last().full_reason, "first");
    const auto fresh = static_cast<std::uint32_t>(spec.nodes++);
    spec.edges.push_back({0, fresh, 400, 40, 443});
    engine.observe(spec.build(1));
    EXPECT_TRUE(engine.last().full_recompute);
    EXPECT_EQ(engine.last().full_reason, "scheme");
    EXPECT_TRUE(engine.last().verified) << engine.last().verify_error;
  }
  {
    // SimRank has no incremental path.
    IncrementalOptions opts;
    opts.method = SegmentationMethod::kSimRank;
    IncrementalEngine engine(opts);
    const auto windows = low_churn_windows(2);
    engine.observe(windows[0]);
    engine.observe(windows[1]);
    EXPECT_TRUE(engine.last().full_recompute);
    EXPECT_EQ(engine.last().full_reason, "method");
  }
}

TEST(IncrementalEngine, IdenticalWindowReusesLabels) {
  const CommGraph g = community_spec().build(0);
  IncrementalOptions opts;
  opts.verify_against_full = true;
  IncrementalEngine engine(opts);
  engine.observe(g);
  engine.observe(community_spec().build(1));  // same topology and stats
  const auto& r = engine.last();
  EXPECT_FALSE(r.full_recompute);
  EXPECT_TRUE(r.labels_reused);
  EXPECT_EQ(r.dirty_nodes, 0u);
  EXPECT_TRUE(r.verified) << r.verify_error;
}

// --- bounded-divergence modes -----------------------------------------------

TEST(IncrementalEngine, RefineStaysWithinEpsilon) {
  const auto windows = low_churn_windows(8);
  IncrementalOptions opts;
  opts.refine = true;
  opts.refine_epsilon = 0.05;
  opts.verify_against_full = true;
  IncrementalEngine engine(opts);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    engine.observe(windows[i]);
    EXPECT_TRUE(engine.last().verified)
        << "window " << i << ": " << engine.last().verify_error;
    EXPECT_EQ(engine.last().segmentation.labels.size(),
              windows[i].node_count());
  }
}

// --- CSR maintenance --------------------------------------------------------

TEST(IncrementalEngine, CsrMatchesFreshBuildEveryWindow) {
  const auto windows = low_churn_windows(8);
  IncrementalEngine engine;
  bool saw_in_place_patch = false;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    engine.observe(windows[i]);
    saw_in_place_patch |= engine.last().csr_patched_in_place;
    const CsrAdjacency fresh(windows[i]);
    const CsrAdjacency& kept = engine.csr();
    ASSERT_EQ(kept.node_count(), fresh.node_count()) << "window " << i;
    for (NodeId v = 0; v < static_cast<NodeId>(fresh.node_count()); ++v) {
      ASSERT_EQ(kept.degree(v), fresh.degree(v)) << i << ":" << v;
      const auto deg = fresh.degree(v);
      EXPECT_EQ(std::memcmp(kept.ids(v).data(), fresh.ids(v).data(),
                            deg * sizeof(std::uint32_t)), 0);
      EXPECT_EQ(std::memcmp(kept.tags(v).data(), fresh.tags(v).data(),
                            deg * sizeof(std::int32_t)), 0);
      EXPECT_EQ(std::memcmp(kept.ports(v).data(), fresh.ports(v).data(),
                            deg * sizeof(std::int32_t)), 0);
      EXPECT_EQ(std::memcmp(kept.weights(v).data(), fresh.weights(v).data(),
                            deg * sizeof(double)), 0);
    }
  }
  EXPECT_TRUE(saw_in_place_patch)
      << "no byte-only window took the patch_rows path";
}

// --- instrumentation --------------------------------------------------------

TEST(IncrementalEngine, CountersAdvance) {
  obs::Registry& registry = obs::Registry::global();
  const std::uint64_t windows0 = registry.counter("ccg.incr.windows").value();
  const std::uint64_t full0 =
      registry.counter("ccg.incr.full_recomputes").value();
  const std::uint64_t dirty0 = registry.counter("ccg.incr.dirty_nodes").value();

  const auto windows = low_churn_windows(4);
  IncrementalEngine engine;
  for (const CommGraph& w : windows) engine.observe(w);

  EXPECT_EQ(registry.counter("ccg.incr.windows").value(),
            windows0 + windows.size());
  EXPECT_GE(registry.counter("ccg.incr.full_recomputes").value(), full0 + 1)
      << "the first window is always a full recompute";
  EXPECT_GT(registry.counter("ccg.incr.dirty_nodes").value(), dirty0);
}

// --- patch-stream input -----------------------------------------------------

TEST(IncrementalEngine, CallerSuppliedPatchesMatchSelfComputed) {
  const auto windows = low_churn_windows(6);
  IncrementalOptions opts;
  opts.verify_against_full = true;
  IncrementalEngine self;
  IncrementalEngine fed(opts);
  CommGraph prev;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    self.observe(windows[i]);
    fed.observe(windows[i], make_patch(prev, windows[i]));
    EXPECT_TRUE(fed.last().verified) << fed.last().verify_error;
    EXPECT_EQ(self.last().segmentation.labels, fed.last().segmentation.labels)
        << "window " << i;
    prev = windows[i];
  }
}

}  // namespace
}  // namespace ccg
