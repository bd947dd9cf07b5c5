// Property-style parameterized sweeps: invariants that must hold across
// seeds, shard counts, facets, provider profiles and collapse thresholds —
// the places where "works on one example" hides bugs.
#include <gtest/gtest.h>

#include "ccg/graph/builder.hpp"
#include "ccg/graph/delta.hpp"
#include "ccg/graph/metrics.hpp"
#include "ccg/segmentation/auto_segment.hpp"
#include "ccg/telemetry/collector.hpp"
#include "ccg/workload/driver.hpp"
#include "ccg/workload/presets.hpp"

namespace ccg {
namespace {

/// One simulated tiny-cluster hour per seed, memoized across tests.
const std::vector<ConnectionSummary>& records_for_seed(std::uint64_t seed) {
  static std::map<std::uint64_t, std::vector<ConnectionSummary>> cache;
  auto it = cache.find(seed);
  if (it != cache.end()) return it->second;

  Cluster cluster(presets::tiny(), seed);
  TelemetryHub hub(ProviderProfile::azure(), seed);
  SimulationDriver driver(cluster, hub);
  std::vector<ConnectionSummary> all;
  for (std::int64_t m = 0; m < 60; ++m) {
    const auto batch = driver.step(MinuteBucket(m));
    all.insert(all.end(), batch.begin(), batch.end());
  }
  return cache.emplace(seed, std::move(all)).first->second;
}

std::unordered_set<IpAddr> monitored_for_seed(std::uint64_t seed) {
  std::unordered_set<IpAddr> out;
  for (const auto& r : records_for_seed(seed)) out.insert(r.flow.local_ip);
  return out;
}

// --- Graph construction invariants across seeds -----------------------------

class GraphInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GraphInvariants, NodeStatsAreConsistentWithEdges) {
  const auto& records = records_for_seed(GetParam());
  GraphBuilder builder({.facet = GraphFacet::kIp, .window_minutes = 60},
                       monitored_for_seed(GetParam()));
  for (const auto& r : records) builder.ingest(r);
  builder.flush();
  const CommGraph& g = builder.graphs().at(0);

  ASSERT_GT(g.node_count(), 0u);
  ASSERT_GT(g.edge_count(), 0u);

  // Node byte totals are exactly the sum of incident edge volumes; total
  // node bytes double-count every edge.
  std::vector<std::uint64_t> per_node(g.node_count(), 0);
  std::uint64_t edge_total = 0;
  for (const Edge& e : g.edges()) {
    EXPECT_NE(e.a, e.b);
    EXPECT_GT(e.stats.bytes() + e.stats.packets(), 0u);
    EXPECT_GE(e.stats.active_minutes, 1u);
    EXPECT_GE(e.stats.connection_minutes, 1u);
    per_node[e.a] += e.stats.bytes();
    per_node[e.b] += e.stats.bytes();
    edge_total += e.stats.bytes();
  }
  EXPECT_EQ(edge_total, g.total_bytes());
  std::uint64_t node_total = 0;
  for (NodeId i = 0; i < g.node_count(); ++i) {
    EXPECT_EQ(per_node[i], g.node_stats(i).bytes);
    node_total += g.node_stats(i).bytes;
  }
  EXPECT_EQ(node_total, 2 * edge_total);
}

TEST_P(GraphInvariants, IpPortFacetRefinesIpFacet) {
  const auto& records = records_for_seed(GetParam());
  const auto monitored = monitored_for_seed(GetParam());
  GraphBuilder ip({.facet = GraphFacet::kIp, .window_minutes = 60}, monitored);
  GraphBuilder port({.facet = GraphFacet::kIpPort, .window_minutes = 60}, monitored);
  for (const auto& r : records) {
    ip.ingest(r);
    port.ingest(r);
  }
  ip.flush();
  port.flush();
  const CommGraph& gi = ip.graphs().at(0);
  const CommGraph& gp = port.graphs().at(0);
  // The port facet splits nodes, never merges them, and both facets carry
  // the same traffic volume.
  EXPECT_GE(gp.node_count(), gi.node_count());
  EXPECT_GE(gp.edge_count(), gi.edge_count());
  EXPECT_EQ(gp.total_bytes(), gi.total_bytes());
}

TEST_P(GraphInvariants, CollapseIsMonotoneAndLossBounded) {
  const auto& records = records_for_seed(GetParam());
  GraphBuilder builder({.facet = GraphFacet::kIp, .window_minutes = 60},
                       monitored_for_seed(GetParam()));
  for (const auto& r : records) builder.ingest(r);
  builder.flush();
  const CommGraph full = builder.take_graphs().at(0);

  std::size_t prev_nodes = full.node_count() + 1;
  std::uint64_t prev_bytes = full.total_bytes() + 1;
  std::size_t monitored_count = 0;
  for (NodeId i = 0; i < full.node_count(); ++i) {
    monitored_count += full.node_stats(i).monitored;
  }
  for (const double threshold : {0.0, 0.001, 0.01, 0.1}) {
    const CommGraph collapsed =
        finalize_window_graph({&full, 1}, {.collapse_threshold = threshold});
    EXPECT_LE(collapsed.node_count(), prev_nodes);
    EXPECT_LE(collapsed.total_bytes(), prev_bytes);
    prev_nodes = collapsed.node_count();
    prev_bytes = collapsed.total_bytes();

    std::size_t still_monitored = 0;
    for (NodeId i = 0; i < collapsed.node_count(); ++i) {
      still_monitored += collapsed.node_stats(i).monitored;
    }
    EXPECT_EQ(still_monitored, monitored_count) << "monitored nodes are exempt";
  }
}

TEST_P(GraphInvariants, SegmentationLabelsAreWellFormed) {
  const auto& records = records_for_seed(GetParam());
  GraphBuilder builder({.facet = GraphFacet::kIp, .window_minutes = 60},
                       monitored_for_seed(GetParam()));
  for (const auto& r : records) builder.ingest(r);
  builder.flush();
  const CommGraph g = builder.take_graphs().at(0);

  for (const auto method :
       {SegmentationMethod::kJaccardLouvain, SegmentationMethod::kByteModularity}) {
    const Segmentation seg = auto_segment(g, method);
    ASSERT_EQ(seg.labels.size(), g.node_count());
    std::vector<bool> used(seg.segment_count, false);
    for (const auto label : seg.labels) {
      ASSERT_LT(label, seg.segment_count);
      used[label] = true;
    }
    for (const bool u : used) EXPECT_TRUE(u) << "labels must be dense";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphInvariants,
                         ::testing::Values(1u, 7u, 42u, 1337u, 99999u));

// --- A sharded build equals the single-process builder ---------------------
//
// The graph-layer half of the sharding contract the distributed collector
// relies on: partition by shard_of_record, build each partition with
// collapse off, finalize the parts once — and get the reference builder's
// graph back, byte for byte (test_dist covers the same over the wire).

class ShardEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardEquivalence, MatchesReferenceBuilder) {
  constexpr std::uint64_t kSeed = 17;
  const auto& records = records_for_seed(kSeed);
  const auto monitored = monitored_for_seed(kSeed);
  const GraphBuildConfig config{.facet = GraphFacet::kIp,
                                .window_minutes = 60,
                                .collapse_threshold = 0.001};

  GraphBuilder reference(config, monitored);
  for (const auto& r : records) reference.ingest(r);
  reference.flush();
  const CommGraph expected = reference.take_graphs().at(0);

  GraphBuildConfig partial = config;
  partial.collapse_threshold = 0.0;
  std::vector<GraphBuilder> shards;
  shards.reserve(GetParam());
  for (std::size_t s = 0; s < GetParam(); ++s) shards.emplace_back(partial, monitored);
  for (const auto& r : records) {
    shards[shard_of_record(r, config.facet, shards.size())].ingest(r);
  }
  std::vector<CommGraph> parts;
  for (auto& shard : shards) {
    shard.flush();
    for (auto& g : shard.take_graphs()) parts.push_back(std::move(g));
  }
  ASSERT_FALSE(parts.empty());
  const CommGraph got = finalize_window_graph(parts, config);
  EXPECT_TRUE(graphs_identical(got, expected));
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u, 7u, 8u));

// --- Provider sampling keeps estimates sane across profiles -----------------

struct SamplingCase {
  double packet_rate;
  double flow_rate;
};

class SamplingInvariants : public ::testing::TestWithParam<SamplingCase> {};

TEST_P(SamplingInvariants, SampledGraphIsSubsetWithBoundedVolume) {
  constexpr std::uint64_t kSeed = 23;
  ProviderProfile profile = ProviderProfile::azure();
  profile.packet_sample_rate = GetParam().packet_rate;
  profile.flow_sample_rate = GetParam().flow_rate;

  Cluster cluster(presets::tiny(), kSeed);
  TelemetryHub hub(profile, kSeed);
  SimulationDriver driver(cluster, hub);
  const auto ips = cluster.monitored_ips();
  GraphBuilder builder({.facet = GraphFacet::kIp, .window_minutes = 60},
                       {ips.begin(), ips.end()});
  hub.set_sink(&builder);
  driver.run(TimeWindow::hour(0));
  builder.flush();
  const CommGraph sampled = builder.take_graphs().at(0);

  // Reference without sampling, same seed -> same traffic.
  const auto& reference_records = records_for_seed(kSeed);
  GraphBuilder ref_builder({.facet = GraphFacet::kIp, .window_minutes = 60},
                           monitored_for_seed(kSeed));
  for (const auto& r : reference_records) ref_builder.ingest(r);
  ref_builder.flush();
  const CommGraph reference = ref_builder.take_graphs().at(0);

  EXPECT_LE(sampled.node_count(), reference.node_count());
  EXPECT_LE(sampled.edge_count(), reference.edge_count());
  // Scaled-up estimates stay within a loose factor of the truth.
  if (sampled.total_bytes() > 0) {
    const double ratio = static_cast<double>(sampled.total_bytes()) /
                         static_cast<double>(reference.total_bytes());
    EXPECT_GT(ratio, 0.2) << "estimates collapsed";
    EXPECT_LT(ratio, 2.0) << "estimates exploded";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rates, SamplingInvariants,
    ::testing::Values(SamplingCase{1.0, 1.0}, SamplingCase{0.5, 1.0},
                      SamplingCase{0.1, 1.0}, SamplingCase{1.0, 0.5},
                      SamplingCase{0.25, 0.75}, SamplingCase{0.03, 0.5}));

}  // namespace
}  // namespace ccg
