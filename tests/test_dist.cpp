// End-to-end tests of the distributed collector's determinism contract
// (docs/DISTRIBUTED.md): a sharded multi-connection run must be
// byte-identical to a single-process build, and every failure mode must be
// an explicit fail-fast, never a silent drop.
#include "ccg/dist/aggregator.hpp"
#include "ccg/dist/shard_worker.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ccg/analytics/service.hpp"
#include "ccg/common/rng.hpp"
#include "ccg/dist/wire.hpp"
#include "ccg/net/frame.hpp"
#include "ccg/obs/fleet.hpp"
#include "ccg/obs/trace.hpp"
#include "ccg/store/format.hpp"

namespace ccg::dist {
namespace {

std::vector<ConnectionSummary> random_minute(std::int64_t minute, std::size_t n,
                                             Rng& rng) {
  std::vector<ConnectionSummary> batch;
  for (std::size_t i = 0; i < n; ++i) {
    const IpAddr local(0x0A000001 + static_cast<std::uint32_t>(rng.uniform(32)));
    IpAddr remote(0x0A000001 + static_cast<std::uint32_t>(rng.uniform(32)));
    if (remote == local) remote = IpAddr(remote.bits() + 1);
    batch.push_back(ConnectionSummary{
        .time = MinuteBucket(minute),
        .flow = FlowKey{.local_ip = local,
                        .local_port =
                            static_cast<std::uint16_t>(33000 + rng.uniform(1000)),
                        .remote_ip = remote,
                        .remote_port = 443,
                        .protocol = Protocol::kTcp},
        .counters = TrafficCounters{.packets_sent = 1 + rng.uniform(10),
                                    .packets_rcvd = 1,
                                    .bytes_sent = 100 + rng.uniform(10000),
                                    .bytes_rcvd = 50}});
  }
  return batch;
}

std::unordered_set<IpAddr> all_monitored() {
  std::unordered_set<IpAddr> monitored;
  for (std::uint32_t i = 0; i < 64; ++i) monitored.insert(IpAddr(0x0A000001 + i));
  return monitored;
}

std::vector<std::uint8_t> frame_bytes(const CommGraph& graph) {
  return store::encode_frame(store::FrameKind::kKeyframe, CommGraph(), graph);
}

/// True when `name` has a `.shard.<digits>.` segment, i.e. encodes a shard
/// id into a metric name.
bool has_shard_id_segment(const std::string& name) {
  constexpr std::string_view kMarker = ".shard.";
  for (auto at = name.find(kMarker); at != std::string::npos;
       at = name.find(kMarker, at + 1)) {
    std::size_t i = at + kMarker.size();
    while (i < name.size() && name[i] >= '0' && name[i] <= '9') ++i;
    if (i > at + kMarker.size() && i < name.size() && name[i] == '.') return true;
  }
  return false;
}

/// What one worker ingested and shipped, read after its finish().
struct WorkerStats {
  std::uint64_t records = 0;
  std::uint64_t windows = 0;
  std::uint64_t telemetry = 0;
};

/// Runs `shards` ShardWorkers (worker threads over socketpairs) and one
/// Aggregator (this thread) over the given minutes; returns the merged
/// window graphs. `stats`, when given, receives one entry per worker.
std::optional<std::vector<CommGraph>> run_distributed(
    const std::vector<std::vector<ConnectionSummary>>& minutes,
    const GraphBuildConfig& config, std::size_t shards,
    const std::unordered_set<IpAddr>& monitored = all_monitored(),
    std::vector<WorkerStats>* stats = nullptr) {
  std::vector<net::FrameConn> agg_side;
  std::vector<std::thread> workers;
  std::vector<int> worker_rc(shards, -1);
  std::vector<WorkerStats> shipped(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    auto pair = net::socket_pair();
    if (!pair.has_value()) return std::nullopt;
    agg_side.push_back(std::move(pair->first));
    workers.emplace_back([&, s, conn = std::move(pair->second)]() mutable {
      ShardWorker worker({.shard_id = static_cast<std::uint32_t>(s),
                          .shard_count = static_cast<std::uint32_t>(shards),
                          .graph = config},
                         monitored, std::move(conn));
      if (!worker.handshake()) {
        worker_rc[s] = 1;
        return;
      }
      for (std::size_t m = 0; m < minutes.size(); ++m) {
        worker.on_batch(MinuteBucket(static_cast<std::int64_t>(m)), minutes[m]);
      }
      worker_rc[s] = worker.finish() ? 0 : 1;
      shipped[s] = {worker.records(), worker.windows_shipped(),
                    worker.telemetry_shipped()};
    });
  }

  std::vector<CommGraph> merged;
  Aggregator aggregator({.graph = config, .recv_timeout_ms = 10000},
                        std::move(agg_side));
  const bool shook = aggregator.handshake();
  std::optional<Aggregator::Result> result;
  if (shook) {
    result = aggregator.run(
        [&](const CommGraph& graph) { merged.push_back(graph); });
  }
  for (auto& t : workers) t.join();
  if (!shook || !result) return std::nullopt;
  for (std::size_t s = 0; s < shards; ++s) {
    if (worker_rc[s] != 0) return std::nullopt;
  }
  if (stats != nullptr) *stats = std::move(shipped);
  return merged;
}

TEST(ShardHash, GoldenAssignmentsArePinned) {
  // shard_of_record is part of the wire contract: shard workers and any
  // future external partitioner must agree. These values pin the hash —
  // if this test breaks, the shard key changed and kWireVersion must be
  // bumped.
  Rng rng(7);
  const auto batch = random_minute(0, 8, rng);
  const std::vector<std::size_t> golden_4 = {1, 1, 2, 0, 3, 3, 3, 0};
  ASSERT_EQ(batch.size(), golden_4.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(shard_of_record(batch[i], GraphFacet::kIp, 4), golden_4[i])
        << "record " << i;
  }
}

TEST(ShardHash, BothFlowOrientationsLandInOneShard) {
  // An edge's two endpoints may each report the same conversation; the
  // merge is a disjoint union only if both records hash to the same shard.
  Rng rng(21);
  for (const auto& record : random_minute(0, 200, rng)) {
    ConnectionSummary flipped = record;
    std::swap(flipped.flow.local_ip, flipped.flow.remote_ip);
    std::swap(flipped.flow.local_port, flipped.flow.remote_port);
    for (const std::size_t shards : {2u, 4u, 7u}) {
      for (const GraphFacet facet : {GraphFacet::kIp, GraphFacet::kIpPort}) {
        EXPECT_EQ(shard_of_record(record, facet, shards),
                  shard_of_record(flipped, facet, shards));
      }
    }
  }
}

TEST(ShardHash, EveryShardGetsWork) {
  Rng rng(5);
  const auto batch = random_minute(0, 2000, rng);
  std::vector<std::size_t> counts(4, 0);
  for (const auto& r : batch) {
    ++counts[shard_of_record(r, GraphFacet::kIp, 4)];
  }
  for (std::size_t s = 0; s < counts.size(); ++s) {
    EXPECT_GT(counts[s], 100u) << "shard " << s << " starved";
  }
}

/// Runs the distributed collector at each shard count over two hours of
/// random traffic (collapse on) and expects every merged window to encode
/// to the same keyframe bytes as the single-process build.
void expect_byte_identical_at(std::initializer_list<std::size_t> shard_counts) {
  Rng rng(99);
  std::vector<std::vector<ConnectionSummary>> minutes;
  for (std::int64_t m = 0; m < 120; ++m) {
    minutes.push_back(random_minute(m, 200, rng));
  }
  const GraphBuildConfig config{.facet = GraphFacet::kIp,
                                .window_minutes = 60,
                                .collapse_threshold = 0.01};

  GraphBuilder reference(config, all_monitored());
  for (std::size_t m = 0; m < minutes.size(); ++m) {
    reference.on_batch(MinuteBucket(static_cast<std::int64_t>(m)), minutes[m]);
  }
  reference.flush();
  const auto expected = reference.take_graphs();
  ASSERT_EQ(expected.size(), 2u);

  for (const std::size_t shards : shard_counts) {
    const auto merged = run_distributed(minutes, config, shards);
    ASSERT_TRUE(merged.has_value()) << shards << " shards";
    ASSERT_EQ(merged->size(), expected.size()) << shards << " shards";
    for (std::size_t w = 0; w < expected.size(); ++w) {
      EXPECT_EQ((*merged)[w].window(), expected[w].window());
      EXPECT_EQ(frame_bytes((*merged)[w]), frame_bytes(expected[w]))
          << "window " << w << " differs at " << shards << " shards";
    }
  }
}

TEST(DistributedCollector, ByteIdenticalAtOneTwoAndFourShards) {
  expect_byte_identical_at({1, 2, 4});
}

TEST(DistributedCollector, ByteIdenticalAtThreeSevenAndEightShards) {
  // The other shard counts Shards/ShardEquivalence runs.
  expect_byte_identical_at({3, 7, 8});
}

// --- Sharded graph pipeline -------------------------------------------------
// The sharded build in one process: ShardWorkers and an Aggregator over
// socketpairs, checked against the single-threaded GraphBuilder.

TEST(ShardedGraphPipeline, MatchesSingleThreadedBuilder) {
  Rng rng(99);
  std::vector<std::vector<ConnectionSummary>> minutes;
  for (std::int64_t m = 0; m < 120; ++m) {
    minutes.push_back(random_minute(m, 200, rng));
  }

  // Collapse off: the merged windows go through finalize without folding.
  const GraphBuildConfig config{.facet = GraphFacet::kIp, .window_minutes = 60};
  GraphBuilder reference(config, all_monitored());
  for (std::size_t m = 0; m < minutes.size(); ++m) {
    reference.on_batch(MinuteBucket(static_cast<std::int64_t>(m)), minutes[m]);
  }
  reference.flush();
  const auto expected = reference.take_graphs();

  std::vector<WorkerStats> stats;
  const auto actual =
      run_distributed(minutes, config, 4, all_monitored(), &stats);
  ASSERT_TRUE(actual.has_value());
  ASSERT_EQ(actual->size(), expected.size());
  for (std::size_t w = 0; w < actual->size(); ++w) {
    EXPECT_EQ((*actual)[w].window(), expected[w].window());
    // Byte-level equality: serializing both graphs as keyframes compares
    // every node key, monitored flag, collapsed membership, edge endpoint,
    // port hint and traffic counter — the full determinism contract, not
    // just the aggregate shape.
    EXPECT_EQ(frame_bytes((*actual)[w]), frame_bytes(expected[w]))
        << "window " << w << " differs from single-threaded build";
  }
  std::uint64_t records = 0;
  for (const WorkerStats& s : stats) records += s.records;
  EXPECT_EQ(records, 120u * 200u);
}

TEST(ShardedGraphPipeline, CollapseAppliedAfterMerge) {
  // Shards build with collapse off: a partition only sees its own edges,
  // so traffic shares are meaningless there. The aggregator collapses the
  // merged window, so tiny remotes spread across shards still fold.
  const GraphBuildConfig config{.facet = GraphFacet::kIp,
                                .window_minutes = 60,
                                .collapse_threshold = 0.01};
  std::vector<ConnectionSummary> batch;
  // Heavy edge (60 concurrent flows) + many tiny remotes; tiny nodes must
  // fall below the byte, packet AND connection-minute thresholds.
  for (std::uint16_t k = 0; k < 60; ++k) {
    batch.push_back(ConnectionSummary{
        .time = MinuteBucket(0),
        .flow = FlowKey{.local_ip = IpAddr(0x0A000001),
                        .local_port = static_cast<std::uint16_t>(40000 + k),
                        .remote_ip = IpAddr(0x0B000001), .remote_port = 443,
                        .protocol = Protocol::kTcp},
        .counters = TrafficCounters{.packets_sent = 200, .bytes_sent = 10'000'000}});
  }
  for (std::uint32_t i = 0; i < 60; ++i) {
    batch.push_back(ConnectionSummary{
        .time = MinuteBucket(0),
        .flow = FlowKey{.local_ip = IpAddr(0x0A000001), .local_port = 39000,
                        .remote_ip = IpAddr(0x64000000 + i), .remote_port = 443,
                        .protocol = Protocol::kTcp},
        .counters = TrafficCounters{.packets_sent = 1, .bytes_sent = 10}});
  }
  const auto graphs =
      run_distributed({batch}, config, 3, {IpAddr(0x0A000001)});
  ASSERT_TRUE(graphs.has_value());
  ASSERT_EQ(graphs->size(), 1u);
  const CommGraph& g = (*graphs)[0];
  // monitored + heavy remote + <other>.
  EXPECT_EQ(g.node_count(), 3u);
  const auto other = g.find_node(NodeKey::collapsed());
  ASSERT_TRUE(other.has_value());
  EXPECT_EQ(g.node_stats(*other).collapsed_members, 60u);
}

TEST(ShardedGraphPipeline, SingleShardWorks) {
  Rng rng(7);
  const GraphBuildConfig config{.facet = GraphFacet::kIp, .window_minutes = 60};
  std::vector<WorkerStats> stats;
  const auto graphs = run_distributed({random_minute(0, 100, rng)}, config, 1,
                                      all_monitored(), &stats);
  ASSERT_TRUE(graphs.has_value());
  ASSERT_EQ(graphs->size(), 1u);
  EXPECT_GT((*graphs)[0].edge_count(), 0u);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].records, 100u);
}

TEST(DistributedCollector, TelemetryShipsPerWindowNotPerMinute) {
  // A worker ships a kTelemetry frame after a minute that closed a window
  // and once at end of stream — never once per minute.
  Rng rng(17);
  std::vector<std::vector<ConnectionSummary>> minutes;
  for (std::int64_t m = 0; m < 120; ++m) {
    minutes.push_back(random_minute(m, 50, rng));
  }
  const GraphBuildConfig config{.facet = GraphFacet::kIp, .window_minutes = 60};
  std::vector<WorkerStats> stats;
  ASSERT_TRUE(
      run_distributed(minutes, config, 2, all_monitored(), &stats).has_value());
  ASSERT_EQ(stats.size(), 2u);
  for (std::size_t s = 0; s < stats.size(); ++s) {
    EXPECT_EQ(stats[s].windows, 2u) << "shard " << s;
    EXPECT_GE(stats[s].telemetry, 1u) << "shard " << s;
    EXPECT_LE(stats[s].telemetry, stats[s].windows + 1) << "shard " << s;
  }
}

TEST(DistributedCollector, ShardIdentityOnlyInLabels) {
  // Per-shard series are told apart by their shard="N" label, never by a
  // shard id encoded into the metric name.
  Rng rng(23);
  std::vector<std::vector<ConnectionSummary>> minutes;
  for (std::int64_t m = 0; m < 120; ++m) {
    minutes.push_back(random_minute(m, 50, rng));
  }
  const GraphBuildConfig config{.facet = GraphFacet::kIp, .window_minutes = 60};
  obs::FleetRegistry::global().clear();  // only this run's shards
  ASSERT_TRUE(run_distributed(minutes, config, 2).has_value());

  const auto expect_clean = [&](const obs::Snapshot& snap, const char* where) {
    std::vector<std::string> names;
    for (const auto& c : snap.counters) names.push_back(c.name);
    for (const auto& g : snap.gauges) names.push_back(g.name);
    for (const auto& h : snap.histograms) names.push_back(h.name);
    EXPECT_FALSE(names.empty()) << where;
    for (const std::string& name : names) {
      EXPECT_FALSE(has_shard_id_segment(name)) << where << ": " << name;
    }
  };
  expect_clean(obs::Registry::global().snapshot(), "registry");
  const obs::Snapshot fleet = obs::FleetRegistry::global().labeled_snapshot();
  expect_clean(fleet, "fleet");

  // The fleet view carries the worker series once per shard, by label.
  std::vector<std::uint32_t> labeled_shards;
  for (const auto& c : fleet.counters) {
    if (c.name == "ccg.dist.shard.records" && c.shard) {
      labeled_shards.push_back(*c.shard);
    }
  }
  EXPECT_EQ(labeled_shards, (std::vector<std::uint32_t>{0, 1}));
}

TEST(DistributedCollector, AnalyticsSummariesMatchSingleProcess) {
  Rng rng(31);
  std::vector<std::vector<ConnectionSummary>> minutes;
  for (std::int64_t m = 0; m < 300; ++m) {
    minutes.push_back(random_minute(m, 120, rng));
  }
  const GraphBuildConfig config{.facet = GraphFacet::kIp, .window_minutes = 60};

  // Single process: the normal streaming path.
  std::vector<std::string> single;
  AnalyticsService single_service(
      {.graph = config, .training_windows = 2},
      all_monitored(),
      [&](const WindowReport& r) { single.push_back(r.summary()); });
  for (std::size_t m = 0; m < minutes.size(); ++m) {
    single_service.on_batch(MinuteBucket(static_cast<std::int64_t>(m)),
                            minutes[m]);
  }
  single_service.flush();
  ASSERT_EQ(single.size(), 5u);

  // Distributed: merged windows enter through ingest_window.
  const auto merged = run_distributed(minutes, config, 4);
  ASSERT_TRUE(merged.has_value());
  std::vector<std::string> distributed;
  AnalyticsService dist_service(
      {.graph = config, .training_windows = 2}, {},
      [&](const WindowReport& r) { distributed.push_back(r.summary()); });
  for (const CommGraph& graph : *merged) dist_service.ingest_window(graph);

  EXPECT_EQ(distributed, single);
}

TEST(DistributedCollector, WindowTraceIdsSurviveTheWire) {
  Rng rng(13);
  std::vector<std::vector<ConnectionSummary>> minutes;
  for (std::int64_t m = 0; m < 120; ++m) {
    minutes.push_back(random_minute(m, 50, rng));
  }
  const GraphBuildConfig config{.facet = GraphFacet::kIp, .window_minutes = 60};
  const auto merged = run_distributed(minutes, config, 2);
  ASSERT_TRUE(merged.has_value());
  for (const CommGraph& graph : *merged) {
    // The aggregator refuses frames whose shipped trace id disagrees with
    // the deterministic one, so surviving windows must satisfy this.
    EXPECT_NE(obs::window_trace_id(graph.window().begin().index()), 0u);
  }
}

// --- failure semantics -------------------------------------------------------

TEST(DistributedCollector, AggregatorRefusesVersionMismatch) {
  auto pair = net::socket_pair();
  ASSERT_TRUE(pair.has_value());
  const GraphBuildConfig config{.facet = GraphFacet::kIp, .window_minutes = 60};

  Hello hello;
  hello.version = kWireVersion + 1;
  hello.shard_id = 0;
  hello.shard_count = 1;
  hello.config = wire_config(config);
  ASSERT_TRUE(pair->second.send(encode_hello(hello)));

  std::vector<net::FrameConn> conns;
  conns.push_back(std::move(pair->first));
  Aggregator aggregator({.graph = config,
                         .recv_timeout_ms = 2000,
                         .flight_dir = ::testing::TempDir()},
                        std::move(conns));
  EXPECT_FALSE(aggregator.handshake());
  // The refused shard sees a closed connection, not an ack.
  std::vector<std::uint8_t> payload;
  EXPECT_EQ(pair->second.recv(payload, 2000), net::RecvStatus::kEof);
}

TEST(DistributedCollector, AggregatorRefusesConfigMismatch) {
  auto pair = net::socket_pair();
  ASSERT_TRUE(pair.has_value());
  const GraphBuildConfig agg_config{.facet = GraphFacet::kIp,
                                    .window_minutes = 60};
  GraphBuildConfig shard_config = agg_config;
  shard_config.window_minutes = 30;  // disagreement → refusal

  std::vector<net::FrameConn> conns;
  conns.push_back(std::move(pair->first));
  Aggregator aggregator({.graph = agg_config,
                         .recv_timeout_ms = 2000,
                         .flight_dir = ::testing::TempDir()},
                        std::move(conns));

  std::thread worker([&, conn = std::move(pair->second)]() mutable {
    ShardWorker shard({.shard_id = 0, .shard_count = 1, .graph = shard_config},
                      all_monitored(), std::move(conn));
    // The worker must read the missing ack as a refusal.
    EXPECT_FALSE(shard.handshake());
  });
  EXPECT_FALSE(aggregator.handshake());
  worker.join();
}

TEST(DistributedCollector, DuplicateShardIdRefused) {
  auto a = net::socket_pair();
  auto b = net::socket_pair();
  ASSERT_TRUE(a.has_value() && b.has_value());
  const GraphBuildConfig config{.facet = GraphFacet::kIp, .window_minutes = 60};

  Hello hello;
  hello.shard_id = 1;
  hello.shard_count = 2;
  hello.config = wire_config(config);
  ASSERT_TRUE(a->second.send(encode_hello(hello)));
  ASSERT_TRUE(b->second.send(encode_hello(hello)));  // same shard id twice

  std::vector<net::FrameConn> conns;
  conns.push_back(std::move(a->first));
  conns.push_back(std::move(b->first));
  Aggregator aggregator({.graph = config,
                         .recv_timeout_ms = 2000,
                         .flight_dir = ::testing::TempDir()},
                        std::move(conns));
  EXPECT_FALSE(aggregator.handshake());
}

TEST(DistributedCollector, ShardDyingMidStreamFailsTheRun) {
  const GraphBuildConfig config{.facet = GraphFacet::kIp, .window_minutes = 60};
  auto pair = net::socket_pair();
  ASSERT_TRUE(pair.has_value());

  std::vector<net::FrameConn> conns;
  conns.push_back(std::move(pair->first));
  Aggregator aggregator({.graph = config,
                         .recv_timeout_ms = 2000,
                         .flight_dir = ::testing::TempDir()},
                        std::move(conns));

  std::thread worker([&, conn = std::move(pair->second)]() mutable {
    ShardWorker shard({.shard_id = 0, .shard_count = 1, .graph = config},
                      all_monitored(), std::move(conn));
    ASSERT_TRUE(shard.handshake());
    Rng rng(3);
    // Two windows' worth of records, then vanish without end-of-stream:
    // the aggregator must treat the EOF as a crash, not completion.
    for (std::int64_t m = 0; m < 90; ++m) {
      shard.on_batch(MinuteBucket(m), random_minute(m, 20, rng));
    }
  });
  ASSERT_TRUE(aggregator.handshake());
  std::vector<CommGraph> merged;
  EXPECT_FALSE(
      aggregator.run([&](const CommGraph& g) { merged.push_back(g); })
          .has_value());
  worker.join();
}

TEST(DistributedCollector, SilentShardTimesOutAndFailsTheRun) {
  const GraphBuildConfig config{.facet = GraphFacet::kIp, .window_minutes = 60};
  auto pair = net::socket_pair();
  ASSERT_TRUE(pair.has_value());

  Hello hello;
  hello.shard_id = 0;
  hello.shard_count = 1;
  hello.config = wire_config(config);
  ASSERT_TRUE(pair->second.send(encode_hello(hello)));

  std::vector<net::FrameConn> conns;
  conns.push_back(std::move(pair->first));
  Aggregator aggregator({.graph = config,
                         .recv_timeout_ms = 100,
                         .flight_dir = ::testing::TempDir()},
                        std::move(conns));
  ASSERT_TRUE(aggregator.handshake());
  // The shard never ships anything: the run must fail fast (timeout), not
  // hang or report success.
  EXPECT_FALSE(aggregator.run([](const CommGraph&) {}).has_value());
}

TEST(DistributedCollector, ForgedTraceIdFailsTheRun) {
  const GraphBuildConfig config{.facet = GraphFacet::kIp, .window_minutes = 60};
  auto pair = net::socket_pair();
  ASSERT_TRUE(pair.has_value());

  Hello hello;
  hello.shard_id = 0;
  hello.shard_count = 1;
  hello.config = wire_config(config);
  ASSERT_TRUE(pair->second.send(encode_hello(hello)));

  std::vector<net::FrameConn> conns;
  conns.push_back(std::move(pair->first));
  Aggregator aggregator({.graph = config,
                         .recv_timeout_ms = 2000,
                         .flight_dir = ::testing::TempDir()},
                        std::move(conns));
  ASSERT_TRUE(aggregator.handshake());
  std::vector<std::uint8_t> ack;
  ASSERT_EQ(pair->second.recv(ack, 2000), net::RecvStatus::kOk);

  // A syntactically valid window frame whose trace id is not the
  // deterministic one for its window: the processes disagree about window
  // identity, which poisons cross-process trace correlation.
  GraphBuilder builder(config, all_monitored());
  Rng rng(4);
  for (std::int64_t m = 0; m < 61; ++m) {
    builder.on_batch(MinuteBucket(m), random_minute(m, 10, rng));
  }
  auto graphs = builder.take_graphs();
  ASSERT_FALSE(graphs.empty());
  WindowFrame frame;
  frame.shard_id = 0;
  frame.window_begin = graphs[0].window().begin().index();
  frame.trace_id = obs::window_trace_id(frame.window_begin) ^ 1;
  frame.keyframe = frame_bytes(graphs[0]);
  ASSERT_TRUE(pair->second.send(encode_window(frame)));

  EXPECT_FALSE(aggregator.run([](const CommGraph&) {}).has_value());
}

TEST(DistributedCollector, InconsistentEndOfStreamFailsTheRun) {
  const GraphBuildConfig config{.facet = GraphFacet::kIp, .window_minutes = 60};
  auto pair = net::socket_pair();
  ASSERT_TRUE(pair.has_value());

  Hello hello;
  hello.shard_id = 0;
  hello.shard_count = 1;
  hello.config = wire_config(config);
  ASSERT_TRUE(pair->second.send(encode_hello(hello)));
  // Claims one shipped window, shipped none: the aggregator must notice
  // the hole instead of reporting a clean (but incomplete) run.
  ASSERT_TRUE(pair->second.send(encode_end_of_stream({0, 100, 1})));

  std::vector<net::FrameConn> conns;
  conns.push_back(std::move(pair->first));
  Aggregator aggregator({.graph = config,
                         .recv_timeout_ms = 2000,
                         .flight_dir = ::testing::TempDir()},
                        std::move(conns));
  ASSERT_TRUE(aggregator.handshake());
  EXPECT_FALSE(aggregator.run([](const CommGraph&) {}).has_value());
}

TEST(DistributedCollector, ArrivalOrderDoesNotMatter) {
  // Workers race to connect in `serve`; the hello's shard id, not arrival
  // order, decides the slot. Swap the connection order and the result must
  // still be byte-identical.
  Rng rng(55);
  std::vector<std::vector<ConnectionSummary>> minutes;
  for (std::int64_t m = 0; m < 60; ++m) {
    minutes.push_back(random_minute(m, 100, rng));
  }
  const GraphBuildConfig config{.facet = GraphFacet::kIp, .window_minutes = 60};

  GraphBuilder reference(config, all_monitored());
  for (std::size_t m = 0; m < minutes.size(); ++m) {
    reference.on_batch(MinuteBucket(static_cast<std::int64_t>(m)), minutes[m]);
  }
  reference.flush();
  const auto expected = reference.take_graphs();
  ASSERT_EQ(expected.size(), 1u);

  auto a = net::socket_pair();
  auto b = net::socket_pair();
  ASSERT_TRUE(a.has_value() && b.has_value());
  std::vector<std::thread> workers;
  std::array<net::FrameConn, 2> worker_conns = {std::move(a->second),
                                                std::move(b->second)};
  for (std::size_t s = 0; s < 2; ++s) {
    workers.emplace_back([&, s, conn = std::move(worker_conns[s])]() mutable {
      ShardWorker worker({.shard_id = static_cast<std::uint32_t>(s),
                          .shard_count = 2,
                          .graph = config},
                         all_monitored(), std::move(conn));
      ASSERT_TRUE(worker.handshake());
      for (std::size_t m = 0; m < minutes.size(); ++m) {
        worker.on_batch(MinuteBucket(static_cast<std::int64_t>(m)), minutes[m]);
      }
      EXPECT_TRUE(worker.finish());
    });
  }
  // Deliberately reversed: shard 1's connection first.
  std::vector<net::FrameConn> conns;
  conns.push_back(std::move(b->first));
  conns.push_back(std::move(a->first));
  Aggregator aggregator({.graph = config, .recv_timeout_ms = 10000},
                        std::move(conns));
  ASSERT_TRUE(aggregator.handshake());
  std::vector<CommGraph> merged;
  const auto result =
      aggregator.run([&](const CommGraph& g) { merged.push_back(g); });
  for (auto& t : workers) t.join();
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(frame_bytes(merged[0]), frame_bytes(expected[0]));
}

}  // namespace
}  // namespace ccg::dist
