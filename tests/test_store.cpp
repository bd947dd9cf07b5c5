// Snapshot store: append / range-scan round trips, crash-shaped failure
// modes (torn frames, stale or missing index), compaction, and the
// replay-equals-streaming contract the paper's counterfactual analyses
// depend on.
#include "ccg/store/store.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>

#include "ccg/analytics/service.hpp"
#include "ccg/graph/delta.hpp"
#include "ccg/workload/driver.hpp"
#include "ccg/workload/presets.hpp"
#include "mutation.hpp"

namespace ccg {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("ccg_store_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Buffers a simulated telemetry stream so several sinks can consume the
/// exact same batches (a second simulation run would be a weaker test).
struct CaptureSink : TelemetrySink {
  std::vector<std::pair<MinuteBucket, std::vector<ConnectionSummary>>> batches;
  void on_batch(MinuteBucket time,
                const std::vector<ConnectionSummary>& batch) override {
    batches.emplace_back(time, batch);
  }
  void replay_into(TelemetrySink& sink) const {
    for (const auto& [time, batch] : batches) sink.on_batch(time, batch);
  }
};

struct Workload {
  CaptureSink stream;
  std::unordered_set<IpAddr> monitored;
};

Workload simulate(std::int64_t minutes, std::uint64_t seed) {
  Workload w;
  Cluster cluster(presets::tiny(), seed);
  TelemetryHub hub(ProviderProfile::azure(), seed);
  SimulationDriver driver(cluster, hub);
  hub.set_sink(&w.stream);
  driver.run(TimeWindow::minutes(0, minutes));
  const auto ips = cluster.monitored_ips();
  w.monitored = {ips.begin(), ips.end()};
  return w;
}

constexpr GraphBuildConfig kConfig{.facet = GraphFacet::kIp,
                                   .window_minutes = 5,
                                   .collapse_threshold = 0.001};

std::vector<CommGraph> build_windows(const Workload& w) {
  GraphBuilder builder(kConfig, w.monitored);
  w.stream.replay_into(builder);
  builder.flush();
  return builder.take_graphs();
}

std::vector<CommGraph> scan_all(const store::StoreReader& reader) {
  std::vector<CommGraph> out;
  auto range = reader.range();
  while (auto g = range.next()) out.push_back(std::move(*g));
  return out;
}

TEST(Store, AppendScanRoundTrip) {
  const auto dir = fresh_dir("roundtrip");
  const auto windows = build_windows(simulate(120, 7));
  ASSERT_GE(windows.size(), 20u);

  auto writer = store::StoreWriter::open(dir, {.keyframe_interval = 4});
  ASSERT_TRUE(writer.has_value());
  for (const auto& g : windows) ASSERT_TRUE(writer->append(g));
  writer->close();

  const store::StoreStats stats = writer->stats();
  EXPECT_EQ(stats.windows, windows.size());
  EXPECT_EQ(stats.keyframes, (windows.size() + 3) / 4);
  EXPECT_EQ(stats.keyframes + stats.deltas, stats.windows);
  EXPECT_GT(stats.bytes_on_disk, 0u);

  auto reader = store::StoreReader::open(dir);
  ASSERT_TRUE(reader.has_value());
  const auto loaded = scan_all(*reader);
  ASSERT_EQ(loaded.size(), windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    ASSERT_TRUE(graphs_identical(windows[i], loaded[i])) << "window " << i;
  }
}

TEST(Store, RejectsOutOfOrderAppends) {
  const auto dir = fresh_dir("order");
  const auto windows = build_windows(simulate(30, 7));
  ASSERT_GE(windows.size(), 2u);
  auto writer = store::StoreWriter::open(dir);
  ASSERT_TRUE(writer.has_value());
  ASSERT_TRUE(writer->append(windows[1]));
  EXPECT_FALSE(writer->append(windows[0])) << "window_begin went backwards";
  EXPECT_FALSE(writer->append(windows[1])) << "duplicate window_begin";
}

TEST(Store, RangeQueriesAndPointLookup) {
  const auto dir = fresh_dir("range");
  const auto windows = build_windows(simulate(120, 11));
  ASSERT_GE(windows.size(), 12u);
  {
    auto writer = store::StoreWriter::open(dir, {.keyframe_interval = 5});
    ASSERT_TRUE(writer.has_value());
    for (const auto& g : windows) ASSERT_TRUE(writer->append(g));
  }
  auto reader = store::StoreReader::open(dir);
  ASSERT_TRUE(reader.has_value());

  // [t0, t1) on window_begin, mid-store, cutting across keyframe boundaries.
  const std::int64_t t0 = windows[3].window().begin().index();
  const std::int64_t t1 = windows[9].window().begin().index();
  auto range = reader->range(t0, t1);
  for (std::size_t i = 3; i < 9; ++i) {
    const auto g = range.next();
    ASSERT_TRUE(g.has_value()) << "window " << i;
    ASSERT_TRUE(graphs_identical(windows[i], *g)) << "window " << i;
  }
  EXPECT_FALSE(range.next().has_value());

  // Point lookup of a delta frame must roll forward from its keyframe.
  const std::int64_t b = windows[7].window().begin().index();
  const auto point = reader->range(b, b + 1).next();
  ASSERT_TRUE(point.has_value());
  EXPECT_TRUE(graphs_identical(windows[7], *point));
  EXPECT_FALSE(reader->range(-12345, -12344).next().has_value());
}

TEST(Store, ReopenStartsNewSegmentWithKeyframe) {
  const auto dir = fresh_dir("reopen");
  const auto windows = build_windows(simulate(120, 13));
  ASSERT_GE(windows.size(), 10u);
  const std::size_t half = windows.size() / 2;
  {
    auto writer = store::StoreWriter::open(dir, {.keyframe_interval = 8});
    ASSERT_TRUE(writer.has_value());
    for (std::size_t i = 0; i < half; ++i) ASSERT_TRUE(writer->append(windows[i]));
  }
  {
    auto writer = store::StoreWriter::open(dir, {.keyframe_interval = 8});
    ASSERT_TRUE(writer.has_value());
    for (std::size_t i = half; i < windows.size(); ++i) {
      ASSERT_TRUE(writer->append(windows[i]));
    }
  }
  auto reader = store::StoreReader::open(dir);
  ASSERT_TRUE(reader.has_value());
  const auto& entries = reader->entries();
  ASSERT_EQ(entries.size(), windows.size());
  // A reopened writer never touches the old segment (torn-tail safety), so
  // the second session begins a new segment and re-keyframes.
  EXPECT_EQ(entries[half].segment, entries[half - 1].segment + 1);
  EXPECT_EQ(entries[half].kind, store::FrameKind::kKeyframe);

  const auto loaded = scan_all(*reader);
  ASSERT_EQ(loaded.size(), windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    ASSERT_TRUE(graphs_identical(windows[i], loaded[i])) << "window " << i;
  }
}

TEST(Store, IndexRebuildMatchesWrittenIndex) {
  const auto dir = fresh_dir("rebuild");
  const auto windows = build_windows(simulate(60, 17));
  {
    auto writer = store::StoreWriter::open(dir, {.keyframe_interval = 3});
    ASSERT_TRUE(writer.has_value());
    for (const auto& g : windows) ASSERT_TRUE(writer->append(g));
  }
  auto indexed = store::StoreReader::open(dir);
  ASSERT_TRUE(indexed.has_value());
  ASSERT_TRUE(fs::remove(fs::path(dir) / "index.ccgx"));
  auto scanned = store::StoreReader::open(dir);
  ASSERT_TRUE(scanned.has_value());

  ASSERT_EQ(indexed->entries().size(), scanned->entries().size());
  for (std::size_t i = 0; i < indexed->entries().size(); ++i) {
    const auto& a = indexed->entries()[i];
    const auto& b = scanned->entries()[i];
    EXPECT_EQ(a.window_begin, b.window_begin);
    EXPECT_EQ(a.segment, b.segment);
    EXPECT_EQ(a.offset, b.offset);
    EXPECT_EQ(a.length, b.length);
    EXPECT_EQ(a.kind, b.kind);
  }
}

TEST(Store, TornFrameTruncatesScanAtCorruption) {
  const auto dir = fresh_dir("torn");
  const auto windows = build_windows(simulate(90, 19));
  ASSERT_GE(windows.size(), 10u);
  {
    auto writer = store::StoreWriter::open(dir, {.keyframe_interval = 4});
    ASSERT_TRUE(writer.has_value());
    for (const auto& g : windows) ASSERT_TRUE(writer->append(g));
  }
  store::IndexEntry victim;
  std::string segment_file;
  {
    auto reader = store::StoreReader::open(dir);
    ASSERT_TRUE(reader.has_value());
    victim = reader->entries()[6];
    char name[32];
    std::snprintf(name, sizeof(name), "seg-%06u.ccgs", victim.segment);
    segment_file = (fs::path(dir) / name).string();
  }
  {
    // Flip one payload byte: the CRC must catch it.
    std::fstream f(segment_file,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(victim.offset) + 5);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(victim.offset) + 5);
    f.write(&byte, 1);
  }
  // Without the index, the recovery scan stops at the torn frame and keeps
  // everything before it.
  ASSERT_TRUE(fs::remove(fs::path(dir) / "index.ccgx"));
  auto reader = store::StoreReader::open(dir);
  ASSERT_TRUE(reader.has_value());
  EXPECT_EQ(reader->entries().size(), 6u);
  const auto loaded = scan_all(*reader);
  ASSERT_EQ(loaded.size(), 6u);
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    ASSERT_TRUE(graphs_identical(windows[i], loaded[i])) << "window " << i;
  }
}

TEST(Store, CompactRekeyframesAndAppliesRetention) {
  const auto dir = fresh_dir("compact");
  const auto windows = build_windows(simulate(120, 23));
  ASSERT_GE(windows.size(), 20u);
  {
    auto writer = store::StoreWriter::open(dir, {.keyframe_interval = 8});
    ASSERT_TRUE(writer.has_value());
    for (const auto& g : windows) ASSERT_TRUE(writer->append(g));
  }
  const std::size_t drop = 6;
  const std::int64_t horizon = windows[drop].window().begin().index();
  const auto stats =
      store::compact_store(dir, {.keyframe_interval = 2, .retain_from = horizon});
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->windows, windows.size() - drop);
  EXPECT_EQ(stats->keyframes, (stats->windows + 1) / 2);
  EXPECT_EQ(stats->first_window_begin, horizon);

  auto reader = store::StoreReader::open(dir);
  ASSERT_TRUE(reader.has_value());
  const auto loaded = scan_all(*reader);
  ASSERT_EQ(loaded.size(), windows.size() - drop);
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    ASSERT_TRUE(graphs_identical(windows[drop + i], loaded[i])) << "window " << i;
  }
}

TEST(Store, ReplayReproducesStreamingAnalytics) {
  const auto dir = fresh_dir("replay");
  const Workload w = simulate(120, 31);

  const AnalyticsServiceOptions options{.graph = kConfig,
                                        .training_windows = 4,
                                        .spectral = {.rank = 8}};

  // Direct path: the live streaming service, persisting as it goes.
  std::vector<std::string> direct_lines;
  {
    auto writer = store::StoreWriter::open(dir, {.keyframe_interval = 6});
    ASSERT_TRUE(writer.has_value());
    AnalyticsService service(options, w.monitored, [&](const WindowReport& r) {
      direct_lines.push_back(r.summary());
    });
    service.set_store(&*writer);
    w.stream.replay_into(service);
    service.flush();
  }
  ASSERT_GE(direct_lines.size(), 20u);

  // Replay path: a fresh service fed from the store must retrace the run.
  auto reader = store::StoreReader::open(dir);
  ASSERT_TRUE(reader.has_value());
  std::vector<std::string> replayed_lines;
  AnalyticsService replay_service(options, {}, [&](const WindowReport& r) {
    replayed_lines.push_back(r.summary());
  });
  const std::size_t replayed = replay_service.replay(*reader);
  EXPECT_EQ(replayed, direct_lines.size());
  EXPECT_EQ(replayed_lines, direct_lines);
}

// Seeded mutations of real frame payloads: two 5-minute windows of a
// simulated k8s cluster, framed as a keyframe and as a delta against the
// first. Every decode is total: nullopt, or a graph the encoder writes
// back to bytes that decode to the same graph.
TEST(StoreFrameMutation, PayloadsRejectOrRoundTrip) {
  Workload w;
  Cluster cluster(presets::k8s_paas(0.02), 41);
  TelemetryHub hub(ProviderProfile::azure(), 41);
  SimulationDriver driver(cluster, hub);
  hub.set_sink(&w.stream);
  driver.run(TimeWindow::minutes(0, 10));
  const auto ips = cluster.monitored_ips();
  w.monitored = {ips.begin(), ips.end()};
  const auto windows = build_windows(w);
  ASSERT_GE(windows.size(), 2u);
  const CommGraph& base = windows[0];
  const CommGraph& next = windows[1];
  const CommGraph empty;
  struct Seed {
    store::FrameKind kind;
    const CommGraph& base;
    std::vector<std::uint8_t> payload;
  };
  const Seed seeds[] = {
      {store::FrameKind::kKeyframe, empty,
       store::encode_frame(store::FrameKind::kKeyframe, empty, next)},
      {store::FrameKind::kDelta, base,
       store::encode_frame(store::FrameKind::kDelta, base, next)}};

  std::size_t decoded = 0;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    Rng rng(i + 1);
    const Seed& seed = seeds[i % 2];
    const auto mutated = mutate_bytes(seed.payload, rng);
    const auto graph = store::decode_frame(mutated, seed.base);
    if (!graph) continue;
    ++decoded;
    const auto bytes = store::encode_frame(seed.kind, seed.base, *graph);
    const auto again = store::decode_frame(bytes, seed.base);
    ASSERT_TRUE(again.has_value()) << "mutation " << i;
    ASSERT_TRUE(graphs_identical(*graph, *again)) << "mutation " << i;
  }
  // Edits inside edge statistics still decode; the suite must exercise
  // both outcomes.
  EXPECT_GT(decoded, 0u);
  EXPECT_LT(decoded, 2000u);
}

}  // namespace
}  // namespace ccg
