// Reproduces the §3.2 COGS question: "can one build an analytics system
// that can analyze roughly 1000 VMs worth of telemetry using a handful of
// VMs worth of resources?" Measures group-by-aggregate graph construction
// throughput — in one process, and sharded across forked worker processes
// with --multi-process N — and derives the surcharge per monitored VM
// against the paper's 0.02 $/hr/VM price point.
#include <benchmark/benchmark.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <fstream>

#include "ccg/analytics/cogs.hpp"
#include "ccg/dist/aggregator.hpp"
#include "ccg/dist/shard_worker.hpp"
#include "ccg/net/frame.hpp"
#include "ccg/obs/export.hpp"
#include "ccg/store/format.hpp"
#include "bench_util.hpp"

namespace {

using namespace ccg;
using namespace ccg::bench;

/// One pre-generated hour of K8s PaaS telemetry, shared across benchmarks.
struct Stream {
  std::vector<std::vector<ConnectionSummary>> minutes;
  std::unordered_set<IpAddr> monitored;
  std::uint64_t records = 0;
  TelemetryLedger ledger;

  static const Stream& get() {
    static Stream s = [] {
      Stream stream;
      const ClusterSpec spec = presets::k8s_paas(default_rate_scale("K8sPaaS"));
      Cluster cluster(spec, 2023);
      TelemetryHub hub(ProviderProfile::azure(), 2023);
      SimulationDriver driver(cluster, hub);
      const auto ips = cluster.monitored_ips();
      stream.monitored = {ips.begin(), ips.end()};
      for (std::int64_t m = 0; m < 60; ++m) {
        stream.minutes.push_back(driver.step(MinuteBucket(m)));
        stream.records += stream.minutes.back().size();
      }
      stream.ledger = hub.ledger();
      return stream;
    }();
    return s;
  }
};

void BM_SingleThreadedGraphBuild(benchmark::State& state) {
  const Stream& stream = Stream::get();
  for (auto _ : state) {
    GraphBuilder builder({.facet = GraphFacet::kIp, .window_minutes = 60},
                         stream.monitored);
    for (std::size_t m = 0; m < stream.minutes.size(); ++m) {
      builder.on_batch(MinuteBucket(static_cast<std::int64_t>(m)),
                       stream.minutes[m]);
    }
    builder.flush();
    benchmark::DoNotOptimize(builder.graphs().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream.records));
}
BENCHMARK(BM_SingleThreadedGraphBuild)->Unit(benchmark::kMillisecond);

void BM_IpPortFacetBuild(benchmark::State& state) {
  const Stream& stream = Stream::get();
  for (auto _ : state) {
    GraphBuilder builder({.facet = GraphFacet::kIpPort, .window_minutes = 60},
                         stream.monitored);
    for (std::size_t m = 0; m < stream.minutes.size(); ++m) {
      builder.on_batch(MinuteBucket(static_cast<std::int64_t>(m)),
                       stream.minutes[m]);
    }
    builder.flush();
    benchmark::DoNotOptimize(builder.graphs().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream.records));
}
BENCHMARK(BM_IpPortFacetBuild)->Unit(benchmark::kMillisecond);

/// `--multi-process N`: the distributed-collector COGS experiment. Forks N
/// real shard-worker processes (socketpair transport, the same ShardWorker
/// / Aggregator roles `ccgraph serve` runs over TCP), measures end-to-end
/// distributed ingest against the single-process builder on the same
/// pre-generated stream, verifies the merged graph is byte-identical, and
/// writes BENCH_distributed.json.
int run_multi_process(int shard_count, const std::string& json_path) {
  const Stream& stream = Stream::get();
  const GraphBuildConfig config{.facet = GraphFacet::kIp, .window_minutes = 60};

  // Scale the pre-generated hour to kHours windows by replaying it at
  // shifted minute buckets (on_batch stamps the bucket onto each record):
  // the workload grows without extra simulation cost, and fixed overheads
  // (fork, handshake, final merge) amortize as they would in production.
  constexpr std::size_t kHours = 8;
  const std::size_t base = stream.minutes.size();
  const std::size_t total_minutes = base * kHours;
  const std::uint64_t total_records = stream.records * kHours;

  // Single-process baseline: one builder ingests every record.
  Stopwatch single_watch;
  GraphBuilder builder(config, stream.monitored);
  for (std::size_t m = 0; m < total_minutes; ++m) {
    builder.on_batch(MinuteBucket(static_cast<std::int64_t>(m)),
                     stream.minutes[m % base]);
  }
  builder.flush();
  const double single_seconds = single_watch.seconds();
  const auto reference = builder.take_graphs();

  // Pre-partition the base hour by shard key — the telemetry tier's job in
  // a real deployment (collectors route each flow by the same pinned hash),
  // so it stays outside the timed region. The worker re-checks every
  // record's shard via shard_of_record; the partition just makes the check
  // a no-op instead of a full-stream scan per worker.
  std::vector<std::vector<std::vector<ConnectionSummary>>> parts(
      static_cast<std::size_t>(shard_count),
      std::vector<std::vector<ConnectionSummary>>(base));
  for (std::size_t m = 0; m < base; ++m) {
    for (const ConnectionSummary& r : stream.minutes[m]) {
      parts[shard_of_record(r, config.facet, shard_count)][m].push_back(r);
    }
  }

  // Distributed run: fork one worker per shard. Stream and partitions are
  // materialized before the fork, so children read them copy-on-write;
  // each child ships its partial windows back over its socketpair.
  std::vector<net::FrameConn> conns;
  std::vector<pid_t> children;
  Stopwatch multi_watch;
  for (int s = 0; s < shard_count; ++s) {
    auto pair = net::socket_pair();
    if (!pair) {
      std::fprintf(stderr, "bench: socketpair failed\n");
      return 1;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("bench: fork");
      return 1;
    }
    if (pid == 0) {
      conns.clear();  // parent ends of earlier shards: not this child's
      const auto& mine = parts[static_cast<std::size_t>(s)];
      dist::ShardWorker worker(
          {.shard_id = static_cast<std::uint32_t>(s),
           .shard_count = static_cast<std::uint32_t>(shard_count),
           .graph = config},
          stream.monitored, std::move(pair->second));
      if (!worker.handshake()) ::_exit(1);
      for (std::size_t m = 0; m < total_minutes; ++m) {
        worker.on_batch(MinuteBucket(static_cast<std::int64_t>(m)),
                        mine[m % base]);
      }
      ::_exit(worker.finish() ? 0 : 1);
    }
    children.push_back(pid);
    conns.push_back(std::move(pair->first));
  }

  std::vector<CommGraph> merged;
  dist::Aggregator aggregator({.graph = config}, std::move(conns));
  if (!aggregator.handshake()) {
    std::fprintf(stderr, "bench: aggregator handshake failed\n");
    return 1;
  }
  const auto result = aggregator.run(
      [&](const CommGraph& graph) { merged.push_back(graph); });
  for (const pid_t pid : children) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "bench: shard worker exited abnormally\n");
      return 1;
    }
  }
  if (!result) {
    std::fprintf(stderr, "bench: aggregation failed\n");
    return 1;
  }
  const double multi_seconds = multi_watch.seconds();

  // Determinism check: the distributed merge must reproduce the
  // single-process windows bit for bit (frame encoding compares every
  // node, edge, byte count and window bound).
  bool identical = merged.size() == reference.size();
  for (std::size_t i = 0; identical && i < merged.size(); ++i) {
    identical = store::encode_frame(store::FrameKind::kKeyframe, CommGraph(),
                                    merged[i]) ==
                store::encode_frame(store::FrameKind::kKeyframe, CommGraph(),
                                    reference[i]);
  }

  const double single_rps = static_cast<double>(total_records) / single_seconds;
  const double multi_rps = static_cast<double>(total_records) / multi_seconds;
  const double speedup = multi_rps / single_rps;
  const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);

  print_header("distributed ingest: " + std::to_string(shard_count) +
               " shard workers vs single process");
  print_row({"mode", "seconds", "records/s", "speedup"}, {14, 10, 14, 8});
  print_row({"single", fmt(single_seconds, 3), fmt_count(
                 static_cast<std::uint64_t>(single_rps)), "1.00"},
            {14, 10, 14, 8});
  print_row({"multi-process", fmt(multi_seconds, 3),
             fmt_count(static_cast<std::uint64_t>(multi_rps)), fmt(speedup, 2)},
            {14, 10, 14, 8});
  std::printf("merged graphs byte-identical to single-process: %s\n",
              identical ? "yes" : "NO");
  if (cpus < shard_count) {
    std::printf("note: %ld online CPU(s) < %d workers — speedup is bounded "
                "by cores, the interesting number here is the distribution "
                "overhead (multi/single seconds)\n",
                cpus, shard_count);
  }

  std::ofstream out(json_path);
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\n"
                "  \"preset\": \"k8s_paas\",\n"
                "  \"records\": %llu,\n"
                "  \"windows\": %zu,\n"
                "  \"shards\": %d,\n"
                "  \"single_seconds\": %.6f,\n"
                "  \"single_records_per_sec\": %.1f,\n"
                "  \"multi_seconds\": %.6f,\n"
                "  \"multi_records_per_sec\": %.1f,\n"
                "  \"speedup\": %.3f,\n"
                "  \"online_cpus\": %ld,\n"
                "  \"byte_identical\": %s\n"
                "}\n",
                static_cast<unsigned long long>(total_records), merged.size(),
                shard_count, single_seconds, single_rps, multi_seconds,
                multi_rps, speedup, cpus, identical ? "true" : "false");
  if (!out || !(out << buf)) {
    std::fprintf(stderr, "bench: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // `--multi-process N [--json PATH]` bypasses the google-benchmark suite
  // and runs the fork-based distributed comparison instead.
  int shards = 0;
  std::string json_path = "BENCH_distributed.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--multi-process") == 0 && i + 1 < argc) {
      shards = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  if (shards > 0) return run_multi_process(shards, json_path);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // COGS verdict from a quick direct measurement.
  const Stream& stream = Stream::get();
  Stopwatch watch;
  GraphBuilder builder({.facet = GraphFacet::kIp, .window_minutes = 60},
                       stream.monitored);
  for (std::size_t m = 0; m < stream.minutes.size(); ++m) {
    builder.on_batch(MinuteBucket(static_cast<std::int64_t>(m)), stream.minutes[m]);
  }
  builder.flush();
  const double rps = static_cast<double>(stream.records) / watch.seconds();

  const auto report = cogs_report(stream.ledger, stream.monitored.size(), rps);
  std::printf("\n==== COGS verdict (paper target: 0.02 $/hr/VM, ~0.5%% of VM cost) ====\n%s\n",
              report.summary().c_str());

  // Per-stage diagnosis behind the throughput numbers above.
  std::printf("\n==== graph build metrics ====\n%s",
              obs::summary_text(obs::Registry::global().snapshot()).c_str());
  emit_metrics_snapshot();
  return 0;
}
