// Reproduces the §3.2 COGS question: "can one build an analytics system
// that can analyze roughly 1000 VMs worth of telemetry using a handful of
// VMs worth of resources?" Measures group-by-aggregate graph construction
// throughput in one process and derives the surcharge per monitored VM
// against the paper's 0.02 $/hr/VM price point. The sharded path is timed
// end to end by perfbench's k8s-serve workload.
#include <benchmark/benchmark.h>

#include "ccg/analytics/cogs.hpp"
#include "ccg/obs/export.hpp"
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

}  // namespace

int main(int argc, char** argv) {
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
