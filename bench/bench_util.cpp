#include "bench_util.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>

#include "ccg/obs/export.hpp"

namespace ccg::bench {

void emit_metrics_snapshot() {
  std::printf("\n==== metrics snapshot (json) ====\n%s",
              obs::to_json(obs::Registry::global().snapshot()).c_str());
  std::fflush(stdout);
}

void emit_resource_summary() {
  rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };

  // Per-stage wall seconds from the stage latency histograms.
  struct StageCost {
    double seconds = 0.0;
    std::uint64_t windows = 0;
  };
  std::map<std::string, StageCost> stages;
  const obs::Snapshot snapshot = obs::Registry::global().snapshot();
  for (const obs::HistogramSample& h : snapshot.histograms) {
    const std::string stage_prefix = "ccg.analytics.stage.";
    if (h.name.rfind(stage_prefix, 0) == 0 &&
        h.name.size() > stage_prefix.size() + 8 &&
        h.name.compare(h.name.size() - 8, 8, ".seconds") == 0) {
      const std::string stage = h.name.substr(
          stage_prefix.size(), h.name.size() - stage_prefix.size() - 8);
      stages[stage].seconds = h.sum;
      stages[stage].windows = h.count;
    }
  }

  // Transport health rides along so a bench run's artifact shows whether
  // the run was clean end to end.
  const auto counter_or_zero = [&snapshot](const char* name) {
    for (const obs::CounterSample& c : snapshot.counters) {
      if (c.name == name) return c.value;
    }
    return std::uint64_t{0};
  };

  std::string json =
      "{\"cpu_user_seconds\": " + fmt(seconds(usage.ru_utime), 3) +
      ", \"cpu_system_seconds\": " + fmt(seconds(usage.ru_stime), 3) +
      ", \"peak_rss_bytes\": " +
      std::to_string(static_cast<std::uint64_t>(usage.ru_maxrss) * 1024) +  // KiB
      ", \"net\": {\"frames_sent\": " +
      std::to_string(counter_or_zero("ccg.net.frames_sent")) +
      ", \"frames_received\": " +
      std::to_string(counter_or_zero("ccg.net.frames_received")) +
      ", \"timeouts\": " +
      std::to_string(counter_or_zero("ccg.net.timeouts")) +
      ", \"errors\": " + std::to_string(counter_or_zero("ccg.net.errors")) +
      "}, \"stages\": [";
  bool first = true;
  for (const auto& [name, cost] : stages) {
    if (!first) json += ", ";
    first = false;
    json += "{\"name\": \"" + name +
            "\", \"seconds\": " + fmt(cost.seconds, 6) +
            ", \"windows\": " + std::to_string(cost.windows) + "}";
  }
  json += "]}\n";
  std::printf("\n==== resource summary (json) ====\n%s", json.c_str());
  std::fflush(stdout);
}

double default_rate_scale(const std::string& preset_name) {
  // KQuery at full calibration generates ~100k records/min; scale the big
  // presets down for bench runtime while keeping topology intact.
  if (preset_name == "KQuery") return 0.5;
  if (preset_name == "K8sPaaS") return 0.5;
  if (preset_name == "uServiceBench") return 0.5;
  return 1.0;
}

SimulationResult simulate(const ClusterSpec& spec, SimulateOptions options) {
  // Every bench funnels through here, so this is the one place to hook the
  // end-of-run metrics dump. Registered once; the global registry is
  // leaked, so it is still alive when the handler runs.
  static const bool metrics_at_exit = [] {
    obs::Registry::global();
    // atexit runs LIFO: the resource summary prints after the metrics
    // snapshot it is derived from.
    (void)std::atexit(emit_resource_summary);
    return std::atexit(emit_metrics_snapshot) == 0;
  }();
  (void)metrics_at_exit;

  SimulationResult result;
  Cluster cluster(spec, options.seed);
  TelemetryHub hub(options.provider, options.seed);
  SimulationDriver driver(cluster, hub);
  for (Injector* injector : options.injectors) {
    driver.add_injector(std::unique_ptr<Injector>(injector));
  }

  const auto monitored_vec = cluster.monitored_ips();
  result.monitored = {monitored_vec.begin(), monitored_vec.end()};

  GraphBuilder ip_builder({.facet = GraphFacet::kIp,
                           .window_minutes = 60,
                           .collapse_threshold = options.collapse_threshold},
                          result.monitored);
  auto port_builder =
      options.want_ip_port
          ? std::make_unique<GraphBuilder>(
                GraphBuildConfig{.facet = GraphFacet::kIpPort, .window_minutes = 60},
                result.monitored)
          : nullptr;

  Stopwatch watch;
  for (std::int64_t m = 0; m < options.hours * 60; ++m) {
    const auto batch = driver.step(MinuteBucket(m));
    ip_builder.on_batch(MinuteBucket(m), batch);
    if (port_builder) port_builder->on_batch(MinuteBucket(m), batch);
  }
  result.simulate_seconds = watch.seconds();

  ip_builder.flush();
  result.hourly_graphs = ip_builder.take_graphs();
  if (port_builder) {
    port_builder->flush();
    result.hourly_port_graphs = port_builder->take_graphs();
  }
  result.ledger = hub.ledger();
  result.roles = cluster.ground_truth_roles();
  result.activities = driver.stats().activities;
  return result;
}

void print_header(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

void print_row(const std::vector<std::string>& cells,
               const std::vector<int>& widths) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const int width = i < widths.size() ? widths[i] : 14;
    std::printf("%-*s", width, cells[i].c_str());
  }
  std::printf("\n");
}

std::string fmt(double v, int precision) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string fmt_count(std::uint64_t v) {
  char buf[48];
  if (v >= 10'000'000) {
    std::snprintf(buf, sizeof(buf), "%.1fM", static_cast<double>(v) / 1e6);
  } else if (v >= 10'000) {
    std::snprintf(buf, sizeof(buf), "%.1fK", static_cast<double>(v) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  }
  return buf;
}

}  // namespace ccg::bench
