// ccgraph — command-line front end.
//
//   ccgraph simulate --preset k8s --hours 2 --seed 7 --out flows.csv
//   ccgraph graph    --in flows.csv [--facet ip|ipport] [--collapse 0.001]
//   ccgraph segment  --in flows.csv [--resolution 2.0]
//   ccgraph policy   --baseline hour0.csv --check hour1.csv
//   ccgraph report   --in flows.csv
//
// Flow logs are the CSV schema of `ccg::csv_header()` (paper Table 2 plus
// the initiator bit). An IP is treated as *monitored* iff it ever appears
// as a record's local endpoint — exactly the set of NICs that produced the
// log.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "ccg/analytics/counterfactual.hpp"
#include "ccg/analytics/service.hpp"
#include "ccg/dist/aggregator.hpp"
#include "ccg/dist/shard_worker.hpp"
#include "ccg/graph/builder.hpp"
#include "ccg/graph/delta.hpp"
#include "ccg/graph/metrics.hpp"
#include "ccg/graph/serialize.hpp"
#include "ccg/net/frame.hpp"
#include "ccg/net/http.hpp"
#include "ccg/obs/export.hpp"
#include "ccg/obs/fleet.hpp"
#include "ccg/obs/flight.hpp"
#include "ccg/obs/log.hpp"
#include "ccg/obs/metrics.hpp"
#include "ccg/obs/prof.hpp"
#include "ccg/obs/span.hpp"
#include "ccg/obs/trace.hpp"
#include "ccg/parallel/parallel.hpp"
#include "ccg/simd/simd.hpp"
#include "ccg/policy/higher_order.hpp"
#include "ccg/policy/policy_io.hpp"
#include "ccg/policy/reachability.hpp"
#include "ccg/segmentation/auto_segment.hpp"
#include "ccg/store/store.hpp"
#include "ccg/summarize/patterns.hpp"
#include "ccg/summarize/temporal.hpp"
#include "ccg/telemetry/serialize.hpp"
#include "ccg/workload/driver.hpp"
#include "ccg/workload/presets.hpp"

namespace {

using namespace ccg;

/// A malformed or out-of-range flag value; main names it and exits 2.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// `text` as a T when all of it is one finite number; else UsageError
/// naming --key.
template <typename T>
T parse_number(const std::string& key, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  bool ok = ec == std::errc() && stop == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    throw UsageError("--" + key + " expects " +
                     (std::is_integral_v<T> ? "an integer" : "a number") +
                     " (got '" + text + "')");
  }
  return value;
}

/// Trivial --key value / --flag parser.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 0; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      arg = arg.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = "";
      }
    }
  }

  std::optional<std::string> get(const std::string& key) const {
    auto it = values_.find(key);
    return it == values_.end() ? std::nullopt : std::make_optional(it->second);
  }
  std::string get_or(const std::string& key, const std::string& fallback) const {
    return get(key).value_or(fallback);
  }
  /// --key as a number, and a UsageError naming it unless
  /// `in_range(value)`; `range` says which values it takes ("in [0, 1)").
  template <typename InRange>
  double get_double(const std::string& key, double fallback, InRange in_range,
                    const char* range) const {
    const auto text = get(key);
    const double v = text ? parse_number<double>(key, *text) : fallback;
    if (!in_range(v)) {
      throw UsageError("--" + key + " must be " + range + " (got " +
                       get_or(key, "") + ")");
    }
    return v;
  }
  long get_long(const std::string& key, long fallback) const {
    const auto v = get(key);
    return v ? parse_number<long>(key, *v) : fallback;
  }
  /// get_long, and a UsageError naming --key unless lo <= value <= hi
  /// (by default, no bound but int's).
  long get_long_in(const std::string& key, long fallback, long lo,
                   long hi = std::numeric_limits<int>::max()) const {
    const long v = get_long(key, fallback);
    if (v < lo || v > hi) {
      const std::string range =
          hi == std::numeric_limits<int>::max()
              ? ">= " + std::to_string(lo)
              : "in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
      throw UsageError("--" + key + " must be " + range + " (got " +
                       std::to_string(v) + ")");
    }
    return v;
  }

  /// UsageError naming the first flag not in `known`.
  void reject_unknown(const std::vector<std::string_view>& known,
                      const std::string& command_name) const {
    for (const auto& [key, value] : values_) {
      if (std::find(known.begin(), known.end(), key) == known.end()) {
        throw UsageError("unknown flag --" + key + " for " + command_name);
      }
    }
  }

 private:
  std::map<std::string, std::string> values_;
};

int usage() {
  std::fprintf(stderr,
               "usage: ccgraph <command> [options]\n"
               "  simulate --preset tiny|portal|microservice|k8s|kquery\n"
               "           [--hours N] [--seed S] [--rate-scale R]\n"
               "           [--attack scan|lateral|exfil --attack-hour H]\n"
               "           --out flows.csv\n"
               "  graph    --in flows.csv [--facet ip|ipport] [--collapse F]\n"
               "           [--window MIN] [--pgm heatmap.pgm] [--save g.ccg]\n"
               "  segment  --in flows.csv [--window MIN] [--resolution R]\n"
               "           [--collapse F]\n"
               "  policy   --baseline a.csv --check b.csv [--coverage F]\n"
               "           [--min-support N] [--save policy.txt]\n"
               "  diff     --before a.csv --after b.csv [--factor F]\n"
               "  anomaly  --in flows.csv [ANALYSIS] [--summary-out FILE]\n"
               "  serve    --in flows.csv --shards N [ANALYSIS]\n"
               "           [--summary-out FILE] [--store DIR] forks N local\n"
               "           shard workers and aggregates; output is\n"
               "           byte-identical to `anomaly` (--net-timeout-ms MS\n"
               "           for accept and recv: >= 0, 0 = wait forever,\n"
               "           default 30000)\n"
               "  shard-worker --in flows.csv --connect PORT --shard I\n"
               "           --shards N [--window MIN] [--facet ip|ipport]\n"
               "           [--collapse F] the worker `serve` forks: ships\n"
               "           its partition to serve's aggregator\n"
               "  report   --in flows.csv [ANALYSIS]\n"
               "  trace    --in flows.csv [ANALYSIS] runs the anomaly\n"
               "           pipeline with tracing forced on and prints each\n"
               "           window's span tree\n"
               "  store append  --in flows.csv --store DIR [--window MIN]\n"
               "                [--facet ip|ipport] [--collapse F]\n"
               "                [--keyframe K] [--segment-mb MB]\n"
               "  store query   --store DIR [--from MIN] [--to MIN]\n"
               "  store replay  --store DIR [--from MIN] [--to MIN] [--train N]\n"
               "                [--rank K] [--stall-ms MS] [--summary-out FILE]\n"
               "  store compact --store DIR [--keyframe K] [--retain-from MIN]\n"
               "                [--segment-mb MB]\n"
               "  store stats   --store DIR prints frame/segment totals plus\n"
               "                window-to-window churn (1 - node/edge Jaccard,\n"
               "                edge-churn histogram)\n"
               "  profile <command> [options...] runs any command with the\n"
               "           span ring on and prints each span's self/total wall\n"
               "           time plus the run's CPU and peak RSS (rusage)\n"
               "           [--profile-out F]   write folded stacks (flamegraph.pl)\n"
               "           [--profile-json F]  write the full profile as JSON\n"
               "ANALYSIS: the options anomaly, serve, report and\n"
               "  trace share: [--window MIN] [--facet ip|ipport]\n"
               "  [--collapse F] [--train N] [--rank K] [--stall-ms MS]\n"
               "  (defaults 60, ip, 0.001, 3, 20, 0; --window, --train and\n"
               "  --rank must be >= 1 and --collapse in [0, 1), as in every\n"
               "  command)\n"
               "anomaly and serve also accept:\n"
               "  --ops-port PORT      serve /metrics /healthz /readyz /tracez\n"
               "                       on 127.0.0.1:PORT while the command runs\n"
               "                       (0 to 65535, 0 = ephemeral); serve\n"
               "                       exposes per-shard series with shard=\"N\"\n"
               "                       labels\n"
               "every command also accepts:\n"
               "  --metrics-out FILE   write a JSON metrics snapshot on exit\n"
               "  --metrics-prom FILE  same registry in Prometheus text format\n"
               "  --trace-out FILE     record spans; write Chrome trace-event\n"
               "                       JSON (chrome://tracing, Perfetto) on exit\n"
               "                       (serve writes a merged multi-process\n"
               "                       trace when shards shipped spans)\n"
               "  --trace-buffer       record spans in memory without writing a\n"
               "                       file (shard workers buffer spans to ship)\n"
               "  --log-level LVL      stderr log threshold debug|info|warn|error\n"
               "                       (default warn)\n"
               "  --flight-dir DIR     install crash handlers; flight records\n"
               "                       land here (serve passes it to its workers)\n"
               "  --watchdog-ms N      dump a flight record when one window\n"
               "                       stalls longer than N ms; 0 or unset = off\n"
               "  --threads N          threads for segmentation's pairwise scorers,\n"
               "                       1 to 1024; 0 or unset: $CCG_THREADS, else\n"
               "                       all hardware threads (output is\n"
               "                       bit-identical for every N)\n"
               "  --simd TIER          kernel simd tier auto|scalar|avx2\n"
               "                       (default: $CCG_SIMD, else auto; output\n"
               "                       is bit-identical for every tier)\n"
               "any other flag is an error (exit 2)\n"
               "ccgraph --version prints version, build type, sanitizers and\n"
               "simd capabilities\n");
  return 2;
}

std::optional<ClusterSpec> preset_by_name(const std::string& name, double scale) {
  if (name == "tiny") return presets::tiny(scale);
  if (name == "portal") return presets::portal(scale);
  if (name == "microservice") return presets::microservice_bench(scale);
  if (name == "k8s") return presets::k8s_paas(scale);
  if (name == "kquery") return presets::kquery(scale);
  return std::nullopt;
}

std::optional<std::vector<ConnectionSummary>> load_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "ccgraph: cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::size_t dropped = 0;
  auto records = read_csv(in, &dropped);
  if (dropped > 0) {
    std::fprintf(stderr, "ccgraph: warning: %zu malformed rows skipped\n", dropped);
  }
  if (records.empty()) {
    std::fprintf(stderr, "ccgraph: %s contains no records\n", path.c_str());
    return std::nullopt;
  }
  return records;
}

std::unordered_set<IpAddr> monitored_from(const std::vector<ConnectionSummary>& records) {
  std::unordered_set<IpAddr> out;
  for (const auto& r : records) out.insert(r.flow.local_ip);
  return out;
}

/// The window build configuration of `graph`, `segment`, `store append`,
/// `serve`'s roles and every analysis command: --facet ip|ipport, --window
/// MIN (>= 1) and --collapse F (in [0, 1)), as GraphBuilder accepts them.
/// Windows built from it diff cleanly across commands. UsageError naming
/// the flag otherwise.
GraphBuildConfig graph_config(const Args& args) {
  const std::string facet = args.get_or("facet", "ip");
  if (facet != "ip" && facet != "ipport") {
    throw UsageError("--facet expects ip|ipport (got '" + facet + "')");
  }
  return {.facet = facet == "ipport" ? GraphFacet::kIpPort : GraphFacet::kIp,
          .window_minutes = args.get_long_in("window", 60, 1),
          .collapse_threshold = args.get_double(
              "collapse", 0.001, [](double v) { return v >= 0.0 && v < 1.0; },
              "in [0, 1)")};
}

/// The one analysis configuration of anomaly, serve, store
/// replay, trace and report: graph_config plus --train N (>= 1), --rank K
/// (>= 1, default the detector's) and the --stall-ms debug hook.
AnalyticsServiceOptions analysis_options(const Args& args) {
  AnalyticsServiceOptions options;
  options.graph = graph_config(args);
  options.training_windows = static_cast<std::size_t>(args.get_long_in(
      "train", static_cast<long>(options.training_windows), 1));
  options.spectral.rank = static_cast<std::size_t>(
      args.get_long_in("rank", static_cast<long>(options.spectral.rank), 1));
  options.stall_injection_ms =
      static_cast<int>(args.get_long_in("stall-ms", 0, 0));
  return options;
}

/// Prints what anomaly, serve and store replay report per
/// window, byte for byte alike: the summary line (also to --summary-out)
/// and, for an alerting window, its top five localized edges.
class ReportSink {
 public:
  ReportSink() = default;
  ReportSink(const ReportSink&) = delete;  // callback() captures `this`
  ReportSink& operator=(const ReportSink&) = delete;

  /// Opens --summary-out when given; false when it cannot be written.
  bool open(const Args& args) {
    const auto path = args.get("summary-out");
    if (!path) return true;
    summary_out_.open(*path);
    if (!summary_out_) {
      std::fprintf(stderr, "ccgraph: cannot write %s\n", path->c_str());
      return false;
    }
    return true;
  }

  AnalyticsService::ReportCallback callback() {
    return [this](const WindowReport& report) { print(report); };
  }

  /// Prints the closing tally and returns the exit code: 3 on any alert.
  int finish(const char* verb, std::size_t windows) const {
    std::printf("%zu windows %s, %zu alerts\n", windows, verb, alerts_);
    return alerts_ > 0 ? 3 : 0;
  }

 private:
  void print(const WindowReport& report) {
    std::printf("%s\n", report.summary().c_str());
    if (summary_out_.is_open()) summary_out_ << report.summary() << '\n';
    if (!report.alert) return;
    ++alerts_;
    for (std::size_t i = 0;
         i < std::min<std::size_t>(5, report.anomalous_edges.size()); ++i) {
      std::printf("  %s\n", report.anomalous_edges[i].to_string().c_str());
    }
  }

  std::ofstream summary_out_;
  std::size_t alerts_ = 0;
};

std::vector<CommGraph> build_graphs(const std::vector<ConnectionSummary>& records,
                                    const GraphBuildConfig& config) {
  GraphBuilder builder(config, monitored_from(records));
  for (const auto& r : records) builder.ingest(r);
  builder.flush();
  return builder.take_graphs();
}

/// Replays a (minute-sorted) flow log into a sink as per-minute batches —
/// the shape the TelemetryHub would deliver live.
void replay_minutes(const std::vector<ConnectionSummary>& records,
                    TelemetrySink& sink) {
  std::vector<ConnectionSummary> minute_batch;
  MinuteBucket current = records.front().time;
  for (const auto& rec : records) {
    if (rec.time != current) {
      sink.on_batch(current, minute_batch);
      minute_batch.clear();
      current = rec.time;
    }
    minute_batch.push_back(rec);
  }
  sink.on_batch(current, minute_batch);
}

// --- ops endpoint ------------------------------------------------------------

/// /metrics body: the process view, with `shard="N"` series on serve.
std::string ops_metrics_text() {
  return obs::to_prometheus(obs::process_snapshot());
}

/// /tracez body: span-ring and fleet occupancy.
std::string ops_tracez_text() {
  obs::TraceRing& ring = obs::TraceRing::global();
  std::string out = "trace ring: ";
  out += ring.enabled() ? "enabled" : "disabled";
  out += ", " + std::to_string(ring.events().size()) + " spans retained, " +
         std::to_string(ring.dropped()) + " dropped\n";
  obs::FleetRegistry& fleet = obs::FleetRegistry::global();
  out += "fleet: " + std::to_string(fleet.frames_applied()) +
         " telemetry frames applied\n";
  for (const auto& [shard, spans] : fleet.spans_by_shard()) {
    out += "  shard " + std::to_string(shard) + ": " +
           std::to_string(spans.size()) + " spans shipped (" +
           std::to_string(fleet.spans_dropped(shard)) + " dropped)\n";
  }
  return out;
}

/// --ops-port PORT in [0, 65535]; nullopt when absent. main checks it with
/// the global flags, so a bad port exits 2 before any input is read.
std::optional<std::uint16_t> ops_port(const Args& args) {
  if (!args.get("ops-port")) return std::nullopt;
  return static_cast<std::uint16_t>(args.get_long_in("ops-port", 0, 0, 65535));
}

/// Starts the live ops endpoint when --ops-port is set. Returns nullptr
/// otherwise; bind failure is fatal for the caller (a requested-but-dead
/// endpoint is worse than no endpoint). The server starts *unready* —
/// callers flip /readyz once their pipeline is up.
std::unique_ptr<net::OpsServer> start_ops_server(const Args& args, int* rc) {
  const auto port = ops_port(args);
  if (!port) return nullptr;
  auto server = std::make_unique<net::OpsServer>();
  if (!server->start(*port, {ops_metrics_text, ops_tracez_text})) {
    std::fprintf(stderr, "ccgraph: cannot bind ops endpoint on port %u\n",
                 static_cast<unsigned>(*port));
    *rc = 1;
    return nullptr;
  }
  // Port to stderr: stdout stays byte-identical with the endpoint off.
  std::fprintf(stderr, "ccgraph: ops endpoint on 127.0.0.1:%u\n",
               server->port());
  std::fflush(stderr);
  return server;
}

// --- commands ---------------------------------------------------------------

int cmd_simulate(const Args& args) {
  const std::string preset_name = args.get_or("preset", "tiny");
  const double scale = args.get_double(
      "rate-scale", 1.0, [](double v) { return v > 0.0; }, "> 0");
  const auto spec = preset_by_name(preset_name, scale);
  if (!spec) {
    std::fprintf(stderr, "ccgraph: unknown preset '%s'\n", preset_name.c_str());
    return 2;
  }
  const auto out_path = args.get("out");
  if (!out_path) {
    std::fprintf(stderr, "ccgraph: simulate requires --out\n");
    return 2;
  }
  const long hours = args.get_long_in("hours", 1, 1);
  const auto seed = static_cast<std::uint64_t>(args.get_long("seed", 2023));

  Cluster cluster(*spec, seed);
  TelemetryHub hub(ProviderProfile::azure(), seed);
  SimulationDriver driver(cluster, hub);

  if (const auto attack = args.get("attack")) {
    const long hour = args.get_long_in("attack-hour", hours - 1, 0, hours - 1);
    const TimeWindow window = TimeWindow::hour(hour);
    if (*attack == "scan") {
      driver.add_injector(std::make_unique<ScanAttack>(
          ScanAttack::Config{.active = window}, seed ^ 0xA));
    } else if (*attack == "lateral") {
      driver.add_injector(std::make_unique<LateralMovementAttack>(
          LateralMovementAttack::Config{.active = window}, seed ^ 0xB));
    } else if (*attack == "exfil") {
      driver.add_injector(std::make_unique<ExfiltrationAttack>(
          ExfiltrationAttack::Config{.active = window}, seed ^ 0xC));
    } else {
      std::fprintf(stderr, "ccgraph: unknown attack '%s'\n", attack->c_str());
      return 2;
    }
    std::fprintf(stderr, "injecting %s in hour %ld\n", attack->c_str(), hour);
  }

  std::ofstream out(*out_path);
  if (!out) {
    std::fprintf(stderr, "ccgraph: cannot write %s\n", out_path->c_str());
    return 1;
  }
  out << csv_header() << '\n';
  std::uint64_t records = 0;
  for (std::int64_t m = 0; m < hours * 60; ++m) {
    for (const auto& rec : driver.step(MinuteBucket(m))) {
      out << to_csv(rec) << '\n';
      ++records;
    }
  }
  std::printf("wrote %llu records (%ld h of %s, seed %llu) to %s\n",
              static_cast<unsigned long long>(records), hours,
              spec->name.c_str(), static_cast<unsigned long long>(seed),
              out_path->c_str());
  return 0;
}

int cmd_graph(const Args& args) {
  const auto in_path = args.get("in");
  if (!in_path) return usage();
  const GraphBuildConfig config = graph_config(args);
  const auto records = load_csv(*in_path);
  if (!records) return 1;

  const auto graphs = build_graphs(*records, config);
  for (const auto& g : graphs) {
    const GraphMetrics m = compute_metrics(g);
    std::printf("window %s: %s\n", g.window().to_string().c_str(),
                m.to_string().c_str());
    if (config.facet == GraphFacet::kIp && g.node_count() >= 2) {
      std::printf("%s\n", ascii_adjacency(g, 32).c_str());
    }
  }
  if (graphs.size() >= 2) {
    std::printf("stability: %s\n", analyze_series(graphs).summary().c_str());
  }

  // Optional artifacts from the last window.
  if (const auto pgm_path = args.get("pgm")) {
    std::ofstream pgm(*pgm_path, std::ios::binary);
    if (!pgm || !write_pgm_heatmap(pgm, graphs.back())) {
      std::fprintf(stderr, "ccgraph: cannot write %s\n", pgm_path->c_str());
      return 1;
    }
    std::printf("wrote heatmap image to %s\n", pgm_path->c_str());
  }
  if (const auto save_path = args.get("save")) {
    std::ofstream save(*save_path);
    if (!save) {
      std::fprintf(stderr, "ccgraph: cannot write %s\n", save_path->c_str());
      return 1;
    }
    write_graph(save, graphs.back());
    std::printf("saved graph to %s\n", save_path->c_str());
  }
  return 0;
}

int cmd_diff(const Args& args) {
  const auto before_path = args.get("before");
  const auto after_path = args.get("after");
  if (!before_path || !after_path) return usage();
  const double factor = args.get_double(
      "factor", 4.0, [](double v) { return v >= 1.0; }, ">= 1");
  const auto before_records = load_csv(*before_path);
  const auto after_records = load_csv(*after_path);
  if (!before_records || !after_records) return 1;

  // One graph per log, whole-file windows, no collapsing (diffs should see
  // every endpoint).
  const GraphBuildConfig whole_log{.window_minutes = 1 << 20};
  const auto before = build_graphs(*before_records, whole_log);
  const auto after = build_graphs(*after_records, whole_log);
  const GraphDelta delta = diff_graphs(before.back(), after.back(), factor);
  std::printf("%s\n", delta.summary().c_str());
  std::size_t shown = 0;
  for (const auto& e : delta.edges_added) {
    if (shown++ >= 15) {
      std::printf("... and %zu more new edges\n", delta.edges_added.size() - 15);
      break;
    }
    std::printf("NEW     %s <-> %s (%llu bytes)\n", e.a.to_string().c_str(),
                e.b.to_string().c_str(),
                static_cast<unsigned long long>(e.bytes_after));
  }
  shown = 0;
  for (const auto& e : delta.edges_changed) {
    if (shown++ >= 15) {
      std::printf("... and %zu more changed edges\n",
                  delta.edges_changed.size() - 15);
      break;
    }
    std::printf("CHANGED %s <-> %s (%.1fx: %llu -> %llu bytes)\n",
                e.a.to_string().c_str(), e.b.to_string().c_str(), e.ratio(),
                static_cast<unsigned long long>(e.bytes_before),
                static_cast<unsigned long long>(e.bytes_after));
  }
  return delta.edges_added.empty() && delta.edges_changed.empty() ? 0 : 3;
}

int cmd_segment(const Args& args) {
  const auto in_path = args.get("in");
  if (!in_path) return usage();
  const GraphBuildConfig config = graph_config(args);
  const double resolution = args.get_double(
      "resolution", 2.0, [](double v) { return v > 0.0; }, "> 0");
  const auto records = load_csv(*in_path);
  if (!records) return 1;

  const auto graphs = build_graphs(*records, config);
  const CommGraph& g = graphs.back();
  const Segmentation seg = auto_segment(g, SegmentationMethod::kJaccardLouvain,
                                        {.louvain_resolution = resolution});

  std::printf("%zu nodes -> %zu microsegments\n", g.node_count(), seg.segment_count);
  for (std::uint32_t s = 0; s < seg.segment_count; ++s) {
    const auto members = seg.members_of(s);
    std::printf("segment %u (%zu members):", s, members.size());
    std::size_t shown = 0;
    for (const NodeId member : members) {
      if (shown++ >= 8) {
        std::printf(" ...");
        break;
      }
      std::printf(" %s", g.key(member).to_string().c_str());
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_policy(const Args& args) {
  const auto baseline_path = args.get("baseline");
  const auto check_path = args.get("check");
  if (!baseline_path || !check_path) return usage();
  const auto min_support =
      static_cast<std::size_t>(args.get_long_in("min-support", 1, 1));
  const double coverage = args.get_double(
      "coverage", 0.5, [](double v) { return v > 0.0 && v <= 1.0; },
      "in (0, 1]");
  const auto baseline = load_csv(*baseline_path);
  const auto check = load_csv(*check_path);
  if (!baseline || !check) return 1;

  // Segment the baseline graph, mine the default-deny policy from the
  // baseline stream, then check the second stream.
  const auto graphs = build_graphs(
      *baseline, {.window_minutes = 1 << 20, .collapse_threshold = 0.001});
  const CommGraph& g = graphs.back();
  const Segmentation seg = auto_segment(g, SegmentationMethod::kJaccardLouvain);
  const SegmentMap segments = SegmentMap::from_segmentation(g, seg);

  // Mine with per-hour support counting so --min-support can drop one-off
  // channels (including attacker traffic hiding inside the baseline).
  PolicyMiner miner(segments);
  std::int64_t current_hour = baseline->front().time.hour();
  for (const auto& record : *baseline) {
    if (record.time.hour() != current_hour) {
      miner.end_window();
      current_hour = record.time.hour();
    }
    miner.observe(record);
  }
  miner.end_window();
  const ReachabilityPolicy policy = miner.build(min_support);
  std::printf("baseline: %zu segments, %zu allow rules from %llu records "
              "(%zu windows, min-support %zu)\n",
              segments.segment_count(), policy.rule_count(),
              static_cast<unsigned long long>(miner.records_observed()),
              miner.windows_observed(), min_support);

  if (const auto save_path = args.get("save")) {
    std::ofstream save(*save_path);
    if (!save) {
      std::fprintf(stderr, "ccgraph: cannot write %s\n", save_path->c_str());
      return 1;
    }
    write_policy(save, policy);
    std::printf("saved policy to %s\n", save_path->c_str());
  }

  PolicyChecker checker(segments, policy);
  checker.check_batch(*check);
  const auto classified = apply_similarity_policy(
      checker.violations(), segments, {.segment_fraction = coverage});

  std::size_t alerts = 0, suppressed = 0;
  for (const auto& cv : classified) {
    if (cv.suppressed) {
      ++suppressed;
      continue;
    }
    ++alerts;
    if (alerts <= 20) {
      std::printf("ALERT %s\n", cv.violation.to_string().c_str());
    }
  }
  if (alerts > 20) std::printf("... and %zu more alerts\n", alerts - 20);
  std::printf("%zu alerts, %zu suppressed as coordinated changes (%llu records checked)\n",
              alerts, suppressed,
              static_cast<unsigned long long>(checker.records_checked()));
  return alerts > 0 ? 3 : 0;  // distinct exit code when violations exist
}

int cmd_anomaly(const Args& args) {
  const auto in_path = args.get("in");
  if (!in_path) return usage();
  const AnalyticsServiceOptions options = analysis_options(args);
  const auto records = load_csv(*in_path);
  if (!records) return 1;

  ReportSink sink;
  if (!sink.open(args)) return 1;

  int ops_rc = 0;
  const auto ops = start_ops_server(args, &ops_rc);
  if (ops_rc != 0) return ops_rc;

  AnalyticsService service(options, monitored_from(*records), sink.callback());
  if (ops) ops->set_ready(true);
  // Records arrive sorted by minute from simulate/collectors; group them.
  replay_minutes(*records, service);
  service.flush();
  if (ops) ops->set_ready(false);
  return sink.finish("analyzed", service.windows_reported());
}

// --- distributed commands (docs/DISTRIBUTED.md) ------------------------------

/// The aggregator side of `serve`: handshake the accepted shard
/// connections, run the barrier merge, and feed each merged window through
/// an AnalyticsService configured exactly like `anomaly` — stdout,
/// --summary-out contents and the exit code must be byte-identical to the
/// single-process command on the same log.
int run_aggregation(const Args& args, const AnalyticsServiceOptions& options,
                    int net_timeout_ms, std::size_t keyframe,
                    std::vector<net::FrameConn> conns) {
  ReportSink sink;
  if (!sink.open(args)) return 1;

  AnalyticsService service(options, {}, sink.callback());

  std::optional<store::StoreWriter> writer;
  if (const auto store_dir = args.get("store")) {
    writer = store::StoreWriter::open(*store_dir,
                                      {.keyframe_interval = keyframe});
    if (!writer) {
      std::fprintf(stderr, "ccgraph: cannot open store %s\n", store_dir->c_str());
      return 1;
    }
    service.set_store(&*writer);
  }

  int ops_rc = 0;
  const auto ops = start_ops_server(args, &ops_rc);
  if (ops_rc != 0) return ops_rc;

  const std::size_t shard_count = conns.size();
  dist::Aggregator aggregator({.graph = options.graph,
                               .recv_timeout_ms = net_timeout_ms,
                               .flight_dir = args.get_or("flight-dir", "")},
                              std::move(conns));
  if (!aggregator.handshake()) {
    std::fprintf(stderr, "ccgraph: aggregator handshake failed\n");
    return 1;
  }
  if (ops) ops->set_ready(true);
  const auto result = aggregator.run(
      [&](const CommGraph& graph) { service.ingest_window(graph); });
  if (ops) ops->set_ready(false);
  if (!result) {
    std::fprintf(stderr,
                 "ccgraph: aggregation aborted (see flight record)\n");
    return 1;
  }
  if (writer) writer->close();
  std::fprintf(stderr,
               "ccgraph: aggregated %llu records / %llu windows from %zu shards\n",
               static_cast<unsigned long long>(result->records),
               static_cast<unsigned long long>(result->windows), shard_count);
  return sink.finish("analyzed", service.windows_reported());
}

int cmd_shard_worker(const Args& args) {
  const auto in_path = args.get("in");
  if (!in_path || !args.get("connect") || !args.get("shard") ||
      !args.get("shards")) {
    return usage();
  }
  const long shard_id = args.get_long("shard", 0);
  const long shard_count = args.get_long("shards", 0);
  if (shard_id < 0 || shard_count < 1 || shard_id >= shard_count) {
    std::fprintf(stderr, "ccgraph: --shard must be in [0, --shards)\n");
    return 2;
  }
  const GraphBuildConfig config = graph_config(args);
  // Connect before the (potentially long) CSV parse so the aggregator's
  // accept loop completes immediately; its recv timeout then covers the
  // load-to-first-frame gap.
  auto conn = net::connect_loopback(
      static_cast<std::uint16_t>(args.get_long_in("connect", 0, 0, 65535)));
  if (!conn) {
    std::fprintf(stderr, "ccgraph: shard %ld: cannot connect to aggregator\n",
                 shard_id);
    return 1;
  }
  const auto records = load_csv(*in_path);
  if (!records) return 1;
  // The monitored set comes from the *whole* log (an IP another shard owns
  // may still appear as a remote here); the worker filters to its
  // partition internally via shard_of_record.
  dist::ShardWorker worker({.shard_id = static_cast<std::uint32_t>(shard_id),
                            .shard_count = static_cast<std::uint32_t>(shard_count),
                            .graph = config},
                           monitored_from(*records), std::move(*conn));
  if (!worker.handshake()) {
    std::fprintf(stderr, "ccgraph: shard %ld: handshake refused\n", shard_id);
    return 1;
  }
  replay_minutes(*records, worker);
  if (!worker.finish()) {
    std::fprintf(stderr, "ccgraph: shard %ld: shipping failed\n", shard_id);
    return 1;
  }
  std::fprintf(stderr, "ccgraph: shard %ld: %llu records, %llu windows shipped\n",
               shard_id, static_cast<unsigned long long>(worker.records()),
               static_cast<unsigned long long>(worker.windows_shipped()));
  return 0;
}

int cmd_serve(const Args& args) {
  const auto in_path = args.get("in");
  if (!in_path) return usage();
  const long shard_count = args.get_long_in("shards", 4, 1, 64);
  const AnalyticsServiceOptions options = analysis_options(args);
  // Read before any worker is forked, like every other flag: accept and
  // recv timeout (0 = wait forever) and the --store keyframe interval.
  const auto net_timeout_ms = static_cast<int>(
      args.get_long_in("net-timeout-ms", net::kDefaultTimeoutMs, 0));
  const auto keyframe =
      static_cast<std::size_t>(args.get_long_in("keyframe", 8, 1));

  auto listener = net::Listener::bind_loopback();
  if (!listener) {
    std::fprintf(stderr, "ccgraph: cannot bind listener\n");
    return 1;
  }

  // Pre-build every worker's argv before any fork: between fork and execv
  // only async-signal-safe work is allowed, so no allocation there. Flags
  // the user left at defaults are not forwarded — the worker's defaults
  // are identical by construction (graph_config).
  std::vector<std::vector<std::string>> worker_cmds(
      static_cast<std::size_t>(shard_count));
  for (long i = 0; i < shard_count; ++i) {
    auto& cmd = worker_cmds[static_cast<std::size_t>(i)];
    cmd = {"ccgraph",  "shard-worker",
           "--in",     *in_path,
           "--connect", std::to_string(listener->port()),
           "--shard",  std::to_string(i),
           "--shards", std::to_string(shard_count)};
    for (const char* key :
         {"window", "facet", "collapse", "log-level", "flight-dir"}) {
      if (const auto v = args.get(key)) {
        cmd.push_back(std::string("--") + key);
        cmd.push_back(*v);
      }
    }
    // A tracing aggregator wants the shards' spans too: workers buffer
    // spans in memory (no file of their own — that would race the merged
    // --trace-out) and ship them in telemetry frames.
    if (args.get("trace-out") || args.get("trace-buffer")) {
      cmd.push_back("--trace-buffer");
    }
  }
  std::vector<std::vector<char*>> worker_argvs;
  for (auto& cmd : worker_cmds) {
    std::vector<char*> argv;
    for (auto& s : cmd) argv.push_back(s.data());
    argv.push_back(nullptr);
    worker_argvs.push_back(std::move(argv));
  }

  std::vector<pid_t> children;
  for (long i = 0; i < shard_count; ++i) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("ccgraph: fork");
      for (const pid_t c : children) ::kill(c, SIGTERM);
      return 1;
    }
    if (pid == 0) {
      // Child: the listener fd is CLOEXEC, so the re-exec'd worker starts
      // clean and connects back over loopback.
      ::execv("/proc/self/exe",
              worker_argvs[static_cast<std::size_t>(i)].data());
      ::_exit(127);  // execv only returns on error
    }
    children.push_back(pid);
  }

  std::vector<net::FrameConn> conns;
  for (long i = 0; i < shard_count; ++i) {
    auto conn = listener->accept(net_timeout_ms);
    if (!conn) {
      std::fprintf(stderr, "ccgraph: worker accept failed (%ld of %ld connected)\n",
                   i, shard_count);
      for (const pid_t c : children) ::kill(c, SIGTERM);
      for (const pid_t c : children) ::waitpid(c, nullptr, 0);
      return 1;
    }
    conns.push_back(std::move(*conn));
  }

  int rc = run_aggregation(args, options, net_timeout_ms, keyframe,
                           std::move(conns));
  for (std::size_t i = 0; i < children.size(); ++i) {
    int status = 0;
    ::waitpid(children[i], &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "ccgraph: shard worker %zu exited abnormally (%d)\n",
                   i, status);
      if (rc == 0 || rc == 3) rc = 1;
    }
  }
  return rc;
}

int cmd_report(const Args& args) {
  const auto in_path = args.get("in");
  if (!in_path) return usage();
  const AnalyticsServiceOptions options = analysis_options(args);
  const auto records = load_csv(*in_path);
  if (!records) return 1;
  const auto graphs = build_graphs(*records, options.graph);
  if (graphs.empty()) {
    std::fprintf(stderr, "ccgraph: no complete windows in %s\n", in_path->c_str());
    return 1;
  }
  const CommGraph& g = graphs.back();

  // One analytics pass over the same log populates the per-stage latency
  // histograms (build/spectral/edges/tracker/patterns) and, when the log
  // is long enough to finish training, an anomaly verdict per window.
  std::vector<std::string> timeline;
  AnalyticsService service(
      options, monitored_from(*records),
      [&](const WindowReport& report) { timeline.push_back(report.summary()); });
  replay_minutes(*records, service);
  service.flush();
  const GraphMetrics m = compute_metrics(g);
  std::printf("== graph ==\n%s\n", m.to_string().c_str());

  std::printf("\n== executive summary ==\n%s",
              mine_patterns(g).executive_summary(g).c_str());

  std::printf("\n== traffic concentration ==\n");
  const auto curve = node_traffic_ccdf(g);
  for (const double f : {0.01, 0.05, 0.1, 0.25}) {
    double ccdf = 1.0;
    for (const auto& p : curve) {
      if (p.fraction_of_nodes <= f) ccdf = p.ccdf;
    }
    std::printf("top %4.0f%% of nodes carry %5.1f%% of bytes\n", 100 * f,
                100 * (1.0 - ccdf));
  }

  std::printf("\n== capacity hotspots ==\n");
  for (const auto& h : capacity_hotspots(g, 5)) {
    std::printf("%-20s %5.1f%% of traffic\n", h.node.to_string().c_str(),
                100 * h.share);
  }

  const Segmentation seg = auto_segment(g, SegmentationMethod::kJaccardLouvain);
  std::printf("\n== microsegments ==\n%zu segments over %zu nodes\n",
              seg.segment_count, g.node_count());

  if (graphs.size() >= 2) {
    std::printf("\n== stability ==\n%s\n", analyze_series(graphs).summary().c_str());
  }

  if (timeline.size() >= 2) {
    std::printf("\n== window timeline ==\n");
    for (const std::string& line : timeline) std::printf("%s\n", line.c_str());
  }

  std::printf("\n== metrics ==\n%s",
              obs::summary_text(obs::process_snapshot()).c_str());
  return 0;
}

int cmd_trace(const Args& args) {
  const auto in_path = args.get("in");
  if (!in_path) return usage();
  const AnalyticsServiceOptions options = analysis_options(args);
  const auto records = load_csv(*in_path);
  if (!records) return 1;

  // The whole point of this command is the span tree, so tracing is forced
  // on even without --trace-out (which then also captures the same spans).
  if (!obs::TraceRing::global().enabled()) {
    obs::TraceRing::global().enable(obs::kTraceRingCapacity);
  }

  AnalyticsService service(options, monitored_from(*records),
                           [](const WindowReport&) {});
  replay_minutes(*records, service);
  service.flush();

  // Group completed spans by window trace and print each tree, children
  // indented under parents in start order.
  const auto events = obs::TraceRing::global().events();
  std::map<std::uint64_t, std::vector<const obs::TraceEvent*>> by_trace;
  for (const auto& e : events) {
    if (e.trace_id != 0) by_trace[e.trace_id].push_back(&e);
  }
  for (const auto& [trace_id, spans] : by_trace) {
    std::unordered_set<std::uint64_t> ids;
    for (const auto* e : spans) ids.insert(e->span_id);
    // A parent evicted from the ring (or still open) orphans its children;
    // promote orphans to roots rather than dropping them.
    std::map<std::uint64_t, std::vector<const obs::TraceEvent*>> children;
    for (const auto* e : spans) {
      children[ids.contains(e->parent_id) ? e->parent_id : 0].push_back(e);
    }
    for (auto& [parent, kids] : children) {
      std::sort(kids.begin(), kids.end(),
                [](const obs::TraceEvent* a, const obs::TraceEvent* b) {
                  return a->start_ns < b->start_ns;
                });
    }
    std::printf("trace 0x%llx (%zu spans)\n",
                static_cast<unsigned long long>(trace_id), spans.size());
    std::vector<std::pair<const obs::TraceEvent*, int>> stack;
    const auto& roots = children[0];
    for (auto it = roots.rbegin(); it != roots.rend(); ++it) {
      stack.emplace_back(*it, 1);
    }
    while (!stack.empty()) {
      const auto [e, depth] = stack.back();
      stack.pop_back();
      std::printf("%*s%-34s %10.3f ms\n", depth * 2, "", e->name.c_str(),
                  static_cast<double>(e->duration_ns) / 1e6);
      if (const auto it = children.find(e->span_id); it != children.end()) {
        for (auto c = it->second.rbegin(); c != it->second.rend(); ++c) {
          stack.emplace_back(*c, depth + 1);
        }
      }
    }
  }
  std::printf("%zu window traces, %zu spans (%zu dropped)\n", by_trace.size(),
              events.size(), obs::TraceRing::global().dropped());
  return 0;
}

// --- store commands ---------------------------------------------------------

std::int64_t minute_arg(const Args& args, const std::string& key,
                        std::int64_t fallback) {
  const auto v = args.get(key);
  return v ? parse_number<std::int64_t>(key, *v) : fallback;
}

int cmd_store_append(const Args& args) {
  const auto in_path = args.get("in");
  const auto store_dir = args.get("store");
  if (!in_path || !store_dir) return usage();
  // Same build configuration defaults as `anomaly`, so a stored log replays
  // into byte-identical windows.
  const GraphBuildConfig config = graph_config(args);
  const store::WriterOptions options{
      .keyframe_interval =
          static_cast<std::size_t>(args.get_long_in("keyframe", 8, 1)),
      .segment_bytes =
          static_cast<std::uint64_t>(args.get_long_in("segment-mb", 64, 1))
          << 20};
  const auto records = load_csv(*in_path);
  if (!records) return 1;

  const auto graphs = build_graphs(*records, config);
  auto writer = store::StoreWriter::open(*store_dir, options);
  if (!writer) {
    std::fprintf(stderr, "ccgraph: cannot open store %s\n", store_dir->c_str());
    return 1;
  }
  std::size_t appended = 0;
  for (const auto& g : graphs) {
    if (writer->append(g)) {
      ++appended;
    } else {
      std::fprintf(stderr, "ccgraph: append rejected for window %s\n",
                   g.window().to_string().c_str());
    }
  }
  writer->close();
  std::printf("appended %zu of %zu windows to %s\n%s\n", appended, graphs.size(),
              store_dir->c_str(), writer->stats().to_string().c_str());
  return appended == graphs.size() ? 0 : 1;
}

int cmd_store_query(const Args& args) {
  const auto store_dir = args.get("store");
  if (!store_dir) return usage();
  const std::int64_t from =
      minute_arg(args, "from", std::numeric_limits<std::int64_t>::min());
  const std::int64_t to =
      minute_arg(args, "to", std::numeric_limits<std::int64_t>::max());
  auto reader = store::StoreReader::open(*store_dir);
  if (!reader) {
    std::fprintf(stderr, "ccgraph: cannot open store %s\n", store_dir->c_str());
    return 1;
  }

  // Walk the index cursor alongside the materializing range so each window
  // can be labeled with its on-disk representation.
  const auto& entries = reader->entries();
  std::size_t cursor = 0;
  while (cursor < entries.size() && entries[cursor].window_begin < from) ++cursor;
  auto range = reader->range(from, to);
  std::size_t shown = 0;
  while (const auto g = range.next()) {
    const char* kind = "?";
    std::uint64_t framed = 0;
    if (cursor < entries.size()) {
      kind = entries[cursor].kind == store::FrameKind::kKeyframe ? "keyframe"
                                                                 : "delta";
      framed = entries[cursor].length;
      ++cursor;
    }
    std::printf("%s  %-8s %8llu bytes on disk  %zu nodes / %zu edges / %llu "
                "bytes traffic\n",
                g->window().to_string().c_str(), kind,
                static_cast<unsigned long long>(framed), g->node_count(),
                g->edge_count(),
                static_cast<unsigned long long>(g->total_bytes()));
    ++shown;
  }
  std::printf("%zu windows in range\n", shown);
  return 0;
}

int cmd_store_replay(const Args& args) {
  const auto store_dir = args.get("store");
  if (!store_dir) return usage();
  const AnalyticsServiceOptions options = analysis_options(args);
  const std::int64_t from =
      minute_arg(args, "from", std::numeric_limits<std::int64_t>::min());
  const std::int64_t to =
      minute_arg(args, "to", std::numeric_limits<std::int64_t>::max());
  auto reader = store::StoreReader::open(*store_dir);
  if (!reader) {
    std::fprintf(stderr, "ccgraph: cannot open store %s\n", store_dir->c_str());
    return 1;
  }

  ReportSink sink;
  if (!sink.open(args)) return 1;

  // Same analytics stack as `anomaly`, fed from stored windows instead of a
  // flow log: the two paths must produce identical per-window summaries.
  AnalyticsService service(options, {}, sink.callback());
  return sink.finish("replayed", service.replay(*reader, from, to));
}

int cmd_store_compact(const Args& args) {
  const auto store_dir = args.get("store");
  if (!store_dir) return usage();
  const store::CompactOptions options{
      .keyframe_interval =
          static_cast<std::size_t>(args.get_long_in("keyframe", 8, 1)),
      .segment_bytes =
          static_cast<std::uint64_t>(args.get_long_in("segment-mb", 64, 1))
          << 20,
      .retain_from = minute_arg(args, "retain-from",
                                std::numeric_limits<std::int64_t>::min())};
  const auto before = store::StoreReader::open(*store_dir);
  if (!before) {
    std::fprintf(stderr, "ccgraph: cannot open store %s\n", store_dir->c_str());
    return 1;
  }
  const store::StoreStats before_stats = before->stats();

  const auto after = store::compact_store(*store_dir, options);
  if (!after) {
    std::fprintf(stderr, "ccgraph: compaction failed for %s\n",
                 store_dir->c_str());
    return 1;
  }
  std::printf("before: %s\nafter:  %s\n", before_stats.to_string().c_str(),
              after->to_string().c_str());
  return 0;
}

int cmd_store_stats(const Args& args) {
  const auto store_dir = args.get("store");
  if (!store_dir) return usage();
  const auto reader = store::StoreReader::open(*store_dir);
  if (!reader) {
    std::fprintf(stderr, "ccgraph: cannot open store %s\n", store_dir->c_str());
    return 1;
  }
  std::printf("%s\n", reader->stats().to_string().c_str());

  // Window-to-window churn as paper Fig. 5 measures it: the share of the
  // graph that does not persist into the next window (1 - node / edge
  // Jaccard). Computed against the true previous window (keyframes are a
  // storage artifact, not a workload change), so it reads the same after
  // compaction reshuffles frame kinds.
  std::optional<CommGraph> prev;
  std::size_t windows = 0;
  double node_churn_sum = 0.0, edge_churn_sum = 0.0;
  std::size_t edges_added = 0, edges_removed = 0, edges_changed = 0;
  // Edge-churn ratio buckets: <=1%, 2%, 5%, 10%, 25%, 50%, >50%.
  constexpr double kBounds[] = {0.01, 0.02, 0.05, 0.10, 0.25, 0.50};
  std::size_t buckets[7] = {0};
  auto range = reader->range();
  while (auto graph = range.next()) {
    if (prev) {
      const TransitionStability t = transition_stability(*prev, *graph);
      const double edge_churn = 1.0 - t.edge_jaccard;
      ++windows;
      node_churn_sum += 1.0 - t.node_jaccard;
      edge_churn_sum += edge_churn;
      edges_added += t.edges_added;
      edges_removed += t.edges_removed;
      edges_changed += t.edges_changed;
      std::size_t b = 0;
      while (b < 6 && edge_churn > kBounds[b]) ++b;
      ++buckets[b];
    }
    prev = std::move(graph);
  }
  if (windows > 0) {
    const double n = static_cast<double>(windows);
    std::printf(
        "churn: %zu window transitions, mean node churn %.1f%%, mean edge "
        "churn %.1f%%\n"
        "  edges/window: added mean %.1f, removed mean %.1f, volume-changed "
        "mean %.1f\n"
        "  edge churn histogram: <=1%%: %zu  <=2%%: %zu  <=5%%: %zu  "
        "<=10%%: %zu  <=25%%: %zu  <=50%%: %zu  >50%%: %zu\n",
        windows, 100.0 * node_churn_sum / n, 100.0 * edge_churn_sum / n,
        static_cast<double>(edges_added) / n,
        static_cast<double>(edges_removed) / n,
        static_cast<double>(edges_changed) / n, buckets[0], buckets[1],
        buckets[2], buckets[3], buckets[4], buckets[5], buckets[6]);
  }
  return 0;
}

// Build provenance baked in by tools/CMakeLists.txt; the fallbacks cover
// direct compiler invocations outside CMake.
#ifndef CCG_VERSION_STRING
#define CCG_VERSION_STRING "unknown"
#endif
#ifndef CCG_BUILD_TYPE_STRING
#define CCG_BUILD_TYPE_STRING "unknown"
#endif
#ifndef CCG_SANITIZE_STRING
#define CCG_SANITIZE_STRING ""
#endif

int print_version() {
  const char* sanitize = CCG_SANITIZE_STRING;
  std::printf("ccgraph %s (%s build, sanitizers: %s)\n", CCG_VERSION_STRING,
              CCG_BUILD_TYPE_STRING, sanitize[0] != '\0' ? sanitize : "none");
  std::printf("simd: %s\n", ccg::simd::capability_string().c_str());
  return 0;
}

/// Flags main reads for every command.
constexpr std::string_view kGlobalFlags[] = {
    "threads",   "simd",         "log-level",   "flight-dir",  "watchdog-ms",
    "trace-out", "trace-buffer", "metrics-out", "metrics-prom"};

/// One command: its handler and the flags it reads besides kGlobalFlags.
/// Any other flag is a usage error, raised before the command runs.
struct Command {
  std::string_view name;  // "anomaly", "store replay", ...
  int (*run)(const Args&);
  std::vector<std::string_view> flags;
};

const std::vector<Command>& commands() {
  const auto analysis = [](std::vector<std::string_view> flags) {
    for (const std::string_view f :
         {"window", "facet", "collapse", "train", "rank", "stall-ms"}) {
      flags.push_back(f);
    }
    return flags;
  };
  static const std::vector<Command> table = {
      {"simulate", cmd_simulate,
       {"preset", "rate-scale", "out", "hours", "seed", "attack",
        "attack-hour"}},
      {"graph", cmd_graph,
       {"in", "facet", "window", "collapse", "pgm", "save"}},
      {"segment", cmd_segment, {"in", "window", "collapse", "resolution"}},
      {"policy", cmd_policy,
       {"baseline", "check", "min-support", "coverage", "save"}},
      {"diff", cmd_diff, {"before", "after", "factor"}},
      {"anomaly", cmd_anomaly, analysis({"in", "summary-out", "ops-port"})},
      {"serve", cmd_serve,
       analysis({"in", "shards", "summary-out", "store", "keyframe",
                 "net-timeout-ms", "ops-port"})},
      {"shard-worker", cmd_shard_worker,
       {"in", "connect", "shard", "shards", "window", "facet", "collapse"}},
      {"report", cmd_report, analysis({"in"})},
      {"trace", cmd_trace, analysis({"in"})},
      {"store append", cmd_store_append,
       {"in", "store", "window", "facet", "collapse", "keyframe",
        "segment-mb"}},
      {"store query", cmd_store_query, {"store", "from", "to"}},
      // Replay reads its windows as stored: no --window/--facet/--collapse.
      {"store replay", cmd_store_replay,
       {"store", "from", "to", "summary-out", "train", "rank", "stall-ms"}},
      {"store compact", cmd_store_compact,
       {"store", "keyframe", "segment-mb", "retain-from"}},
      {"store stats", cmd_store_stats, {"store"}},
  };
  return table;
}

const Command* find_command(std::string_view name) {
  for (const Command& command : commands()) {
    if (command.name == name) return &command;
  }
  return nullptr;
}

/// `ccgraph profile <command> ...`: runs the inner command with the span
/// ring on, prints the per-span self/total table built from the ring plus a
/// whole-run getrusage footer, and optionally writes folded stacks / JSON.
int run_profiled(const Command& command, const Args& args) {
  obs::TraceRing& ring = obs::TraceRing::global();
  if (!ring.enabled()) ring.enable(obs::kTraceRingCapacity);
  rusage before = {};
  getrusage(RUSAGE_SELF, &before);
  const auto start = std::chrono::steady_clock::now();
  int rc = command.run(args);
  const ccg::obs::prof::Profile profile = ccg::obs::prof::capture(start);
  rusage after = {};
  getrusage(RUSAGE_SELF, &after);

  const auto cpu_seconds = [](const timeval& from, const timeval& to) {
    return static_cast<double>(to.tv_sec - from.tv_sec) +
           static_cast<double>(to.tv_usec - from.tv_usec) * 1e-6;
  };
  std::printf("\n==== profile: %.*s ====\n%s",
              static_cast<int>(command.name.size()), command.name.data(),
              profile.table_text().c_str());
  std::printf("counters (rusage): cpu_user=%.3fs cpu_sys=%.3fs "
              "faults=%ld/%ld ctx=%ld/%ld peak_rss=%.1fMB\n",
              cpu_seconds(before.ru_utime, after.ru_utime),
              cpu_seconds(before.ru_stime, after.ru_stime),
              after.ru_minflt - before.ru_minflt,
              after.ru_majflt - before.ru_majflt,
              after.ru_nvcsw - before.ru_nvcsw,
              after.ru_nivcsw - before.ru_nivcsw,
              static_cast<double>(after.ru_maxrss) / 1024.0);  // KiB on Linux

  if (const auto path = args.get("profile-out")) {
    std::ofstream out(*path);
    if (!out || !(out << profile.folded_text())) {
      std::fprintf(stderr, "ccgraph: cannot write %s\n", path->c_str());
      if (rc == 0) rc = 1;
    }
  }
  if (const auto path = args.get("profile-json")) {
    std::ofstream out(*path);
    if (!out || !(out << profile.to_json())) {
      std::fprintf(stderr, "ccgraph: cannot write %s\n", path->c_str());
      if (rc == 0) rc = 1;
    }
  }
  return rc;
}

/// --metrics-out / --metrics-prom: dump whatever the command recorded into
/// the global registry, even when the command itself failed (a metrics
/// file from a failed run is exactly what you want when diagnosing it).
int export_metrics(const Args& args) {
  // On serve this holds the per-shard series shipped over telemetry, the
  // same view the live /metrics endpoint serves.
  const auto snapshot = ccg::obs::process_snapshot();
  if (const auto path = args.get("metrics-out")) {
    if (!ccg::obs::write_json_file(*path, snapshot)) {
      std::fprintf(stderr, "ccgraph: cannot write %s\n", path->c_str());
      return 1;
    }
  }
  if (const auto path = args.get("metrics-prom")) {
    std::ofstream out(*path);
    if (!out || !(out << ccg::obs::to_prometheus(snapshot))) {
      std::fprintf(stderr, "ccgraph: cannot write %s\n", path->c_str());
      return 1;
    }
  }
  return 0;
}

/// --trace-out: dump the span ring as Chrome trace-event JSON. Like metrics,
/// the file is written even after a failed command — the trace of a failed
/// run is the interesting one.
int export_trace(const Args& args) {
  const auto path = args.get("trace-out");
  if (!path) return 0;
  if (!ccg::obs::write_trace_file(*path)) {
    std::fprintf(stderr, "ccgraph: cannot write %s\n", path->c_str());
    return 1;
  }
  return 0;
}

/// Checks every flag of `command`, then applies the global ones. Flags are
/// the only configuration: an unknown flag or a malformed value throws
/// UsageError before the command reads any input.
void configure(const Args& args, const Command& command, bool profiled) {
  std::vector<std::string_view> known(std::begin(kGlobalFlags),
                                      std::end(kGlobalFlags));
  known.insert(known.end(), command.flags.begin(), command.flags.end());
  if (profiled) known.insert(known.end(), {"profile-out", "profile-json"});
  args.reject_unknown(known, std::string(command.name));

  // Kernel parallelism and the simd tier are process-wide: results are
  // bit-identical at any setting, only the wall clock changes. --threads 0
  // keeps the default ($CCG_THREADS, else every hardware thread).
  const long threads = args.get_long_in("threads", 0, 0, parallel::kMaxThreads);
  std::optional<obs::LogLevel> level;
  if (const auto name = args.get("log-level")) {
    level = obs::parse_level(*name);
    if (!level) {
      throw UsageError("--log-level expects debug|info|warn|error (got '" +
                       *name + "')");
    }
  }
  const long watchdog_ms = args.get_long_in("watchdog-ms", 0, 0);
  (void)ops_port(args);  // read by the command; checked here with the rest

  if (level) obs::set_stderr_level(*level);
  // --simd beats $CCG_SIMD beats auto-detection.
  if (const auto tier = args.get("simd"); tier && !simd::set_tier(*tier)) {
    throw UsageError("--simd expects auto|scalar|avx2 (got '" + *tier + "')");
  }
  // Both resolve here, before input is read: a malformed $CCG_THREADS
  // warns now, and the ccg.parallel.threads and ccg.simd.tier gauges
  // reach every metrics dump and flight record.
  parallel::set_thread_count(static_cast<int>(threads));
  simd::active_tier();
  if (args.get("trace-out") || args.get("trace-buffer")) {
    obs::TraceRing::global().enable(obs::kTraceRingCapacity);
  }
  const std::string flight_dir = args.get_or("flight-dir", "");
  if (!flight_dir.empty()) obs::install_crash_handler(flight_dir);
  if (watchdog_ms > 0) {
    obs::Watchdog::global().start(std::chrono::milliseconds(watchdog_ms),
                                  flight_dir.empty() ? "." : flight_dir);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  // `profile` wraps any other command: shift it off so the rest of argv
  // parses exactly as it would unwrapped.
  const bool profiled = std::strcmp(argv[1], "profile") == 0;
  if (profiled) {
    --argc;
    ++argv;
    if (argc < 2) return usage();
  }
  const std::string name = argv[1];
  if (name == "--version" || name == "version") return print_version();
  // The Args parser skips bare words, so the store subcommand rides along in
  // argv without confusing the flag scan.
  const Command* command = find_command(
      name == "store" && argc >= 3 ? name + " " + argv[2] : name);
  if (command == nullptr) return usage();
  const Args args(argc - 2, argv + 2);
  try {
    configure(args, *command, profiled);
    const int rc = profiled ? run_profiled(*command, args) : command->run(args);
    ccg::obs::Watchdog::global().stop();
    const int metrics_rc = export_metrics(args);
    const int trace_rc = export_trace(args);
    return rc != 0 ? rc : (metrics_rc != 0 ? metrics_rc : trace_rc);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "ccgraph: %s\n", e.what());
    ccg::obs::Watchdog::global().stop();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ccgraph: %s\n", e.what());
    ccg::obs::log_error("ccgraph terminated by exception",
                        {ccg::obs::field("what", e.what())});
    ccg::obs::Watchdog::global().stop();
    export_metrics(args);  // best-effort evidence from the failed run
    export_trace(args);
    return 1;
  }
}
