// perfbench — the in-process half of the ccgraph benchmark (see METRICS.md).
//
//   perfbench generate --preset k8s --hours 6 --rate-scale 0.25 --seed 7 --out log.csv
//   perfbench anomaly  --in log.csv [--window 60]
//   perfbench replay   --store DIR
//   perfbench serve    --in log.csv --store DIR [--window 3]
//   perfbench worker   --in log.csv --connect PORT --shard I
//
// Every analysis mode drives the same library entry points as the matching
// `ccgraph` command (anomaly, store replay, serve --shards 2) at the CLI's
// default of 3 training windows, and prints the same stdout, byte for byte;
// run.py checks that against the CLI. Common flags:
//   --launch-ns NS  CLOCK_MONOTONIC time the parent spawned this process;
//                   set-up is measured from here to "ready"
//   --result FILE   per-run JSON: ready/end times, per-window latencies,
//                   counter deltas, child-process resource usage
//   --trace FILE    time every layer call from outside and write the spans
//                   as Chrome trace-event JSON; without it (and without
//                   --recompose) the product's own AnalyticsService runs
//   --recompose     the traced composition with span recording off: the
//                   baseline that tracing overhead is measured against
//   --probe         stop at "ready" (set-up time only)
//   --threads N / --simd TIER  as in ccgraph; default: product defaults
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "ccg/analytics/service.hpp"
#include "ccg/dist/aggregator.hpp"
#include "ccg/dist/shard_worker.hpp"
#include "ccg/graph/builder.hpp"
#include "ccg/net/frame.hpp"
#include "ccg/obs/metrics.hpp"
#include "ccg/parallel/parallel.hpp"
#include "ccg/segmentation/tracker.hpp"
#include "ccg/simd/simd.hpp"
#include "ccg/store/store.hpp"
#include "ccg/summarize/anomaly.hpp"
#include "ccg/summarize/edge_anomaly.hpp"
#include "ccg/summarize/patterns.hpp"
#include "ccg/telemetry/collector.hpp"
#include "ccg/telemetry/provider.hpp"
#include "ccg/telemetry/serialize.hpp"
#include "ccg/workload/cluster.hpp"
#include "ccg/workload/driver.hpp"
#include "ccg/workload/presets.hpp"

namespace {

using namespace ccg;

/// The CLI's default training-window count, and the shard count of the
/// `serve` workload.
constexpr std::size_t kTrainingWindows = 3;
constexpr long kShards = 2;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench generate|anomaly|replay|serve|worker [options]\n"
               "(see the header of perfbench.cpp)\n");
  return 2;
}

/// --key value / --flag parser, same shape as the CLI's.
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
  long get_long(const std::string& key, long fallback) const {
    auto v = get(key);
    return v ? std::stol(*v) : fallback;
  }
  double get_double(const std::string& key, double fallback) const {
    auto v = get(key);
    return v ? std::stod(*v) : fallback;
  }

 private:
  std::map<std::string, std::string> values_;
};

// --- spans --------------------------------------------------------------------

/// In-memory span log, written once at exit. A span's layer is its name up
/// to the first '.'; the window id (first minute of the window) is the
/// trace id, inherited by child spans.
class Tracer {
 public:
  struct Record {
    std::string name;
    std::int64_t start = 0;
    std::int64_t end = 0;
    int parent = -1;
    std::int64_t trace = -1;
    std::string args;  // extra JSON members, "" or `"k":v,...`
  };

  bool enabled() const { return enabled_; }
  void enable() { enabled_ = true; }

  int begin(std::string name, std::int64_t trace) {
    if (trace < 0 && !stack_.empty()) trace = records_[stack_.back()].trace;
    records_.push_back({std::move(name), now_ns(), 0,
                        stack_.empty() ? -1 : stack_.back(), trace, ""});
    stack_.push_back(static_cast<int>(records_.size()) - 1);
    return stack_.back();
  }
  void end(int id) {
    records_[id].end = now_ns();
    stack_.pop_back();
  }
  void annotate(int id, const std::string& args) { records_[id].args = args; }

  /// Chrome trace-event JSON; timestamps in µs from `origin_ns`.
  bool write(const std::string& path, std::int64_t origin_ns) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    const int pid = static_cast<int>(::getpid());
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                    "\"parent\":%d,\"trace\":%lld",
                    i == 0 ? "" : ",", r.name.c_str(), pid,
                    static_cast<double>(r.start - origin_ns) / 1e3,
                    static_cast<double>(r.end - r.start) / 1e3, i, r.parent,
                    static_cast<long long>(r.trace));
      out << buf;
      if (!r.args.empty()) out << ',' << r.args;
      out << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  bool enabled_ = false;
  std::vector<Record> records_;
  std::vector<int> stack_;
};

Tracer g_tracer;

/// RAII span; a no-op when tracing is off.
class Span {
 public:
  explicit Span(const char* name, std::int64_t trace = -1)
      : id_(g_tracer.enabled() ? g_tracer.begin(name, trace) : -1) {}
  ~Span() {
    if (id_ >= 0) g_tracer.end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void annotate(const std::string& args) {
    if (id_ >= 0) g_tracer.annotate(id_, args);
  }

 private:
  int id_;
};

// --- result file ----------------------------------------------------------------

/// Flat JSON object writer for the per-run result file.
class Result {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    add(key, buf);
  }
  void integer(const std::string& key, long long v) { add(key, std::to_string(v)); }
  void str(const std::string& key, const std::string& v) { add(key, "\"" + v + "\""); }
  void list(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    char buf[64];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.9g", i == 0 ? "" : ",", v[i]);
      s += buf;
    }
    add(key, s + "]");
  }
  void raw(const std::string& key, const std::string& json) { add(key, json); }
  bool write(const std::string& path) const {
    std::ofstream out(path);
    out << "{" << body_ << "}\n";
    return static_cast<bool>(out);
  }

 private:
  void add(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ',';
    body_ += "\"" + key + "\":" + v;
  }
  std::string body_;
};

/// Registry counters read at ready and at the end; the run reports deltas.
const char* const kCounters[] = {
    "ccg.parallel.jobs",       "ccg.parallel.chunks", "ccg.net.bytes_received",
    "ccg.net.frames_received", "ccg.net.errors",      "ccg.net.timeouts",
};

std::map<std::string, std::uint64_t> read_counters() {
  std::map<std::string, std::uint64_t> out;
  for (const char* name : kCounters) {
    out[name] = obs::Registry::global().counter(name).value();
  }
  return out;
}

std::string counter_delta_json(const std::map<std::string, std::uint64_t>& before) {
  std::string s = "{";
  for (const auto& [name, value] : read_counters()) {
    if (s.size() > 1) s += ',';
    s += "\"" + name + "\":" + std::to_string(value - before.at(name));
  }
  return s + "}";
}

long self_maxrss_kb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

// --- shared pieces of the CLI composition ------------------------------------------

struct CsvLoad {
  std::vector<ConnectionSummary> records;
  std::size_t dropped = 0;
  std::uint64_t bytes = 0;
  double seconds = 0.0;
};

/// The CLI's load_csv: one read_csv over the whole file.
std::optional<CsvLoad> load_csv(const std::string& path) {
  Span span("telemetry.read_csv");
  const std::int64_t t0 = now_ns();
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "perfbench: cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  CsvLoad load;
  load.records = read_csv(in, &load.dropped);
  load.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  std::error_code ec;
  load.bytes = std::filesystem::file_size(path, ec);
  if (load.records.empty()) {
    std::fprintf(stderr, "perfbench: %s contains no records\n", path.c_str());
    return std::nullopt;
  }
  return load;
}

std::unordered_set<IpAddr> monitored_from(const std::vector<ConnectionSummary>& records) {
  Span span("tools.monitored");
  std::unordered_set<IpAddr> out;
  for (const auto& r : records) out.insert(r.flow.local_ip);
  return out;
}

using BatchSink =
    std::function<void(MinuteBucket, const std::vector<ConnectionSummary>&)>;

/// The CLI's replay_minutes: per-minute batches of a minute-sorted log.
void replay_minutes(const std::vector<ConnectionSummary>& records,
                    const BatchSink& sink) {
  Span span("tools.replay_minutes");
  std::vector<ConnectionSummary> minute_batch;
  MinuteBucket current = records.front().time;
  for (const auto& rec : records) {
    if (rec.time != current) {
      sink(current, minute_batch);
      minute_batch.clear();
      current = rec.time;
    }
    minute_batch.push_back(rec);
  }
  sink(current, minute_batch);
}

GraphBuildConfig graph_config(const Args& args) {
  return {.facet = GraphFacet::kIp,
          .window_minutes = args.get_long("window", 60),
          .collapse_threshold = 0.001};
}

/// Prints reports exactly as the CLI's report callback does, and records
/// each window's latency from input-complete (`input_ns`) to delivery.
class Reporter {
 public:
  std::int64_t input_ns = 0;

  void deliver(const WindowReport& report) {
    std::printf("%s\n", report.summary().c_str());
    if (report.alert) {
      ++alerts_;
      for (std::size_t i = 0;
           i < std::min<std::size_t>(5, report.anomalous_edges.size()); ++i) {
        std::printf("  %s\n", report.anomalous_edges[i].to_string().c_str());
      }
    }
    latencies_ms_.push_back(static_cast<double>(now_ns() - input_ns) / 1e6);
  }
  std::size_t windows() const { return latencies_ms_.size(); }
  std::size_t alerts() const { return alerts_; }
  const std::vector<double>& latencies_ms() const { return latencies_ms_; }

 private:
  std::size_t alerts_ = 0;
  std::vector<double> latencies_ms_;
};

/// AnalyticsService's per-window stages re-composed outside the service so
/// each call can be timed: edges -> tracker -> patterns -> fit/score, in the
/// same order and with the same options as AnalyticsService::analyze and
/// the CLI (rank 20, new-node edges suppressed, Jaccard+Louvain tracker).
class TracedAnalysis {
 public:
  void window(const CommGraph& graph, Reporter& reporter) {
    Span span("analytics.window", graph.window().begin().index());
    if (g_tracer.enabled()) {
      span.annotate("\"nodes\":" + std::to_string(graph.node_count()) +
                    ",\"edges\":" + std::to_string(graph.edge_count()));
    }
    WindowReport report;
    report.window = graph.window();
    report.nodes = graph.node_count();
    report.edges = graph.edge_count();
    report.bytes = graph.total_bytes();
    analyze(graph, report);
    Span out("tools.report");
    reporter.deliver(report);
  }

 private:
  void analyze(const CommGraph& graph, WindowReport& report) {
    {
      Span s("summarize.edges");
      report.anomalous_edges = edge_detector_.observe(graph);
    }
    {
      Span s("segmentation.observe");
      report.segments = tracker_.observe(graph);
    }
    {
      Span s("summarize.patterns");
      report.patterns = mine_patterns(graph);
    }
    if (!spectral_.fitted()) {
      training_graphs_.push_back(graph);
      if (training_graphs_.size() >= kTrainingWindows) {
        std::vector<const CommGraph*> refs;
        for (const CommGraph& g : training_graphs_) refs.push_back(&g);
        Span s("summarize.spectral_fit");
        spectral_.fit(refs);
      }
      report.trained = false;
      return;
    }
    report.trained = true;
    Span s("summarize.spectral_score");
    report.anomaly = spectral_.score(graph);
    report.alert = spectral_.is_alert(*report.anomaly);
  }

  SpectralAnomalyDetector spectral_{{.rank = 20}};
  EwmaEdgeDetector edge_detector_{{.suppress_new_node_edges = true}};
  SegmentTracker tracker_{SegmentationMethod::kJaccardLouvain, {}};
  std::vector<CommGraph> training_graphs_;
};

/// The CLI's AnalyticsService configuration (anomaly, store replay, serve).
AnalyticsServiceOptions service_options(const GraphBuildConfig& graph) {
  return {.graph = graph,
          .training_windows = kTrainingWindows,
          .spectral = {.rank = 20}};
}

/// Bookkeeping shared by the analysis modes: ready/end stamps, counter
/// deltas, the root "run" span, and the result and trace files.
class Run {
 public:
  explicit Run(const Args& args)
      : args_(args), launch_ns_(args.get_long("launch-ns", 0)) {
    if (launch_ns_ == 0) launch_ns_ = now_ns();
    if (args.get("trace")) g_tracer.enable();
  }

  bool probe() const { return args_.get("probe").has_value(); }
  /// Whether TracedAnalysis replaces AnalyticsService (--trace, --recompose).
  bool recompose() const {
    return g_tracer.enabled() || args_.get("recompose").has_value();
  }

  void ready() {
    ready_ns_ = now_ns();
    counters_ = read_counters();
    if (!probe()) root_.emplace("run");
  }

  /// Ends the measured interval, prints the CLI's closing line, and writes
  /// the result and trace files. Returns the CLI's exit code.
  int finish(const Reporter& reporter, const char* verb) {
    root_.reset();
    const std::int64_t end_ns = now_ns();
    if (!probe()) {
      std::printf("%zu windows %s, %zu alerts\n", reporter.windows(), verb,
                  reporter.alerts());
    }
    std::fflush(stdout);
    result.integer("launch_ns", launch_ns_);
    result.integer("ready_ns", ready_ns_);
    result.integer("end_ns", end_ns);
    result.list("latencies_ms", reporter.latencies_ms());
    result.integer("training_windows", static_cast<long long>(kTrainingWindows));
    result.integer("threads", parallel::thread_count());
    result.str("simd", simd::tier_name(simd::active_tier()));
    result.raw("counters", counter_delta_json(counters_));
    result.integer("maxrss_kb", self_maxrss_kb());
    int rc = reporter.alerts() > 0 ? 3 : 0;
    if (const auto path = args_.get("result"); path && !result.write(*path)) rc = 1;
    if (const auto path = args_.get("trace");
        path && !g_tracer.write(*path, launch_ns_)) {
      rc = 1;
    }
    return rc;
  }

  Result result;

 private:
  const Args& args_;
  std::int64_t launch_ns_;
  std::int64_t ready_ns_ = 0;
  std::map<std::string, std::uint64_t> counters_;
  std::optional<Span> root_;
};

void add_load(Result& result, const CsvLoad& load) {
  result.integer("csv_bytes", static_cast<long long>(load.bytes));
  result.num("read_csv_s", load.seconds);
  result.integer("rows_dropped", static_cast<long long>(load.dropped));
  result.integer("records", static_cast<long long>(load.records.size()));
}

// --- modes -------------------------------------------------------------------------

/// `ccgraph simulate`: the same Cluster + TelemetryHub + SimulationDriver
/// composition, so the bytes match the CLI's for a (preset, hours, seed).
int mode_generate(const Args& args) {
  const std::string preset = args.get_or("preset", "k8s");
  const double scale = args.get_double("rate-scale", 1.0);
  ClusterSpec spec;
  if (preset == "k8s") {
    spec = presets::k8s_paas(scale);
  } else if (preset == "tiny") {
    spec = presets::tiny(scale);
  } else {
    std::fprintf(stderr, "perfbench: unknown preset '%s'\n", preset.c_str());
    return 2;
  }
  const auto out_path = args.get("out");
  if (!out_path) return usage();
  const long hours = args.get_long("hours", 1);
  const auto seed = static_cast<std::uint64_t>(args.get_long("seed", 7));
  Cluster cluster(spec, seed);
  TelemetryHub hub(ProviderProfile::azure(), seed);
  SimulationDriver driver(cluster, hub);
  std::ofstream out(*out_path);
  out << csv_header() << '\n';
  std::uint64_t records = 0;
  for (std::int64_t m = 0; m < hours * 60; ++m) {
    for (const auto& rec : driver.step(MinuteBucket(m))) {
      out << to_csv(rec) << '\n';
      ++records;
    }
  }
  out.close();
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", out_path->c_str());
    return 1;
  }
  std::printf("{\"records\":%llu}\n", static_cast<unsigned long long>(records));
  return 0;
}

/// `ccgraph anomaly`: read_csv -> per-minute batches -> windows -> reports.
/// A window's input is complete when the on_batch/flush call that closes
/// it is made.
int mode_anomaly(const Args& args) {
  Run run(args);
  run.ready();
  Reporter reporter;
  if (run.probe()) return run.finish(reporter, "analyzed");
  const auto load = load_csv(args.get_or("in", ""));
  if (!load) return 1;
  const GraphBuildConfig config = graph_config(args);
  std::unordered_set<IpAddr> monitored = monitored_from(load->records);
  if (run.recompose()) {
    GraphBuilder builder(config, std::move(monitored));
    TracedAnalysis analysis;
    const auto drain = [&] {
      std::vector<CommGraph> graphs;
      {
        Span s("graph.take_graphs");
        graphs = builder.take_graphs();
      }
      for (const CommGraph& g : graphs) analysis.window(g, reporter);
    };
    replay_minutes(load->records,
                   [&](MinuteBucket t, const std::vector<ConnectionSummary>& batch) {
                     reporter.input_ns = now_ns();
                     {
                       Span s("graph.on_batch");
                       builder.on_batch(t, batch);
                     }
                     drain();
                   });
    reporter.input_ns = now_ns();
    {
      Span s("graph.flush");
      builder.flush();
    }
    drain();
  } else {
    AnalyticsService service(service_options(config), std::move(monitored),
                             [&](const WindowReport& r) { reporter.deliver(r); });
    replay_minutes(load->records,
                   [&](MinuteBucket t, const std::vector<ConnectionSummary>& batch) {
                     reporter.input_ns = now_ns();
                     service.on_batch(t, batch);
                   });
    reporter.input_ns = now_ns();
    service.flush();
  }
  add_load(run.result, *load);
  return run.finish(reporter, "analyzed");
}

/// `ccgraph store replay`: StoreReader::open is set-up; a window's input is
/// complete when the range next() call that yields it is made.
int mode_replay(const Args& args) {
  Run run(args);
  std::optional<store::StoreReader> reader;
  {
    Span s("store.open");
    reader = store::StoreReader::open(args.get_or("store", ""));
  }
  if (!reader) {
    std::fprintf(stderr, "perfbench: cannot open store\n");
    return 1;
  }
  run.ready();
  Reporter reporter;
  if (run.probe()) return run.finish(reporter, "replayed");
  auto range = reader->range();
  if (run.recompose()) {
    TracedAnalysis analysis;
    while (true) {
      reporter.input_ns = now_ns();
      std::optional<CommGraph> g;
      {
        Span s("store.read");
        g = range.next();
      }
      if (!g) break;
      analysis.window(*g, reporter);
    }
  } else {
    AnalyticsService service(service_options({}), {},
                             [&](const WindowReport& r) { reporter.deliver(r); });
    while (true) {
      reporter.input_ns = now_ns();
      const auto g = range.next();
      if (!g) break;
      service.ingest_window(*g);
    }
  }
  run.result.num("store_bytes_per_window", reader->stats().bytes_per_window());
  return run.finish(reporter, "replayed");
}

/// Worker half of `serve`, composed like `ccgraph shard-worker`: connect,
/// parse the whole log, handshake, ship per-minute batches, finish.
int mode_worker(const Args& args) {
  if (args.get("trace")) g_tracer.enable();
  const std::int64_t origin = args.get_long("launch-ns", 0);
  const auto counters = read_counters();
  auto conn = net::connect_loopback(static_cast<std::uint16_t>(args.get_long("connect", 0)));
  if (!conn) {
    std::fprintf(stderr, "perfbench: worker cannot connect\n");
    return 1;
  }
  const auto load = load_csv(args.get_or("in", ""));
  if (!load) return 1;
  dist::ShardWorker worker(
      {.shard_id = static_cast<std::uint32_t>(args.get_long("shard", 0)),
       .shard_count = static_cast<std::uint32_t>(kShards),
       .graph = graph_config(args)},
      monitored_from(load->records), std::move(*conn));
  if (!worker.handshake()) {
    std::fprintf(stderr, "perfbench: worker handshake refused\n");
    return 1;
  }
  std::int64_t build_ns = 0;
  replay_minutes(load->records,
                 [&](MinuteBucket t, const std::vector<ConnectionSummary>& batch) {
                   Span s("dist.worker_on_batch");
                   const std::int64_t t0 = now_ns();
                   worker.on_batch(t, batch);
                   build_ns += now_ns() - t0;
                 });
  bool ok;
  {
    Span s("dist.worker_finish");
    const std::int64_t t0 = now_ns();
    ok = worker.finish();
    build_ns += now_ns() - t0;
  }
  Result result;
  add_load(result, *load);
  result.num("build_s", static_cast<double>(build_ns) / 1e9);
  result.raw("counters", counter_delta_json(counters));
  if (const auto path = args.get("result")) result.write(*path);
  if (const auto path = args.get("trace")) g_tracer.write(*path, origin);
  if (!ok) {
    std::fprintf(stderr, "perfbench: worker shipping failed\n");
    return 1;
  }
  return 0;
}

struct Child {
  pid_t pid = -1;
  int status = 0;
  rusage usage{};
};

void reap(std::vector<Child>& children, bool kill_first) {
  for (Child& c : children) {
    if (kill_first) ::kill(c.pid, SIGKILL);
    ::wait4(c.pid, &c.status, 0, &c.usage);
  }
}

std::string children_json(const std::vector<Child>& children) {
  std::string out = "[";
  for (const Child& c : children) {
    if (out.size() > 1) out += ',';
    const double cpu =
        static_cast<double>(c.usage.ru_utime.tv_sec + c.usage.ru_stime.tv_sec) +
        static_cast<double>(c.usage.ru_utime.tv_usec + c.usage.ru_stime.tv_usec) / 1e6;
    out += "{\"maxrss_kb\":" + std::to_string(c.usage.ru_maxrss) +
           ",\"cpu_s\":" + std::to_string(cpu) + ",\"exit\":" +
           std::to_string(WIFEXITED(c.status) ? WEXITSTATUS(c.status) : 128) + "}";
  }
  return out + "]";
}

/// `ccgraph serve --shards 2`: this process is the aggregator and forks
/// kShards workers of itself. Ready = listener bound, workers spawned and
/// connected, service and store writer open. Aggregator::handshake is timed
/// inside the run because a worker sends its hello only after parsing its
/// log. A window's input is complete when the aggregator hands the merged
/// window to its sink.
int mode_serve(const Args& args) {
  Run run(args);
  const GraphBuildConfig config = graph_config(args);
  auto listener = net::Listener::bind_loopback();
  if (!listener) {
    std::fprintf(stderr, "perfbench: cannot bind listener\n");
    return 1;
  }
  // Every worker's argv is built before any fork: only async-signal-safe
  // calls may run between fork and exec.
  std::vector<std::vector<std::string>> cmds(static_cast<std::size_t>(kShards));
  for (long i = 0; i < kShards; ++i) {
    auto& cmd = cmds[static_cast<std::size_t>(i)];
    cmd = {"perfbench", "worker", "--in", args.get_or("in", ""), "--connect",
           std::to_string(listener->port()), "--shard", std::to_string(i),
           "--window", std::to_string(config.window_minutes)};
    for (const char* key : {"threads", "simd", "launch-ns"}) {
      if (const auto v = args.get(key)) {
        cmd.push_back(std::string("--") + key);
        cmd.push_back(*v);
      }
    }
    for (const char* key : {"result", "trace"}) {
      if (const auto v = args.get(key)) {
        cmd.push_back(std::string("--") + key);
        cmd.push_back(*v + ".w" + std::to_string(i));
      }
    }
  }
  std::vector<std::vector<char*>> argvs;
  for (auto& cmd : cmds) {
    std::vector<char*> argv;
    for (auto& s : cmd) argv.push_back(s.data());
    argv.push_back(nullptr);
    argvs.push_back(std::move(argv));
  }
  std::vector<Child> children;
  for (auto& argv : argvs) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      reap(children, true);
      return 1;
    }
    if (pid == 0) {
      ::execv("/proc/self/exe", argv.data());
      ::_exit(127);
    }
    children.push_back({pid});
  }
  std::vector<net::FrameConn> conns;
  for (long i = 0; i < kShards; ++i) {
    auto conn = listener->accept(300000);
    if (!conn) {
      std::fprintf(stderr, "perfbench: worker accept failed\n");
      reap(children, true);
      return 1;
    }
    conns.push_back(std::move(*conn));
  }
  Reporter reporter;
  auto writer =
      store::StoreWriter::open(args.get_or("store", ""), {.keyframe_interval = 8});
  if (!writer) {
    std::fprintf(stderr, "perfbench: cannot open store\n");
    reap(children, true);
    return 1;
  }
  // The sink: the product's service appending to the store itself, or the
  // re-composed stages with the append timed from outside.
  std::optional<AnalyticsService> service;
  std::optional<TracedAnalysis> analysis;
  if (run.recompose()) {
    analysis.emplace();
  } else {
    service.emplace(service_options(config), std::unordered_set<IpAddr>{},
                    [&](const WindowReport& r) { reporter.deliver(r); });
    service->set_store(&*writer);
  }
  dist::Aggregator aggregator({.graph = config,
                               .recv_timeout_ms = 300000,
                               .flight_dir = args.get_or("flight-dir", "")},
                              std::move(conns));
  run.ready();
  if (run.probe()) {
    reap(children, true);
    return run.finish(reporter, "analyzed");
  }
  std::int64_t handshake_ns = now_ns();
  bool ok;
  {
    Span s("dist.handshake");
    ok = aggregator.handshake();
  }
  handshake_ns = now_ns() - handshake_ns;
  std::optional<dist::Aggregator::Result> merged;
  std::vector<double> wait_ms;
  if (ok) {
    // Time outside the sink is the aggregator's barrier wait plus merge;
    // under tracing it is the self time of the "dist.merge_loop" span.
    Span loop("dist.merge_loop");
    std::int64_t last = now_ns();
    merged = aggregator.run([&](const CommGraph& graph) {
      reporter.input_ns = now_ns();
      wait_ms.push_back(static_cast<double>(reporter.input_ns - last) / 1e6);
      if (analysis) {
        {
          Span s("store.append", graph.window().begin().index());
          writer->append(graph);
        }
        analysis->window(graph, reporter);
      } else {
        service->ingest_window(graph);
      }
      last = now_ns();
    });
  }
  writer->close();
  reap(children, !ok || !merged);
  run.result.num("store_bytes_per_window", writer->stats().bytes_per_window());
  run.result.num("handshake_s", static_cast<double>(handshake_ns) / 1e9);
  run.result.list("window_wait_ms", wait_ms);
  run.result.raw("workers", children_json(children));
  int rc = run.finish(reporter, "analyzed");
  if (!ok || !merged) {
    std::fprintf(stderr, "perfbench: aggregation failed\n");
    return 1;
  }
  for (const Child& c : children) {
    if (!WIFEXITED(c.status) || WEXITSTATUS(c.status) != 0) rc = 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  const Args args(argc - 2, argv + 2);
  if (const long threads = args.get_long("threads", 0); threads > 0) {
    parallel::set_thread_count(static_cast<int>(threads));
  }
  if (const auto tier = args.get("simd"); tier && !simd::set_tier(*tier)) {
    std::fprintf(stderr, "perfbench: unknown --simd tier '%s'\n", tier->c_str());
    return 2;
  }
  try {
    if (mode == "generate") return mode_generate(args);
    if (mode == "anomaly") return mode_anomaly(args);
    if (mode == "replay") return mode_replay(args);
    if (mode == "serve") return mode_serve(args);
    if (mode == "worker") return mode_worker(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return usage();
}
