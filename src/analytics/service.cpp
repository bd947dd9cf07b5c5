#include "ccg/analytics/service.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "ccg/common/expect.hpp"
#include "ccg/obs/flight.hpp"
#include "ccg/obs/span.hpp"
#include "ccg/obs/trace.hpp"

namespace ccg {

AnalyticsService::AnalyticsService(AnalyticsServiceOptions options,
                                   std::unordered_set<IpAddr> monitored,
                                   ReportCallback on_report)
    : options_(options),
      on_report_(std::move(on_report)),
      builder_(options.graph, std::move(monitored)),
      spectral_(options.spectral),
      edge_detector_(options.edge_detector),
      tracker_(options.segmentation, options.segmentation_options) {
  CCG_EXPECT(options.training_windows >= 1);
  CCG_EXPECT(on_report_ != nullptr);
  obs::Registry& registry = obs::Registry::global();
  m_stage_build_ = &obs::span_histogram("ccg.analytics.stage.build");
  m_stage_spectral_ = &obs::span_histogram("ccg.analytics.stage.spectral");
  m_stage_edges_ = &obs::span_histogram("ccg.analytics.stage.edges");
  m_stage_tracker_ = &obs::span_histogram("ccg.analytics.stage.tracker");
  m_stage_patterns_ = &obs::span_histogram("ccg.analytics.stage.patterns");
  m_spectral_fit_ = &obs::span_histogram("ccg.analytics.spectral_fit");
  m_window_ = &obs::span_histogram("ccg.analytics.window");
  m_windows_ = &registry.counter("ccg.analytics.windows");
  m_window_minutes_ = &registry.gauge("ccg.analytics.window_minutes");
  m_training_windows_ = &registry.counter("ccg.analytics.training_windows");
  m_alerts_ = &registry.counter("ccg.analytics.alerts");
}

void AnalyticsService::on_batch(MinuteBucket time,
                                const std::vector<ConnectionSummary>& batch) {
  {
    obs::ScopedSpan span(*m_stage_build_, "ccg.analytics.stage.build");
    builder_.on_batch(time, batch);
  }
  drain_closed_windows();
}

void AnalyticsService::flush() {
  {
    obs::ScopedSpan span(*m_stage_build_, "ccg.analytics.stage.build");
    builder_.flush();
  }
  drain_closed_windows();
}

void AnalyticsService::drain_closed_windows() {
  for (CommGraph& graph : builder_.take_graphs()) ingest_window(graph);
}

void AnalyticsService::ingest_window(const CommGraph& graph) {
  // The append belongs to the window being closed; deliver() re-installs
  // the same trace, so live, replayed and distributed runs share one id
  // per window.
  obs::TraceScope trace(
      {obs::window_trace_id(graph.window().begin().index()), 0});
  if (store_ != nullptr) store_->append(graph);
  deliver(graph);
}

void AnalyticsService::deliver(const CommGraph& graph) {
  const std::uint64_t trace_id =
      obs::window_trace_id(graph.window().begin().index());
  obs::TraceScope trace({trace_id, 0});
  obs::Watchdog::global().begin_window(trace_id, graph.window().to_string());
  WindowReport report;
  {
    // Root span of the window's tree: every stage span in analyze() nests
    // under it, which is what the trace viewer groups by.
    obs::ScopedSpan span(*m_window_, "ccg.analytics.window");
    report = analyze(graph);
  }
  obs::Watchdog::global().end_window();
  ++windows_reported_;
  on_report_(report);
}

std::size_t AnalyticsService::replay(store::StoreReader& reader,
                                     std::int64_t t0, std::int64_t t1) {
  std::size_t replayed = 0;
  auto range = reader.range(t0, t1);
  while (const auto graph = range.next()) {
    deliver(*graph);
    ++replayed;
  }
  return replayed;
}

WindowReport AnalyticsService::analyze(const CommGraph& graph) {
  WindowReport report;
  report.window = graph.window();
  report.nodes = graph.node_count();
  report.edges = graph.edge_count();
  report.bytes = graph.total_bytes();

  m_windows_->add();
  // From the window itself: replay analyses the store's windows, whatever
  // the options say.
  m_window_minutes_->set(static_cast<double>(graph.window().length()));

  if (options_.stall_injection_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.stall_injection_ms));
  }

  // These run from window one: they carry their own baselines.
  {
    obs::ScopedSpan span(*m_stage_edges_, "ccg.analytics.stage.edges");
    report.anomalous_edges = edge_detector_.observe(graph);
  }
  {
    obs::ScopedSpan span(*m_stage_tracker_, "ccg.analytics.stage.tracker");
    report.segments = tracker_.observe(graph);
  }
  {
    obs::ScopedSpan span(*m_stage_patterns_, "ccg.analytics.stage.patterns");
    report.patterns = mine_patterns(graph);
  }

  // The spectral detector needs a fitted subspace: accumulate training
  // windows, fit once, then score everything after.
  if (!spectral_.fitted()) {
    m_training_windows_->add();
    training_graphs_.push_back(graph);
    if (training_graphs_.size() >= options_.training_windows) {
      training_refs_.clear();
      for (const CommGraph& g : training_graphs_) training_refs_.push_back(&g);
      obs::ScopedSpan span(*m_spectral_fit_, "ccg.analytics.spectral_fit");
      spectral_.fit(training_refs_);
    }
    report.trained = false;
    return report;
  }

  report.trained = true;
  {
    obs::ScopedSpan span(*m_stage_spectral_, "ccg.analytics.stage.spectral");
    report.anomaly = spectral_.score(graph);
    report.alert = spectral_.is_alert(*report.anomaly);
  }
  if (report.alert) m_alerts_->add();
  return report;
}

std::string WindowReport::summary() const {
  // Edge anomalies by class: new conversations are routine in sparse
  // graphs (the paper's Fig. 5 shows ~5% edge churn per hour); shifts and
  // disappearances on established edges are the alarm-grade classes.
  std::size_t new_edges = 0, shifts = 0, gone = 0;
  for (const auto& e : anomalous_edges) {
    if (e.new_edge) {
      ++new_edges;
    } else if (e.vanished) {
      ++gone;
    } else {
      ++shifts;
    }
  }
  char buf[340];
  std::snprintf(
      buf, sizeof(buf),
      "%s: %zu nodes / %zu edges / %llu bytes; %s%s; edges %zu new / %zu "
      "shifted / %zu gone; segment churn %.1f%%; hubs %.0f%% cliques %.0f%% "
      "of bytes",
      window.to_string().c_str(), nodes, edges,
      static_cast<unsigned long long>(bytes),
      trained ? (alert ? "ALERT" : "ok") : "training",
      trained && anomaly ? (" (z=" + std::to_string(anomaly->zscore) + ")").c_str()
                         : "",
      new_edges, shifts, gone, 100.0 * segments.label_churn,
      100.0 * patterns.hub_byte_share, 100.0 * patterns.clique_byte_share);
  return buf;
}

}  // namespace ccg
