#include "ccg/dist/shard_worker.hpp"

#include <algorithm>
#include <utility>

#include "ccg/obs/log.hpp"
#include "ccg/obs/span.hpp"
#include "ccg/obs/trace.hpp"
#include "ccg/store/format.hpp"

namespace ccg::dist {

namespace {

/// Shards build partial graphs: same facet and window length as the job,
/// collapse off. The aggregator collapses after the merge, as the
/// single-process GraphBuilder does at window close.
GraphBuildConfig partial_config(const GraphBuildConfig& job) {
  GraphBuildConfig config = job;
  config.collapse_threshold = 0.0;
  return config;
}

}  // namespace

ShardWorker::ShardWorker(ShardWorkerOptions options,
                         std::unordered_set<IpAddr> monitored,
                         net::FrameConn conn)
    : options_(options),
      builder_(partial_config(options.graph), std::move(monitored)),
      conn_(std::move(conn)) {
  conn_.set_shard(static_cast<int>(options_.shard_id));
  // No shard id in the names: the aggregator's fleet registry labels every
  // series a worker ships with shard="<id>".
  obs::Registry& registry = obs::Registry::global();
  m_records_ = &registry.counter("ccg.dist.shard.records");
  m_windows_ = &registry.counter("ccg.dist.shard.windows_shipped");
  m_bytes_ = &registry.counter("ccg.dist.shard.bytes_shipped");
  m_telemetry_ = &registry.counter("ccg.dist.shard.telemetry_frames");
  m_ship_ = &obs::span_histogram("ccg.dist.shard.ship");
}

bool ShardWorker::handshake() {
  Hello hello;
  hello.shard_id = options_.shard_id;
  hello.shard_count = options_.shard_count;
  hello.config = wire_config(options_.graph);
  if (!conn_.send(encode_hello(hello))) {
    failed_ = true;
    return false;
  }
  std::vector<std::uint8_t> payload;
  const net::RecvStatus status = conn_.recv(payload);
  if (status != net::RecvStatus::kOk || !decode_hello_ack(payload)) {
    // A clean EOF here is the aggregator's refusal (version or config
    // mismatch): it closes without acking.
    obs::log_error("dist: handshake refused by aggregator",
                   {obs::field("shard", options_.shard_id),
                    obs::field("peer", conn_.peer()),
                    obs::field("recv_status", static_cast<int>(status))});
    failed_ = true;
    return false;
  }
  return true;
}

void ShardWorker::on_batch(MinuteBucket time,
                           const std::vector<ConnectionSummary>& batch) {
  scratch_.clear();
  for (const ConnectionSummary& record : batch) {
    if (shard_of_record(record, options_.graph.facet, options_.shard_count) ==
        options_.shard_id) {
      scratch_.push_back(record);
    }
  }
  records_ += scratch_.size();
  m_records_->add(scratch_.size());
  builder_.on_batch(time, scratch_);
  const std::uint64_t shipped_before = windows_;
  if (!ship_closed_windows()) failed_ = true;
  // Telemetry rides on window traffic: the aggregator sees fresh
  // per-shard series at window granularity without a timer.
  if (windows_ > shipped_before) ship_telemetry();
}

bool ShardWorker::ship_closed_windows() {
  static const CommGraph empty_base;
  bool ok = true;
  for (const CommGraph& graph : builder_.take_graphs()) {
    const std::int64_t begin = graph.window().begin().index();
    WindowFrame frame;
    frame.shard_id = options_.shard_id;
    frame.window_begin = begin;
    frame.trace_id = obs::window_trace_id(begin);
    // The ship span belongs to the window being shipped; the aggregator
    // re-installs the same trace id around its merge, so the distributed
    // window's spans line up across processes.
    obs::TraceScope trace({frame.trace_id, 0});
    obs::ScopedSpan span(*m_ship_, "ccg.dist.shard.ship");
    frame.keyframe =
        store::encode_frame(store::FrameKind::kKeyframe, empty_base, graph);
    const std::vector<std::uint8_t> payload = encode_window(frame);
    if (!conn_.send(payload)) {
      obs::log_error("dist: window ship failed",
                     {obs::field("shard", options_.shard_id),
                      obs::field("window_begin", begin),
                      obs::field("trace", frame.trace_id)});
      ok = false;
      continue;
    }
    ++windows_;
    m_windows_->add();
    m_bytes_->add(payload.size());
  }
  return ok;
}

void ShardWorker::ship_telemetry() {
  // Counted before the snapshot, so each frame carries its own count and
  // the aggregator's per-shard series sum to the frames it applied.
  m_telemetry_->add();
  TelemetryFrame frame;
  frame.shard_id = options_.shard_id;
  frame.metrics = obs::Registry::global().snapshot();
  // Series that never recorded anything stay off the wire and out of the
  // aggregator's fleet view.
  std::erase_if(frame.metrics.counters,
                [](const obs::CounterSample& c) { return c.value == 0; });
  std::erase_if(frame.metrics.histograms,
                [](const obs::HistogramSample& h) { return h.count == 0; });

  obs::TraceRing& traces = obs::TraceRing::global();
  const std::vector<obs::TraceEvent> retained_spans = traces.events();
  const std::size_t spans_total = retained_spans.size() + traces.dropped();
  if (spans_total > spans_seen_) {
    const std::size_t fresh =
        std::min(spans_total - spans_seen_, retained_spans.size());
    frame.spans.assign(
        retained_spans.end() - static_cast<std::ptrdiff_t>(fresh),
        retained_spans.end());
  }

  if (!conn_.send(encode_telemetry(frame))) {
    // Out-of-band: a lost telemetry frame never fails the worker. The next
    // frame restates the metrics, and the span cursor is not advanced, so
    // these spans ride it too.
    obs::log_warn("dist: telemetry ship failed",
                  {obs::field("shard", options_.shard_id)});
    return;
  }
  ++telemetry_;
  spans_seen_ = spans_total;
}

bool ShardWorker::finish() {
  builder_.flush();
  if (!ship_closed_windows()) failed_ = true;
  ship_telemetry();
  EndOfStream eos;
  eos.shard_id = options_.shard_id;
  eos.records = records_;
  eos.windows = windows_;
  if (!conn_.send(encode_end_of_stream(eos))) failed_ = true;
  if (failed_) {
    obs::log_error("dist: shard worker finished with transport errors",
                   {obs::field("shard", options_.shard_id),
                    obs::field("records", records_),
                    obs::field("windows", windows_)});
  }
  return !failed_;
}

}  // namespace ccg::dist
