#include "ccg/dist/aggregator.hpp"

#include <chrono>
#include <limits>
#include <string>
#include <utility>

#include "ccg/obs/fleet.hpp"
#include "ccg/obs/flight.hpp"
#include "ccg/obs/log.hpp"
#include "ccg/obs/span.hpp"
#include "ccg/obs/trace.hpp"
#include "ccg/store/format.hpp"

namespace ccg::dist {

Aggregator::Aggregator(AggregatorOptions options,
                       std::vector<net::FrameConn> conns)
    : options_(std::move(options)), incoming_(std::move(conns)) {
  obs::Registry& registry = obs::Registry::global();
  m_windows_merged_ = &registry.counter("ccg.dist.agg.windows_merged");
  m_frames_ = &registry.counter("ccg.dist.agg.frames_received");
  m_telemetry_ = &registry.counter("ccg.dist.agg.telemetry_frames");
  m_pending_hwm_ = &registry.gauge("ccg.dist.agg.queue_depth_hwm");
  m_merge_wait_ = &obs::span_histogram("ccg.dist.agg.merge_wait");
  m_merge_ = &obs::span_histogram("ccg.dist.agg.window_merge");
  shards_.resize(incoming_.size());
  registry.gauge("ccg.dist.shards").set(static_cast<double>(shards_.size()));
}

bool Aggregator::handshake() {
  const WireConfig expected = wire_config(options_.graph);
  for (net::FrameConn& conn : incoming_) {
    std::vector<std::uint8_t> payload;
    const net::RecvStatus status = conn.recv(payload, options_.recv_timeout_ms);
    if (status != net::RecvStatus::kOk) {
      fail(0, "no hello from shard", 0);
      return false;
    }
    const auto hello = decode_hello(payload);
    if (!hello || hello->version != kWireVersion) {
      obs::log_error("dist: handshake version mismatch — refusing shard",
                     {obs::field("got_version", hello ? hello->version : 0),
                      obs::field("want_version", kWireVersion)});
      conn.close();  // no ack: the shard reads this as refusal
      return false;
    }
    if (hello->shard_count != shards_.size() ||
        hello->shard_id >= shards_.size() ||
        shards_[hello->shard_id].conn.valid() ||
        !(hello->config == expected)) {
      obs::log_error("dist: handshake config mismatch — refusing shard",
                     {obs::field("announced_shard", hello->shard_id),
                      obs::field("announced_count", hello->shard_count),
                      obs::field("want_count", shards_.size())});
      conn.close();
      return false;
    }
    // Workers race to connect, so arrival order is arbitrary: the hello's
    // shard id decides the slot, which keeps the merge order (ascending
    // shard id) independent of connection timing.
    const std::size_t s = hello->shard_id;
    shards_[s].conn = std::move(conn);
    shards_[s].conn.set_shard(static_cast<int>(s));
    if (!shards_[s].conn.send(encode_hello_ack())) {
      fail(s, "hello ack send failed", 0);
      return false;
    }
  }
  incoming_.clear();
  return true;
}

bool Aggregator::advance(std::size_t s) {
  ShardState& shard = shards_[s];
  while (!shard.done && !shard.head) {
    std::vector<std::uint8_t> payload;
    const net::RecvStatus status =
        shard.conn.recv(payload, options_.recv_timeout_ms);
    if (status != net::RecvStatus::kOk) {
      // A clean EOF without kEndOfStream is a crashed shard: its final
      // windows may be missing, so the run cannot be trusted.
      fail(s,
           status == net::RecvStatus::kTimeout ? "shard timed out"
           : status == net::RecvStatus::kEof   ? "shard closed without end-of-stream"
                                               : "shard stream error",
           0);
      return false;
    }
    m_frames_->add();
    switch (peek_type(payload).value_or(static_cast<MsgType>(0))) {
      case MsgType::kWindow: {
        auto frame = decode_window(payload);
        if (!frame || frame->shard_id != s) {
          fail(s, "undecodable window frame", 0);
          return false;
        }
        // The shipped trace id must be the deterministic one — a mismatch
        // means the processes disagree about window identity.
        if (frame->trace_id != obs::window_trace_id(frame->window_begin)) {
          fail(s, "window trace id mismatch", frame->window_begin);
          return false;
        }
        // Windows must arrive in increasing order per shard; the barrier
        // relies on it.
        shard.head = std::move(*frame);
        break;
      }
      case MsgType::kEndOfStream: {
        const auto eos = decode_end_of_stream(payload);
        if (!eos || eos->shard_id != s || eos->windows != shard.merged) {
          fail(s, "inconsistent end-of-stream", 0);
          return false;
        }
        shard.records = eos->records;
        shard.done = true;
        break;
      }
      case MsgType::kTelemetry: {
        // Out-of-band: stored in the fleet registry and the barrier loop
        // keeps reading. A malformed frame still fails the run — the
        // transport is supposed to be clean.
        auto frame = decode_telemetry(payload);
        if (!frame || frame->shard_id != s) {
          fail(s, "undecodable telemetry frame", 0);
          return false;
        }
        obs::FleetRegistry& fleet = obs::FleetRegistry::global();
        fleet.apply(frame->shard_id, std::move(frame->metrics));
        if (!frame->spans.empty()) {
          fleet.add_spans(frame->shard_id, frame->spans);
        }
        m_telemetry_->add();
        break;
      }
      default:
        fail(s, "unexpected message type", 0);
        return false;
    }
  }
  return true;
}

std::optional<Aggregator::Result> Aggregator::run(const WindowSink& sink) {
  Result result;
  std::int64_t last_window = std::numeric_limits<std::int64_t>::min();
  for (;;) {
    // Barrier: learn every live shard's next window (or its end-of-stream)
    // before deciding what to merge. The wait is how long the slowest
    // shard held this window back, tracked per window.
    {
      obs::ScopedSpan wait(*m_merge_wait_, "ccg.dist.agg.merge_wait");
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        if (!advance(s)) return std::nullopt;
      }
    }

    std::int64_t window = std::numeric_limits<std::int64_t>::max();
    std::size_t pending = 0;
    for (const ShardState& shard : shards_) {
      if (shard.head) {
        ++pending;
        window = std::min(window, shard.head->window_begin);
      }
    }
    m_pending_hwm_->update_max(static_cast<double>(pending));
    if (pending == 0) break;  // every shard done and drained

    if (window <= last_window) {
      // Out-of-order shipment breaks the barrier invariant.
      fail(0, "window order violation", window);
      return std::nullopt;
    }
    last_window = window;

    const std::uint64_t trace_id = obs::window_trace_id(window);
    obs::TraceScope trace({trace_id, 0});
    obs::ScopedSpan span(*m_merge_, "ccg.dist.agg.window_merge");

    // Ascending shard order: merge order is part of the determinism
    // contract (merge_graphs assigns NodeIds in first-seen order, and the
    // canonical pass needs identical inputs to be provably identical).
    std::vector<CommGraph> parts;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      ShardState& shard = shards_[s];
      if (!shard.head || shard.head->window_begin != window) continue;
      auto part = store::decode_frame(shard.head->keyframe, CommGraph());
      if (!part || part->window().begin().index() != window) {
        fail(s, "undecodable window keyframe", window);
        return std::nullopt;
      }
      ++shard.merged;
      parts.push_back(std::move(*part));
      shard.head.reset();
    }
    const CommGraph merged =
        finalize_window_graph(merge_graphs(parts), options_.graph);
    sink(merged);
    ++result.windows;
    m_windows_merged_->add();
  }

  for (const ShardState& shard : shards_) result.records += shard.records;
  return result;
}

void Aggregator::fail(std::size_t shard, const char* reason,
                      std::int64_t window_begin) {
  const std::uint64_t trace_id =
      window_begin != 0 ? obs::window_trace_id(window_begin) : 0;
  obs::log_error("dist: aggregation failed — aborting run",
                 {obs::field("shard", shard), obs::field("reason", reason),
                  obs::field("window_begin", window_begin),
                  obs::field("trace", trace_id)});
  const std::string dir = options_.flight_dir.empty() ? "." : options_.flight_dir;
  const std::string path = obs::dump_flight_record(
      dir, "shard-failure", trace_id,
      "shard " + std::to_string(shard) + ": " + reason);
  if (!path.empty()) {
    obs::log_error("dist: flight record dumped", {obs::field("path", path)});
  }
}

}  // namespace ccg::dist
