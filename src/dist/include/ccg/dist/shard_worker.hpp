// The shard-worker role of the distributed collector (docs/DISTRIBUTED.md).
//
// A ShardWorker is a TelemetrySink that keeps only its own partition of
// the record stream (shard_of_record), builds per-window *partial* graphs
// (collapse disabled: traffic shares are meaningless on a partition), and
// ships each closed window to the aggregator as a canonical keyframe
// tagged with shard id, window begin and the deterministic window trace id.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "ccg/dist/wire.hpp"
#include "ccg/graph/builder.hpp"
#include "ccg/net/frame.hpp"
#include "ccg/obs/metrics.hpp"
#include "ccg/telemetry/collector.hpp"

namespace ccg::dist {

struct ShardWorkerOptions {
  std::uint32_t shard_id = 0;
  std::uint32_t shard_count = 1;
  /// The *full* job config (including collapse): announced in the
  /// handshake so aggregator and shards provably agree; the local builder
  /// runs with collapse disabled regardless.
  GraphBuildConfig graph;
};

class ShardWorker : public TelemetrySink {
 public:
  ShardWorker(ShardWorkerOptions options, std::unordered_set<IpAddr> monitored,
              net::FrameConn conn);

  /// Sends kHello and waits for kHelloAck. False (with a structured log
  /// record) when the aggregator refuses or the transport fails.
  bool handshake();

  /// TelemetrySink hook: ingests this shard's records, ships any windows
  /// the minute advance closed, then one kTelemetry frame if a window went
  /// out. Transport errors surface in finish().
  void on_batch(MinuteBucket time,
                const std::vector<ConnectionSummary>& batch) override;

  /// Closes the final window, ships it and a last kTelemetry frame, sends
  /// kEndOfStream. False if any window ship failed (the aggregator is gone
  /// or refused).
  bool finish();

  std::uint64_t records() const { return records_; }
  std::uint64_t windows_shipped() const { return windows_; }
  std::uint64_t telemetry_shipped() const { return telemetry_; }

 private:
  bool ship_closed_windows();
  /// Ships one out-of-band kTelemetry frame: the registry's cumulative
  /// snapshot plus the trace spans recorded since the last shipment.
  /// Best-effort — a failed ship is logged but never fails the worker
  /// (telemetry must not affect the data-plane contract).
  void ship_telemetry();

  ShardWorkerOptions options_;
  GraphBuilder builder_;
  net::FrameConn conn_;
  std::vector<ConnectionSummary> scratch_;  // reused per-batch filter buffer
  std::uint64_t records_ = 0;
  std::uint64_t windows_ = 0;
  bool failed_ = false;

  std::uint64_t telemetry_ = 0;         // frames shipped so far
  std::size_t spans_seen_ = 0;          // TraceRing events()+dropped() shipped

  obs::Counter* m_records_ = nullptr;   // ccg.dist.shard.records
  obs::Counter* m_windows_ = nullptr;   // ccg.dist.shard.windows_shipped
  obs::Counter* m_bytes_ = nullptr;     // ccg.dist.shard.bytes_shipped
  obs::Counter* m_telemetry_ = nullptr; // ccg.dist.shard.telemetry_frames
  obs::Histogram* m_ship_ = nullptr;    // ccg.dist.shard.ship.seconds
};

}  // namespace ccg::dist
