// Fleet-side state of the telemetry shipped by shard workers. The
// aggregator decodes each kTelemetry frame and feeds its pieces here: the
// shard's cumulative metrics snapshot replaces the one it shipped before
// (the last write wins), and shipped spans are collected for the merged
// multi-process Chrome trace.
//
// The registry renders back out as a Snapshot whose every sample carries
// its shard number, sorted by (name, shard), so the Prometheus exposition
// shows one `shard="N"` series per shard per metric:
//
//   ccg_dist_shard_records_total{shard="0"} 512
//   ccg_dist_shard_records_total{shard="1"} 488
//
// Everything is process-local state owned by the aggregator; shard
// workers never read it. Thread-safe (the ops endpoint scrapes from its
// own thread while the aggregator applies frames).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "ccg/obs/metrics.hpp"
#include "ccg/obs/span.hpp"

namespace ccg::obs {

class FleetRegistry {
 public:
  static FleetRegistry& global();

  /// Stores one shard's shipped metrics, a cumulative snapshot of its
  /// registry, in place of the one it shipped before: the last write
  /// wins, so a repeated frame changes nothing.
  void apply(std::uint32_t shard, Snapshot snapshot);

  /// Retains shipped spans for the merged trace, up to `span_capacity()`
  /// per shard; overflow is counted, newest spans dropped.
  void add_spans(std::uint32_t shard, const std::vector<TraceEvent>& spans);

  /// Every shard's latest series as a Snapshot whose samples carry their
  /// shard number, sorted by (name, shard).
  Snapshot labeled_snapshot() const;

  /// Shipped spans grouped by shard, ascending shard id.
  std::vector<std::pair<std::uint32_t, std::vector<TraceEvent>>> spans_by_shard()
      const;

  /// Spans dropped for one shard (ring overflow at either end: the
  /// shard's own TraceRing drops are shipped inside frames and added to
  /// local overflow).
  std::size_t spans_dropped(std::uint32_t shard) const;

  /// Number of telemetry frames applied (all shards).
  std::uint64_t frames_applied() const;

  void clear();

  static constexpr std::size_t span_capacity() { return 8192; }

 private:
  FleetRegistry() = default;

  struct ShardSpans {
    std::vector<TraceEvent> spans;
    std::size_t dropped = 0;
  };

  mutable std::mutex mutex_;
  std::map<std::uint32_t, Snapshot> metrics_;  // latest per shard
  std::map<std::uint32_t, ShardSpans> spans_;
  std::uint64_t frames_ = 0;
};

/// What this process exports: the global registry's snapshot merged with
/// the fleet's shard series, which exist once a telemetry frame has been
/// applied (on `serve`'s aggregator). Per metric name the local series
/// leads its shard siblings, so `to_prometheus` gives each family one
/// header block. The one view behind `--metrics-out`, `--metrics-prom`,
/// `/metrics` and every flight record.
Snapshot process_snapshot();

}  // namespace ccg::obs
