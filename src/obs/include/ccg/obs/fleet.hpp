// Fleet-side accumulator for telemetry shipped by shard workers. The
// aggregator decodes each kTelemetry frame and feeds its pieces here:
// metric deltas are merged into per-(metric, shard) series, and shipped
// spans are collected for the merged multi-process Chrome trace. (Shipped
// log records are not kept: the aggregator mirrors them to stderr.)
//
// The registry renders back out as a *labeled* Snapshot: every sample
// carries a `shard="N"` label, sorted by (name, numeric shard), so the
// Prometheus exposition shows one series per shard per metric:
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
#include <string>
#include <utility>
#include <vector>

#include "ccg/obs/metrics.hpp"
#include "ccg/obs/span.hpp"

namespace ccg::obs {

class FleetRegistry {
 public:
  static FleetRegistry& global();

  /// Merges one shipped metrics delta: counters accumulate, gauges are
  /// last-write, histogram bucket occupancies / count / sum accumulate
  /// (min/max are last-write — the shipper sends running values). A
  /// histogram whose bucket layout changed replaces the stored series.
  void apply(std::uint32_t shard, const Snapshot& delta);

  /// Retains shipped spans for the merged trace, up to `span_capacity()`
  /// per shard; overflow is counted, newest spans dropped.
  void add_spans(std::uint32_t shard, const std::vector<TraceEvent>& spans);

  /// All accumulated series as a Snapshot whose samples carry a
  /// `shard="N"` label, sorted by (name, numeric shard). Histogram
  /// quantiles are recomputed from the accumulated buckets.
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

  /// True once any telemetry has been applied.
  bool active() const;

  void clear();

  static constexpr std::size_t span_capacity() { return 8192; }

 private:
  FleetRegistry() = default;

  struct HistogramState {
    std::vector<std::pair<double, std::uint64_t>> buckets;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  struct ShardSpans {
    std::vector<TraceEvent> spans;
    std::size_t dropped = 0;
  };

  mutable std::mutex mutex_;
  std::map<std::string, std::map<std::uint32_t, std::uint64_t>> counters_;
  std::map<std::string, std::map<std::uint32_t, double>> gauges_;
  std::map<std::string, std::map<std::uint32_t, HistogramState>> histograms_;
  std::map<std::uint32_t, ShardSpans> spans_;
  std::uint64_t frames_ = 0;
};

/// Merges a process-local (unlabeled) snapshot with the fleet's labeled
/// snapshot for a single exposition: samples are interleaved per metric
/// name with the unlabeled series first, then shard series ascending —
/// so `to_prometheus` groups them under one HELP/TYPE header block.
Snapshot merge_snapshots(const Snapshot& local, const Snapshot& fleet);

}  // namespace ccg::obs
