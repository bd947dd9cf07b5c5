// The graph snapshot store: an append-only, delta-encoded window log.
//
// Every analysis in this repo that makes the paper's "dynamic" claim real
// (temporal stability, drift detection, counterfactual replay, AutoNet-style
// long-horizon policy observation) needs cheap access to many historical
// windows. The store persists each closed window as one binary frame —
// a full keyframe every K windows, GraphPatch deltas in between — in a
// segment log with a side index, so a time-range query materializes graphs
// by seeking to the nearest keyframe and rolling deltas forward.
//
// Layout of a store directory (format spec: docs/STORE.md):
//   seg-000000.ccgs   segment log: 8-byte magic, then CRC-framed frames
//   seg-000001.ccgs   (each segment starts with a keyframe)
//   index.ccgx        side index: window_begin -> (segment, offset, kind)
//
// The index is a cache: a reader rebuilds it by scanning segments when it
// is missing or disagrees with the segment files (e.g. after a crash).
#pragma once

#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ccg/graph/comm_graph.hpp"
#include "ccg/obs/metrics.hpp"
#include "ccg/store/format.hpp"

namespace ccg::store {

struct StoreStats {
  std::size_t windows = 0;
  std::size_t keyframes = 0;
  std::size_t deltas = 0;
  std::size_t segments = 0;
  std::uint64_t bytes_on_disk = 0;  // segments + index
  std::int64_t first_window_begin = 0;  // valid when windows > 0
  std::int64_t last_window_begin = 0;

  double bytes_per_window() const {
    return windows == 0 ? 0.0
                        : static_cast<double>(bytes_on_disk) /
                              static_cast<double>(windows);
  }
  std::string to_string() const;
};

/// One frame's index record.
struct IndexEntry {
  std::int64_t window_begin = 0;
  std::int64_t window_len = 0;
  std::uint32_t segment = 0;
  std::uint64_t offset = 0;  // frame start (length prefix) within the segment
  std::uint64_t length = 0;  // total framed bytes (len + payload + crc)
  FrameKind kind = FrameKind::kKeyframe;
};

struct WriterOptions {
  /// A full keyframe every K frames; deltas in between. 1 disables delta
  /// encoding entirely (every frame self-contained).
  std::size_t keyframe_interval = 8;
  /// Segments roll at the first keyframe past this size.
  std::uint64_t segment_bytes = 64ull << 20;
};

/// Appends closed windows to a store directory. Windows must arrive in
/// strictly increasing window_begin order (the builder/aggregator guarantee).
/// Reopening an existing store appends a fresh segment, so a torn tail
/// from a crashed writer can never corrupt new data.
class StoreWriter {
 public:
  static std::optional<StoreWriter> open(const std::string& dir,
                                         WriterOptions options = {});
  ~StoreWriter();
  StoreWriter(StoreWriter&&) = default;
  StoreWriter& operator=(StoreWriter&&) = default;
  StoreWriter(const StoreWriter&) = delete;
  StoreWriter& operator=(const StoreWriter&) = delete;

  /// Appends one window. Returns false on out-of-order windows or I/O
  /// failure (the store is left consistent either way).
  bool append(const CommGraph& graph);

  /// Flushes the open segment and rewrites the side index.
  bool flush();
  /// flush() + stop accepting appends. Called by the destructor.
  void close();

  StoreStats stats() const;
  const std::string& dir() const { return dir_; }

 private:
  StoreWriter(std::string dir, WriterOptions options);
  bool roll_segment();
  bool write_index() const;

  std::string dir_;
  WriterOptions options_;
  std::vector<IndexEntry> entries_;
  std::unique_ptr<std::ofstream> segment_;  // unique_ptr keeps us movable
  std::uint32_t segment_id_ = 0;
  std::uint64_t segment_offset_ = 0;
  std::uint64_t prior_bytes_ = 0;  // closed segments, from earlier sessions
  std::size_t frames_since_keyframe_ = 0;
  std::optional<CommGraph> last_graph_;
  bool closed_ = false;

  obs::Histogram* m_append_ = nullptr;       // ccg.store.append.seconds
  obs::Counter* m_keyframes_ = nullptr;      // ccg.store.frames.keyframe
  obs::Counter* m_deltas_ = nullptr;         // ccg.store.frames.delta
  obs::Counter* m_bytes_written_ = nullptr;  // ccg.store.bytes_written
  obs::Gauge* m_bytes_on_disk_ = nullptr;    // ccg.store.bytes_on_disk
  obs::Gauge* m_windows_ = nullptr;          // ccg.store.windows
};

/// Reads a store directory. The entry list is loaded (or rebuilt) at
/// open(); graphs are materialized lazily per range.
class StoreReader {
 public:
  static std::optional<StoreReader> open(const std::string& dir);

  /// All frames, oldest first.
  const std::vector<IndexEntry>& entries() const { return entries_; }

  /// Iterator over windows with t0 <= window_begin < t1, oldest first.
  /// Materializes each graph by seeking to the governing keyframe and
  /// applying deltas forward; consecutive next() calls share that state,
  /// so a full scan decodes every frame exactly once.
  class Range {
   public:
    std::optional<CommGraph> next();

   private:
    friend class StoreReader;
    Range(const StoreReader* reader, std::size_t index, std::size_t end);
    const StoreReader* reader_;
    std::size_t index_;  // next entry to yield
    std::size_t end_;
    std::optional<CommGraph> base_;  // graph of entries_[index_ - 1]
    std::unique_ptr<std::ifstream> stream_;
    std::uint32_t stream_segment_ = 0;
  };

  Range range(std::int64_t t0 = std::numeric_limits<std::int64_t>::min(),
              std::int64_t t1 = std::numeric_limits<std::int64_t>::max()) const;

  StoreStats stats() const;
  const std::string& dir() const { return dir_; }

 private:
  explicit StoreReader(std::string dir) : dir_(std::move(dir)) {}

  std::string dir_;
  std::vector<IndexEntry> entries_;
  std::uint64_t bytes_on_disk_ = 0;
  std::size_t segment_count_ = 0;
};

struct CompactOptions {
  std::size_t keyframe_interval = 8;
  std::uint64_t segment_bytes = 64ull << 20;
  /// Retention horizon: windows with window_begin < retain_from are dropped.
  std::int64_t retain_from = std::numeric_limits<std::int64_t>::min();
};

/// Rewrites the store: re-keyframes at the new interval and drops windows
/// past the retention horizon. Returns the new stats, or nullopt when the
/// store cannot be read or rewritten.
std::optional<StoreStats> compact_store(const std::string& dir,
                                        CompactOptions options = {});

}  // namespace ccg::store
