// Streaming graph construction from connection summaries (paper §3.2).
//
// "Naively, this is a group-by-aggregation query": we accumulate byte,
// packet and connection counters per directed node pair, merge the two
// sides' reports at window close (both endpoints of an intra-subscription
// flow log the same conversation), and collapse heavy-hitter losers —
// remote IPs below a traffic share threshold become one <other> node, which
// is how the paper keeps Table 1's graphs bounded.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ccg/graph/comm_graph.hpp"
#include "ccg/obs/metrics.hpp"
#include "ccg/obs/span.hpp"
#include "ccg/telemetry/collector.hpp"
#include "ccg/telemetry/record.hpp"

namespace ccg {

enum class GraphFacet {
  kIp,       // nodes are IP addresses
  kIpPort,   // nodes are (IP, port) tuples — one order of magnitude larger
  // The paper's "nodes ... can also be services": the serving side keeps
  // its (IP, service-port) identity while the client side collapses to its
  // IP — a VM running several services becomes several server nodes
  // ("resources may have multiple roles") without the ephemeral-port blowup
  // of the full IP-port facet.
  kService,
};

struct GraphBuildConfig {
  GraphFacet facet = GraphFacet::kIp;

  /// Window length; each completed window yields one CommGraph.
  std::int64_t window_minutes = 60;

  /// A node survives collapsing if it contributes at least this share of
  /// the window's bytes, packets OR connection-minutes (paper: 0.1%).
  /// 0 disables collapsing.
  double collapse_threshold = 0.0;
};

/// Accumulates a stream of summaries into a series of per-window graphs.
/// Batches must arrive in non-decreasing minute order (the TelemetryHub
/// guarantees this).
class GraphBuilder : public TelemetrySink {
 public:
  GraphBuilder(GraphBuildConfig config, std::unordered_set<IpAddr> monitored);

  /// TelemetrySink hook: ingest one minute's batch.
  void on_batch(MinuteBucket time, const std::vector<ConnectionSummary>& batch) override;

  void ingest(const ConnectionSummary& record);

  /// Closes the current window (if it has data) and appends its graph.
  void flush();

  /// Completed graphs, oldest first. flush() first to include the window
  /// in progress.
  const std::vector<CommGraph>& graphs() const { return graphs_; }
  std::vector<CommGraph> take_graphs();

  const GraphBuildConfig& config() const { return config_; }

 private:
  struct DirKey {
    NodeKey src;
    NodeKey dst;
    friend constexpr auto operator<=>(const DirKey&, const DirKey&) = default;
  };
  struct DirKeyHash {
    std::size_t operator()(const DirKey& k) const noexcept {
      const std::size_t h1 = std::hash<NodeKey>{}(k.src);
      const std::size_t h2 = std::hash<NodeKey>{}(k.dst);
      return h1 ^ (h2 * 0x9E3779B97F4A7C15ull);
    }
  };
  /// Both sides' view of one direction of one node pair's conversation.
  struct DirAccum {
    std::uint64_t src_bytes = 0;   // as reported by the sender's NIC
    std::uint64_t dst_bytes = 0;   // as reported by the receiver's NIC
    std::uint64_t src_packets = 0;
    std::uint64_t dst_packets = 0;
    std::uint32_t src_flow_minutes = 0;
    std::uint32_t dst_flow_minutes = 0;
    /// Flow-minutes in which src held the ephemeral port (initiated the
    /// conversation), as witnessed by src's / dst's own records.
    std::uint32_t src_initiated_src_witness = 0;
    std::uint32_t src_initiated_dst_witness = 0;
    /// First server port seen on this pair (-1 none yet).
    std::int32_t server_port = -1;
    std::int64_t last_minute = std::numeric_limits<std::int64_t>::min();
    std::uint32_t active_minutes = 0;

    void touch(std::int64_t minute) {
      if (minute != last_minute) {
        last_minute = minute;
        ++active_minutes;
      }
    }
  };

  NodeKey node_key(const ConnectionSummary& r, bool local_side,
                   bool local_is_client) const;
  bool is_monitored(const NodeKey& k) const { return monitored_.contains(k.ip); }
  void finalize_window();

  GraphBuildConfig config_;
  std::unordered_set<IpAddr> monitored_;
  std::unordered_map<DirKey, DirAccum, DirKeyHash> acc_;
  std::optional<TimeWindow> current_window_;
  std::vector<CommGraph> graphs_;

  // Registry-owned; shared across builder instances (e.g. shard workers).
  obs::Counter* m_records_ = nullptr;
  obs::Counter* m_windows_ = nullptr;
  obs::Counter* m_collapsed_ = nullptr;
  obs::Histogram* m_finalize_ = nullptr;
};

/// Merges graphs with disjoint-or-overlapping node sets into one (used by
/// the distributed aggregator, where each shard owns a partition of the
/// edges).
/// Node stats and edge volumes add; windows must match (first wins).
CommGraph merge_graphs(const std::vector<CommGraph>& parts);

/// Applies heavy-hitter collapsing to an already-built graph: nodes below
/// `threshold` share of bytes, packets and connection-minutes fold into
/// the <other> node. Monitored nodes (the subscription's own resources)
/// are exempt: only remote peers fold.
CommGraph collapse_heavy_hitters(const CommGraph& graph, double threshold);

/// Rebuilds `graph` with nodes ordered by NodeKey and edges ordered by
/// their (sorted) endpoint pair. The result is a pure function of the
/// graph's *contents*: two graphs built from the same record multiset in
/// different orders (different shard counts, threads or processes)
/// canonicalize to byte-identical graphs. The <other> collapse node
/// (ip 0.0.0.0) sorts first.
CommGraph canonical_graph(const CommGraph& graph);

/// The one shared finalization path for a window's merged (uncollapsed)
/// graph: canonicalize, collapse heavy hitters if configured, canonicalize
/// again. GraphBuilder and the distributed aggregator both finalize
/// through here, which is what makes an N-shard multi-process run
/// byte-identical to the single-process run
/// (docs/DISTRIBUTED.md "Determinism contract").
CommGraph finalize_window_graph(const CommGraph& merged,
                                const GraphBuildConfig& config);

/// Stable shard assignment for a connection record. Hashes the canonical
/// (unordered) IP pair — both orientations of a conversation land in the
/// same shard, so each undirected edge is built entirely within one shard
/// and the cross-shard merge is a disjoint union. The kIpPort facet mixes
/// in the (order-independent) port sum so per-port edges spread out. The
/// shard workers route through this function; its values are pinned by a
/// golden test.
std::size_t shard_of_record(const ConnectionSummary& record, GraphFacet facet,
                            std::size_t shard_count);

}  // namespace ccg
