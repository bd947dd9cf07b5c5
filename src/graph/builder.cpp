#include "ccg/graph/builder.hpp"

#include <algorithm>
#include <utility>

#include "ccg/common/expect.hpp"
#include "ccg/common/flow.hpp"

namespace ccg {

GraphBuilder::GraphBuilder(GraphBuildConfig config,
                           std::unordered_set<IpAddr> monitored)
    : config_(config), monitored_(std::move(monitored)) {
  CCG_EXPECT(config.window_minutes > 0);
  CCG_EXPECT(config.collapse_threshold >= 0.0 && config.collapse_threshold < 1.0);
  obs::Registry& registry = obs::Registry::global();
  m_records_ = &registry.counter("ccg.graph.records");
  m_windows_ = &registry.counter("ccg.graph.windows");
  m_collapsed_ = &registry.counter("ccg.graph.collapsed_nodes");
  m_finalize_ = &obs::span_histogram("ccg.graph.finalize");
}

NodeKey GraphBuilder::node_key(const ConnectionSummary& r, bool local_side,
                               bool local_is_client) const {
  const IpAddr ip = local_side ? r.flow.local_ip : r.flow.remote_ip;
  const std::uint16_t port = local_side ? r.flow.local_port : r.flow.remote_port;
  switch (config_.facet) {
    case GraphFacet::kIp:
      return NodeKey::for_ip(ip);
    case GraphFacet::kIpPort:
      return NodeKey::for_ip_port(ip, port);
    case GraphFacet::kService: {
      const bool is_server = local_side ? !local_is_client : local_is_client;
      return is_server ? NodeKey::for_ip_port(ip, port) : NodeKey::for_ip(ip);
    }
  }
  return NodeKey::for_ip(ip);
}

void GraphBuilder::on_batch(MinuteBucket time,
                            const std::vector<ConnectionSummary>& batch) {
  for (const auto& record : batch) {
    ConnectionSummary stamped = record;
    stamped.time = time;
    ingest(stamped);
  }
}

void GraphBuilder::ingest(const ConnectionSummary& record) {
  // Roll the window forward if this record is beyond it. Windows are
  // aligned to multiples of window_minutes so "hour 3" means the same
  // thing across builders.
  if (!current_window_ || record.time >= current_window_->end()) {
    if (current_window_ && !acc_.empty()) finalize_window();
    const std::int64_t w = config_.window_minutes;
    const std::int64_t idx = record.time.index() >= 0
                                 ? record.time.index() / w
                                 : (record.time.index() - (w - 1)) / w;
    current_window_ = TimeWindow::minutes(idx * w, w);
  }
  CCG_EXPECT(record.time >= current_window_->begin());  // stream must be ordered

  m_records_->add(1);
  const std::int64_t minute = record.time.index();

  // Who initiated this flow? The record's initiator bit (from the NIC flow
  // state) is authoritative; unknown falls back to the ephemeral-port
  // heuristic: the endpoint with the high/ephemeral port is the client.
  constexpr std::uint16_t kEphemeralFloor = 32768;
  const bool local_is_client =
      record.initiator == Initiator::kLocal ||
      (record.initiator == Initiator::kUnknown &&
       (record.flow.local_port >= kEphemeralFloor ||
        (record.flow.remote_port < kEphemeralFloor &&
         record.flow.remote_port < record.flow.local_port)));

  const NodeKey local = node_key(record, /*local_side=*/true, local_is_client);
  const NodeKey remote = node_key(record, /*local_side=*/false, local_is_client);
  if (local == remote) return;  // degenerate loopback summaries

  const std::int32_t server_port =
      local_is_client ? record.flow.remote_port : record.flow.local_port;

  // local -> remote direction, witnessed by the sender.
  {
    DirAccum& a = acc_[DirKey{local, remote}];
    a.src_bytes += record.counters.bytes_sent;
    a.src_packets += record.counters.packets_sent;
    a.src_flow_minutes += 1;
    if (local_is_client) a.src_initiated_src_witness += 1;
    if (a.server_port < 0) a.server_port = server_port;
    a.touch(minute);
  }
  // remote -> local direction, witnessed by the receiver.
  {
    DirAccum& a = acc_[DirKey{remote, local}];
    a.dst_bytes += record.counters.bytes_rcvd;
    a.dst_packets += record.counters.packets_rcvd;
    a.dst_flow_minutes += 1;
    if (!local_is_client) a.src_initiated_dst_witness += 1;
    a.touch(minute);
  }
}

void GraphBuilder::flush() {
  if (current_window_ && !acc_.empty()) finalize_window();
}

std::vector<CommGraph> GraphBuilder::take_graphs() {
  return std::exchange(graphs_, {});
}

void GraphBuilder::finalize_window() {
  obs::ScopedSpan span(*m_finalize_, "ccg.graph.finalize");
  struct EdgeAgg {
    std::uint64_t bytes_ab, bytes_ba, packets_ab, packets_ba;
    std::uint64_t conn_minutes;
    std::uint32_t active_minutes;
    std::uint64_t client_minutes_ab, client_minutes_ba;
    // Server port as reported by each direction's accumulator; resolved
    // a-b-first at materialize time so the hint does not depend on hash
    // map iteration order (the distributed merge needs order-free values).
    std::int32_t hint_ab = -1;
    std::int32_t hint_ba = -1;
  };
  struct PairHash {
    std::size_t operator()(const std::pair<NodeKey, NodeKey>& p) const noexcept {
      return std::hash<NodeKey>{}(p.first) * 0x9E3779B97F4A7C15ull ^
             std::hash<NodeKey>{}(p.second);
    }
  };

  // 1. Merge the two directed accumulators of each pair. For each
  //    direction take the max of the sender's and receiver's report —
  //    identical in the clean case, and the larger survives sampling loss.
  std::unordered_map<std::pair<NodeKey, NodeKey>, EdgeAgg, PairHash> merged;
  merged.reserve(acc_.size() / 2 + 1);
  for (const auto& [key, a] : acc_) {
    const bool canonical = key.src < key.dst;
    const auto pair_key = canonical ? std::make_pair(key.src, key.dst)
                                    : std::make_pair(key.dst, key.src);
    auto [it, inserted] = merged.try_emplace(pair_key, EdgeAgg{});
    EdgeAgg& e = it->second;
    const std::uint64_t bytes = std::max(a.src_bytes, a.dst_bytes);
    const std::uint64_t packets = std::max(a.src_packets, a.dst_packets);
    (canonical ? e.bytes_ab : e.bytes_ba) += bytes;
    (canonical ? e.packets_ab : e.packets_ba) += packets;
    // "src initiated" flow-minutes for this ordered direction, from the
    // better-informed witness.
    (canonical ? e.client_minutes_ab : e.client_minutes_ba) += std::max(
        a.src_initiated_src_witness, a.src_initiated_dst_witness);
    e.conn_minutes = std::max<std::uint64_t>(
        e.conn_minutes, std::max(a.src_flow_minutes, a.dst_flow_minutes));
    e.active_minutes = std::max(e.active_minutes, a.active_minutes);
    std::int32_t& hint = canonical ? e.hint_ab : e.hint_ba;
    if (hint < 0) hint = a.server_port;
  }
  acc_.clear();

  // 2. Materialize the raw (uncollapsed) graph, then finalize it as the
  //    single part of the one path the distributed aggregator's merge
  //    also takes, so every producer of this window's graph agrees
  //    byte-for-byte.
  CommGraph raw(*current_window_);
  for (const auto& [pk, e] : merged) {
    const NodeId a = raw.add_node(pk.first);
    raw.set_monitored(a, is_monitored(pk.first));
    const NodeId b = raw.add_node(pk.second);
    raw.set_monitored(b, is_monitored(pk.second));
    raw.add_edge_volume(a, b, e.bytes_ab, e.bytes_ba, e.packets_ab,
                        e.packets_ba, e.conn_minutes, e.active_minutes,
                        e.client_minutes_ab, e.client_minutes_ba,
                        e.hint_ab >= 0 ? e.hint_ab : e.hint_ba);
  }
  CommGraph graph = finalize_window_graph({&raw, 1}, config_);
  if (const auto other = graph.find_node(NodeKey::collapsed())) {
    m_collapsed_->add(graph.node_stats(*other).collapsed_members);
  }

  m_windows_->add(1);
  graphs_.push_back(std::move(graph));
}

CommGraph finalize_window_graph(std::span<const CommGraph> parts,
                                const GraphBuildConfig& config) {
  CCG_EXPECT(config.collapse_threshold >= 0.0 && config.collapse_threshold < 1.0);
  // 1. Nodes: every part's keys, sorted and deduplicated once. `index`
  //    maps each part's NodeIds into `keys`; a node is monitored if any
  //    part marks it.
  std::vector<NodeKey> keys;
  for (const CommGraph& part : parts) {
    for (NodeId i = 0; i < part.node_count(); ++i) keys.push_back(part.key(i));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<std::vector<NodeId>> index(parts.size());
  std::vector<bool> monitored(keys.size(), false);
  for (std::size_t p = 0; p < parts.size(); ++p) {
    for (NodeId i = 0; i < parts[p].node_count(); ++i) {
      const auto k = std::lower_bound(keys.begin(), keys.end(), parts[p].key(i));
      index[p].push_back(static_cast<NodeId>(k - keys.begin()));
      if (parts[p].node_stats(i).monitored) monitored[index[p].back()] = true;
    }
  }

  // 2. Collapse, decided on node volumes summed over every part's edges: a
  //    node folds when it is below the threshold share of the window's
  //    bytes, packets and connection-minutes, and not monitored.
  std::vector<bool> folds(keys.size(), false);
  std::uint32_t members = 0;
  if (config.collapse_threshold > 0.0) {
    struct Volume {
      std::uint64_t bytes = 0, packets = 0, connection_minutes = 0;
    };
    std::vector<Volume> node(keys.size());
    Volume total;
    for (std::size_t p = 0; p < parts.size(); ++p) {
      for (const Edge& e : parts[p].edges()) {
        for (Volume* v : {&node[index[p][e.a]], &node[index[p][e.b]], &total}) {
          v->bytes += e.stats.bytes();
          v->packets += e.stats.packets();
          v->connection_minutes += e.stats.connection_minutes;
        }
      }
    }
    const auto below = [&](std::uint64_t part, std::uint64_t whole) {
      const double share = whole == 0 ? 0.0
                                      : static_cast<double>(part) /
                                            static_cast<double>(whole);
      return share < config.collapse_threshold;
    };
    for (std::size_t i = 0; i < keys.size(); ++i) {
      folds[i] = !monitored[i] && below(node[i].bytes, total.bytes) &&
                 below(node[i].packets, total.packets) &&
                 below(node[i].connection_minutes, total.connection_minutes);
      members += folds[i];
    }
  }

  // 3. Nodes out, in key order. <other> has the least key, so it comes
  //    first and takes every folded node; add_node makes a surviving raw
  //    0.0.0.0 node the same node.
  CommGraph out(parts.empty() ? TimeWindow{} : parts.front().window());
  if (members > 0) {
    out.note_collapsed_members(out.add_node(NodeKey::collapsed()), members);
  }
  std::vector<NodeId> id(keys.size(), 0);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (folds[i]) continue;
    id[i] = out.add_node(keys[i]);
    out.set_monitored(id[i], monitored[i]);
  }

  // 4. Edges out, sorted by endpoint pair in `out`; one pair's edges by
  //    their pair of keys, then in part order (a stable sort). Adding
  //    them in that order combines them as the merge-then-collapse chain
  //    did: volumes add and the first non-negative port hint wins.
  struct Row {
    std::uint64_t pair, key_pair;  // (min << 32 | max) of out ids / key indices
    NodeId a, b;                   // out ids of the edge's a and b
    const EdgeStats* stats;
  };
  const auto packed = [](NodeId x, NodeId y) {
    return std::uint64_t{std::min(x, y)} << 32 | std::max(x, y);
  };
  std::vector<Row> rows;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    for (const Edge& e : parts[p].edges()) {
      const NodeId ka = index[p][e.a];
      const NodeId kb = index[p][e.b];
      if (id[ka] == id[kb]) continue;  // both ends inside <other>
      rows.push_back({packed(id[ka], id[kb]), packed(ka, kb), id[ka], id[kb], &e.stats});
    }
  }
  std::stable_sort(rows.begin(), rows.end(), [](const Row& x, const Row& y) {
    return x.pair != y.pair ? x.pair < y.pair : x.key_pair < y.key_pair;
  });
  for (const Row& row : rows) {
    const EdgeStats& s = *row.stats;
    out.add_edge_volume(row.a, row.b, s.bytes_ab, s.bytes_ba, s.packets_ab,
                        s.packets_ba, s.connection_minutes, s.active_minutes,
                        s.client_minutes_ab, s.client_minutes_ba,
                        s.server_port_hint);
  }
  return out;
}

std::size_t shard_of_record(const ConnectionSummary& record, GraphFacet facet,
                            std::size_t shard_count) {
  CCG_EXPECT(shard_count >= 1);
  // Both orientations of a conversation must land in the same shard, so
  // hash the canonical (unordered) endpoint pair. std::hash<IpPair> is
  // fully specified in flow.hpp (no platform-dependent inputs), which is
  // what lets a golden test pin these values.
  const IpPair pair(record.flow.local_ip, record.flow.remote_ip);
  std::uint64_t h = std::hash<IpPair>{}(pair);
  if (facet == GraphFacet::kIpPort) {
    h ^= (std::uint64_t{record.flow.local_port} + record.flow.remote_port) *
         0x9E3779B97F4A7C15ull;
  }
  return h % shard_count;
}

}  // namespace ccg
