#include "ccg/graph/delta.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "ccg/common/expect.hpp"

namespace ccg {

namespace {

struct PairHash {
  std::size_t operator()(const std::pair<NodeKey, NodeKey>& p) const noexcept {
    return std::hash<NodeKey>{}(p.first) * 0x9E3779B97F4A7C15ull ^
           std::hash<NodeKey>{}(p.second);
  }
};

using EdgeMap = std::unordered_map<std::pair<NodeKey, NodeKey>, std::uint64_t, PairHash>;

EdgeMap edge_bytes_by_key(const CommGraph& g) {
  EdgeMap out;
  out.reserve(g.edge_count());
  for (const Edge& e : g.edges()) {
    NodeKey ka = g.key(e.a);
    NodeKey kb = g.key(e.b);
    if (kb < ka) std::swap(ka, kb);
    out[{ka, kb}] += e.stats.bytes();
  }
  return out;
}

}  // namespace

GraphDelta diff_graphs(const CommGraph& before, const CommGraph& after,
                       double volume_change_factor) {
  CCG_EXPECT(volume_change_factor >= 1.0);
  GraphDelta delta;

  // Node sets.
  std::unordered_set<NodeKey> before_nodes, after_nodes;
  for (NodeId i = 0; i < before.node_count(); ++i) before_nodes.insert(before.key(i));
  for (NodeId i = 0; i < after.node_count(); ++i) after_nodes.insert(after.key(i));
  for (const auto& k : after_nodes) {
    if (!before_nodes.contains(k)) delta.nodes_added.push_back(k);
  }
  for (const auto& k : before_nodes) {
    if (!after_nodes.contains(k)) delta.nodes_removed.push_back(k);
  }

  // Edge sets keyed by endpoints.
  const EdgeMap eb = edge_bytes_by_key(before);
  const EdgeMap ea = edge_bytes_by_key(after);

  std::size_t common = 0;
  std::uint64_t after_total = 0, after_on_stable_edges = 0;
  for (const auto& [key, bytes_after] : ea) {
    after_total += bytes_after;
    auto it = eb.find(key);
    if (it == eb.end()) {
      delta.edges_added.push_back(
          {key.first, key.second, 0, bytes_after});
      continue;
    }
    ++common;
    after_on_stable_edges += bytes_after;
    const std::uint64_t bytes_before = it->second;
    const double hi = static_cast<double>(bytes_before) * volume_change_factor;
    const double lo = static_cast<double>(bytes_before) / volume_change_factor;
    const auto ba = static_cast<double>(bytes_after);
    if (ba > hi || ba < lo) {
      delta.edges_changed.push_back({key.first, key.second, bytes_before, bytes_after});
    } else {
      ++delta.edges_stable;
    }
  }
  for (const auto& [key, bytes_before] : eb) {
    if (!ea.contains(key)) {
      delta.edges_removed.push_back({key.first, key.second, bytes_before, 0});
    }
  }

  const std::size_t uni = eb.size() + ea.size() - common;
  delta.edge_jaccard =
      uni == 0 ? 1.0 : static_cast<double>(common) / static_cast<double>(uni);
  delta.byte_weighted_overlap =
      after_total == 0 ? 1.0
                       : static_cast<double>(after_on_stable_edges) /
                             static_cast<double>(after_total);
  return delta;
}

GraphPatch make_patch(const CommGraph& before, const CommGraph& after) {
  GraphPatch patch;
  patch.window = after.window();

  patch.nodes.reserve(after.node_count());
  for (NodeId i = 0; i < after.node_count(); ++i) {
    GraphPatch::Node entry;
    const NodeKey& key = after.key(i);
    if (const auto prev = before.find_node(key)) {
      entry.ref = static_cast<std::int64_t>(*prev);
    } else {
      entry.key = key;
    }
    entry.monitored = after.node_stats(i).monitored;
    entry.collapsed_members = after.node_stats(i).collapsed_members;
    patch.nodes.push_back(entry);
  }

  patch.edges.reserve(after.edge_count());
  for (EdgeId e = 0; e < after.edge_count(); ++e) {
    const Edge& edge = after.edge(e);
    GraphPatch::Edge entry;
    entry.stats = edge.stats;
    const std::int64_t ra = patch.nodes[edge.a].ref;
    const std::int64_t rb = patch.nodes[edge.b].ref;
    std::optional<EdgeId> prev_edge;
    if (ra >= 0 && rb >= 0) {
      prev_edge = before.find_edge(static_cast<NodeId>(ra), static_cast<NodeId>(rb));
    }
    if (prev_edge) {
      entry.ref = static_cast<std::int64_t>(*prev_edge);
    } else {
      entry.a = edge.a;
      entry.b = edge.b;
    }
    patch.edges.push_back(entry);
  }
  return patch;
}

std::optional<CommGraph> apply_patch(const CommGraph& before,
                                     const GraphPatch& patch) {
  CommGraph out(patch.window);
  // before NodeId -> target NodeId (kInvalidNode when dropped).
  std::vector<NodeId> fwd(before.node_count(), kInvalidNode);
  for (std::size_t i = 0; i < patch.nodes.size(); ++i) {
    const GraphPatch::Node& entry = patch.nodes[i];
    NodeKey key;
    if (entry.ref >= 0) {
      if (static_cast<std::size_t>(entry.ref) >= before.node_count() ||
          fwd[entry.ref] != kInvalidNode) {
        return std::nullopt;  // dangling or doubly-referenced base node
      }
      key = before.key(static_cast<NodeId>(entry.ref));
    } else {
      key = entry.key;
    }
    const NodeId id = out.add_node(key);
    if (id != i) return std::nullopt;  // duplicate key in the patch
    if (entry.ref >= 0) fwd[entry.ref] = id;
    out.set_monitored(id, entry.monitored);
    if (entry.collapsed_members > 0) {
      out.note_collapsed_members(id, entry.collapsed_members);
    }
  }

  for (std::size_t i = 0; i < patch.edges.size(); ++i) {
    const GraphPatch::Edge& entry = patch.edges[i];
    NodeId a, b;
    EdgeStats s = entry.stats;
    if (entry.ref >= 0) {
      if (static_cast<std::size_t>(entry.ref) >= before.edge_count()) {
        return std::nullopt;
      }
      const Edge& prev = before.edge(static_cast<EdgeId>(entry.ref));
      a = fwd[prev.a];
      b = fwd[prev.b];
      if (a == kInvalidNode || b == kInvalidNode) return std::nullopt;
      // Stats are stored in the *target* a<b orientation already; when the
      // mapping reorders the endpoints, add_edge_volume would re-swap them,
      // so pre-swap to hand it the canonical orientation directly.
      if (a > b) std::swap(a, b);
    } else {
      a = entry.a;
      b = entry.b;
    }
    if (a >= out.node_count() || b >= out.node_count() || a == b || a > b) {
      return std::nullopt;
    }
    const EdgeId id = out.add_edge_volume(
        a, b, s.bytes_ab, s.bytes_ba, s.packets_ab, s.packets_ba,
        s.connection_minutes, s.active_minutes, s.client_minutes_ab,
        s.client_minutes_ba, s.server_port_hint);
    if (id != i) return std::nullopt;  // duplicate edge in the patch
  }
  return out;
}

bool graphs_identical(const CommGraph& a, const CommGraph& b) {
  if (a.window() != b.window() || a.node_count() != b.node_count() ||
      a.edge_count() != b.edge_count() || a.total_bytes() != b.total_bytes()) {
    return false;
  }
  for (NodeId i = 0; i < a.node_count(); ++i) {
    const NodeStats& sa = a.node_stats(i);
    const NodeStats& sb = b.node_stats(i);
    if (a.key(i) != b.key(i) || sa.monitored != sb.monitored ||
        sa.collapsed_members != sb.collapsed_members || sa.bytes != sb.bytes ||
        sa.packets != sb.packets ||
        sa.connection_minutes != sb.connection_minutes) {
      return false;
    }
  }
  for (EdgeId e = 0; e < a.edge_count(); ++e) {
    const Edge& ea = a.edge(e);
    const Edge& eb = b.edge(e);
    const EdgeStats& sa = ea.stats;
    const EdgeStats& sb = eb.stats;
    if (ea.a != eb.a || ea.b != eb.b || sa.bytes_ab != sb.bytes_ab ||
        sa.bytes_ba != sb.bytes_ba || sa.packets_ab != sb.packets_ab ||
        sa.packets_ba != sb.packets_ba ||
        sa.connection_minutes != sb.connection_minutes ||
        sa.active_minutes != sb.active_minutes ||
        sa.client_minutes_ab != sb.client_minutes_ab ||
        sa.client_minutes_ba != sb.client_minutes_ba ||
        sa.server_port_hint != sb.server_port_hint) {
      return false;
    }
  }
  return true;
}

std::string GraphDelta::summary() const {
  std::string out;
  out += "+" + std::to_string(nodes_added.size()) + "/-" +
         std::to_string(nodes_removed.size()) + " nodes, ";
  out += "+" + std::to_string(edges_added.size()) + "/-" +
         std::to_string(edges_removed.size()) + " edges, ";
  out += std::to_string(edges_changed.size()) + " changed, " +
         std::to_string(edges_stable) + " stable";
  out += " (edge-jaccard " + std::to_string(edge_jaccard) + ", byte-overlap " +
         std::to_string(byte_weighted_overlap) + ")";
  return out;
}

}  // namespace ccg
