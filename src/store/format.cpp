#include "ccg/store/format.hpp"

#include <array>

namespace ccg::store {

namespace {

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

/// Node flag byte: bit0 monitored, bit1 collapsed_members > 0.
std::uint8_t flags_of(bool monitored, std::uint32_t collapsed) {
  return static_cast<std::uint8_t>((monitored ? 1u : 0u) |
                                   (collapsed > 0 ? 2u : 0u));
}

void put_flags(std::vector<std::uint8_t>& out, bool monitored,
               std::uint32_t collapsed) {
  out.push_back(flags_of(monitored, collapsed));
  if (collapsed > 0) put_varint(out, collapsed);
}

struct NodeFlags {
  bool monitored = false;
  std::uint32_t collapsed = 0;
};

std::optional<NodeFlags> get_flags(ByteReader& in) {
  const auto flags = in.byte();
  if (!flags || (*flags & ~3u) != 0) return std::nullopt;
  NodeFlags out;
  out.monitored = (*flags & 1u) != 0;
  if (*flags & 2u) {
    const auto collapsed = in.varint();
    if (!collapsed || *collapsed == 0 || *collapsed > 0xFFFFFFFFull) {
      return std::nullopt;
    }
    out.collapsed = static_cast<std::uint32_t>(*collapsed);
  }
  return out;
}

/// Edge stats viewed from the target's a<b orientation: when the node
/// mapping reorders the endpoints relative to the base edge, the directed
/// fields swap sides.
EdgeStats oriented(const EdgeStats& s, bool flipped) {
  if (!flipped) return s;
  EdgeStats out = s;
  std::swap(out.bytes_ab, out.bytes_ba);
  std::swap(out.packets_ab, out.packets_ba);
  std::swap(out.client_minutes_ab, out.client_minutes_ba);
  return out;
}

void put_stats_absolute(std::vector<std::uint8_t>& out, const EdgeStats& s) {
  put_varint(out, s.bytes_ab);
  put_varint(out, s.bytes_ba);
  put_varint(out, s.packets_ab);
  put_varint(out, s.packets_ba);
  put_varint(out, s.connection_minutes);
  put_varint(out, s.active_minutes);
  put_varint(out, s.client_minutes_ab);
  put_varint(out, s.client_minutes_ba);
  put_zigzag(out, s.server_port_hint);
}

void put_stats_delta(std::vector<std::uint8_t>& out, const EdgeStats& base,
                     const EdgeStats& target) {
  const auto diff = [&out](std::uint64_t b, std::uint64_t t) {
    put_zigzag(out, static_cast<std::int64_t>(t) - static_cast<std::int64_t>(b));
  };
  diff(base.bytes_ab, target.bytes_ab);
  diff(base.bytes_ba, target.bytes_ba);
  diff(base.packets_ab, target.packets_ab);
  diff(base.packets_ba, target.packets_ba);
  diff(base.connection_minutes, target.connection_minutes);
  diff(base.active_minutes, target.active_minutes);
  diff(base.client_minutes_ab, target.client_minutes_ab);
  diff(base.client_minutes_ba, target.client_minutes_ba);
  put_zigzag(out,
             static_cast<std::int64_t>(target.server_port_hint) -
                 static_cast<std::int64_t>(base.server_port_hint));
}

std::optional<EdgeStats> get_stats_absolute(ByteReader& in) {
  EdgeStats s;
  const auto read = [&in](auto& field) {
    const auto v = in.varint();
    if (!v) return false;
    field = static_cast<std::remove_reference_t<decltype(field)>>(*v);
    return static_cast<std::uint64_t>(field) == *v;  // reject narrowing
  };
  if (!read(s.bytes_ab) || !read(s.bytes_ba) || !read(s.packets_ab) ||
      !read(s.packets_ba) || !read(s.connection_minutes) ||
      !read(s.active_minutes) || !read(s.client_minutes_ab) ||
      !read(s.client_minutes_ba)) {
    return std::nullopt;
  }
  const auto hint = in.zigzag();
  if (!hint || *hint < -1 || *hint > 65535) return std::nullopt;
  s.server_port_hint = static_cast<std::int32_t>(*hint);
  return s;
}

std::optional<EdgeStats> get_stats_delta(ByteReader& in, const EdgeStats& base) {
  EdgeStats s;
  const auto read = [&in](auto& field, std::uint64_t base_value) {
    const auto d = in.zigzag();
    if (!d) return false;
    const std::int64_t v = static_cast<std::int64_t>(base_value) + *d;
    if (v < 0) return false;
    field = static_cast<std::remove_reference_t<decltype(field)>>(v);
    return static_cast<std::int64_t>(field) == v;  // reject narrowing
  };
  if (!read(s.bytes_ab, base.bytes_ab) || !read(s.bytes_ba, base.bytes_ba) ||
      !read(s.packets_ab, base.packets_ab) ||
      !read(s.packets_ba, base.packets_ba) ||
      !read(s.connection_minutes, base.connection_minutes) ||
      !read(s.active_minutes, base.active_minutes) ||
      !read(s.client_minutes_ab, base.client_minutes_ab) ||
      !read(s.client_minutes_ba, base.client_minutes_ba)) {
    return std::nullopt;
  }
  const auto dh = in.zigzag();
  if (!dh) return std::nullopt;
  const std::int64_t hint = base.server_port_hint + *dh;
  if (hint < -1 || hint > 65535) return std::nullopt;
  s.server_port_hint = static_cast<std::int32_t>(hint);
  return s;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  static constexpr std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    c = table[(c ^ byte) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_zigzag(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_varint(out, zigzag_encode(v));
}

std::optional<std::uint8_t> ByteReader::byte() {
  if (pos_ >= data_.size()) return std::nullopt;
  return data_[pos_++];
}

std::optional<std::uint64_t> ByteReader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  while (pos_ < data_.size()) {
    const std::uint8_t b = data_[pos_++];
    v |= std::uint64_t{b & 0x7Fu} << shift;
    if ((b & 0x80u) == 0) return v;
    shift += 7;
    if (shift > 63) return std::nullopt;  // overlong encoding
  }
  return std::nullopt;  // truncated
}

std::optional<std::int64_t> ByteReader::zigzag() {
  const auto v = varint();
  if (!v) return std::nullopt;
  return zigzag_decode(*v);
}

std::vector<std::uint8_t> encode_frame(FrameKind kind, const CommGraph& base,
                                       const CommGraph& graph) {
  static const CommGraph empty_base;
  const CommGraph& before = kind == FrameKind::kKeyframe ? empty_base : base;
  const GraphPatch patch = make_patch(before, graph);

  std::vector<std::uint8_t> out;
  out.reserve(16 + 4 * patch.nodes.size() + 16 * patch.edges.size());
  out.push_back(static_cast<std::uint8_t>(kind));
  put_zigzag(out, graph.window().begin().index());
  put_varint(out, static_cast<std::uint64_t>(graph.window().length()));

  // Nodes: token 0 = new node (key + flags inline); token >= 1 references
  // a base node, with the ref delta-encoded against the running "next base
  // node" expectation so stable node orderings cost one byte per node.
  put_varint(out, patch.nodes.size());
  std::int64_t expected_node = 0;
  std::vector<std::size_t> overrides;  // ref'd nodes whose flags changed
  for (std::size_t i = 0; i < patch.nodes.size(); ++i) {
    const GraphPatch::Node& n = patch.nodes[i];
    if (n.ref < 0) {
      put_varint(out, 0);
      put_varint(out, n.key.ip.bits());
      put_varint(out, static_cast<std::uint64_t>(n.key.port + 1));
      put_flags(out, n.monitored, n.collapsed_members);
    } else {
      put_varint(out, 1 + zigzag_encode(n.ref - expected_node));
      expected_node = n.ref + 1;
      const NodeStats& bs = before.node_stats(static_cast<NodeId>(n.ref));
      if (bs.monitored != n.monitored ||
          bs.collapsed_members != n.collapsed_members) {
        overrides.push_back(i);
      }
    }
  }
  put_varint(out, overrides.size());
  for (const std::size_t i : overrides) {
    const GraphPatch::Node& n = patch.nodes[i];
    put_varint(out, i);
    put_flags(out, n.monitored, n.collapsed_members);
  }

  // Edges: token 0 = new edge (endpoints + absolute stats); token >= 1
  // references a base edge and encodes stats as zigzag diffs against it,
  // viewed in the target orientation.
  put_varint(out, patch.edges.size());
  std::int64_t expected_edge = 0;
  for (std::size_t i = 0; i < patch.edges.size(); ++i) {
    const GraphPatch::Edge& e = patch.edges[i];
    if (e.ref < 0) {
      put_varint(out, 0);
      put_varint(out, e.a);
      put_varint(out, e.b);
      put_stats_absolute(out, e.stats);
    } else {
      put_varint(out, 1 + zigzag_encode(e.ref - expected_edge));
      expected_edge = e.ref + 1;
      const Edge& prev = before.edge(static_cast<EdgeId>(e.ref));
      // The target keeps endpoint order iff its `a` endpoint references the
      // base edge's `a`.
      const bool flipped =
          patch.nodes[graph.edge(static_cast<EdgeId>(i)).a].ref !=
          static_cast<std::int64_t>(prev.a);
      put_stats_delta(out, oriented(prev.stats, flipped), e.stats);
    }
  }
  return out;
}

std::optional<FrameHeader> peek_frame(std::span<const std::uint8_t> payload) {
  ByteReader in(payload);
  const auto kind = in.byte();
  if (!kind || (*kind != static_cast<std::uint8_t>(FrameKind::kKeyframe) &&
                *kind != static_cast<std::uint8_t>(FrameKind::kDelta))) {
    return std::nullopt;
  }
  const auto begin = in.zigzag();
  const auto len = in.varint();
  if (!begin || !len || *len > (1ull << 32)) return std::nullopt;
  return FrameHeader{static_cast<FrameKind>(*kind), *begin,
                     static_cast<std::int64_t>(*len)};
}

namespace {

/// Decodes the frame into the GraphPatch that decode_frame applies. A
/// keyframe's patch is expressed against the empty graph and ignores
/// `base`. nullopt on corrupt payloads or refs inconsistent with `base`.
std::optional<GraphPatch> decode_frame_patch(
    std::span<const std::uint8_t> payload, const CommGraph& base) {
  static const CommGraph empty_base;
  const auto header = peek_frame(payload);
  if (!header) return std::nullopt;
  const CommGraph& before =
      header->kind == FrameKind::kKeyframe ? empty_base : base;

  ByteReader in(payload);
  (void)in.byte();    // kind
  (void)in.zigzag();  // window_begin
  (void)in.varint();  // window_len

  GraphPatch patch;
  patch.window =
      TimeWindow::minutes(header->window_begin, header->window_len);

  const auto node_count = in.varint();
  // Caps guard against absurd allocations from corrupt (but CRC-colliding)
  // or hand-crafted frames.
  constexpr std::uint64_t kMaxElements = 1ull << 27;
  if (!node_count || *node_count > kMaxElements) return std::nullopt;
  patch.nodes.reserve(*node_count);
  // base NodeId -> target NodeId, for the edge orientation check below.
  std::vector<NodeId> fwd(before.node_count(), kInvalidNode);
  std::int64_t expected_node = 0;
  for (std::uint64_t i = 0; i < *node_count; ++i) {
    const auto token = in.varint();
    if (!token) return std::nullopt;
    GraphPatch::Node n;
    if (*token == 0) {
      const auto ip = in.varint();
      const auto port = in.varint();
      if (!ip || *ip > 0xFFFFFFFFull || !port || *port > 65536) {
        return std::nullopt;
      }
      n.key = NodeKey{IpAddr(static_cast<std::uint32_t>(*ip)),
                      static_cast<std::int32_t>(*port) - 1};
      const auto flags = get_flags(in);
      if (!flags) return std::nullopt;
      n.monitored = flags->monitored;
      n.collapsed_members = flags->collapsed;
    } else {
      n.ref = expected_node + zigzag_decode(*token - 1);
      expected_node = n.ref + 1;
      if (n.ref < 0 || static_cast<std::uint64_t>(n.ref) >= before.node_count() ||
          fwd[n.ref] != kInvalidNode) {
        return std::nullopt;
      }
      fwd[n.ref] = static_cast<NodeId>(i);
      const NodeStats& bs = before.node_stats(static_cast<NodeId>(n.ref));
      n.monitored = bs.monitored;
      n.collapsed_members = bs.collapsed_members;
    }
    patch.nodes.push_back(n);
  }

  const auto override_count = in.varint();
  if (!override_count || *override_count > *node_count) return std::nullopt;
  for (std::uint64_t i = 0; i < *override_count; ++i) {
    const auto index = in.varint();
    if (!index || *index >= patch.nodes.size()) return std::nullopt;
    const auto flags = get_flags(in);
    if (!flags) return std::nullopt;
    patch.nodes[*index].monitored = flags->monitored;
    patch.nodes[*index].collapsed_members = flags->collapsed;
  }

  const auto edge_count = in.varint();
  if (!edge_count || *edge_count > kMaxElements) return std::nullopt;
  patch.edges.reserve(*edge_count);
  std::int64_t expected_edge = 0;
  for (std::uint64_t i = 0; i < *edge_count; ++i) {
    const auto token = in.varint();
    if (!token) return std::nullopt;
    GraphPatch::Edge e;
    if (*token == 0) {
      const auto a = in.varint();
      const auto b = in.varint();
      if (!a || !b || *a >= *node_count || *b >= *node_count || *a >= *b) {
        return std::nullopt;
      }
      e.a = static_cast<NodeId>(*a);
      e.b = static_cast<NodeId>(*b);
      const auto stats = get_stats_absolute(in);
      if (!stats) return std::nullopt;
      e.stats = *stats;
    } else {
      e.ref = expected_edge + zigzag_decode(*token - 1);
      expected_edge = e.ref + 1;
      if (e.ref < 0 || static_cast<std::uint64_t>(e.ref) >= before.edge_count()) {
        return std::nullopt;
      }
      const Edge& prev = before.edge(static_cast<EdgeId>(e.ref));
      const NodeId ta = fwd[prev.a];
      const NodeId tb = fwd[prev.b];
      if (ta == kInvalidNode || tb == kInvalidNode) return std::nullopt;
      const auto stats = get_stats_delta(in, oriented(prev.stats, ta > tb));
      if (!stats) return std::nullopt;
      e.stats = *stats;
    }
    patch.edges.push_back(e);
  }
  if (!in.done()) return std::nullopt;  // trailing garbage

  return patch;
}

}  // namespace

std::optional<CommGraph> decode_frame(std::span<const std::uint8_t> payload,
                                      const CommGraph& base) {
  static const CommGraph empty_base;
  const auto header = peek_frame(payload);
  if (!header) return std::nullopt;
  const auto patch = decode_frame_patch(payload, base);
  if (!patch) return std::nullopt;
  return apply_patch(
      header->kind == FrameKind::kKeyframe ? empty_base : base, *patch);
}

}  // namespace ccg::store
