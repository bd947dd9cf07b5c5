#include "ccg/graph/csr.hpp"

#include <algorithm>
#include <cmath>
#include <new>
#include <vector>

namespace ccg {

namespace {

constexpr std::size_t kArenaAlign = 64;

std::size_t round_up(std::size_t v) {
  return (v + kArenaAlign - 1) & ~(kArenaAlign - 1);
}

std::int32_t tag_of(const CommGraph& g, NodeId owner, EdgeId e) {
  switch (g.edge_role(owner, e)) {
    case CommGraph::EdgeRole::kInitiator: return CsrAdjacency::kTagInitiator;
    case CommGraph::EdgeRole::kResponder: return CsrAdjacency::kTagResponder;
    case CommGraph::EdgeRole::kMixed: return CsrAdjacency::kTagMixed;
  }
  return CsrAdjacency::kTagMixed;
}

struct Entry {
  std::uint32_t id;
  std::int32_t tag;
  std::int32_t port;
  double weight;
};

}  // namespace

void CsrAdjacency::rebuild(const CommGraph& g) {
  n_ = g.node_count();
  std::size_t m = 0;
  for (NodeId v = 0; v < n_; ++v) m += g.degree(v);

  // Grow-only: reallocate only when this window outgrows every previous
  // one in either dimension. Column bases are derived from the capacities,
  // so smaller windows slot into the same layout.
  if (arena_ == nullptr || n_ > node_capacity_ || m > entry_capacity_) {
    node_capacity_ = std::max(n_, node_capacity_);
    entry_capacity_ = std::max(m, entry_capacity_);
    const std::size_t off_bytes =
        round_up((node_capacity_ + 1) * sizeof(std::uint64_t));
    const std::size_t ids_bytes =
        round_up(entry_capacity_ * sizeof(std::uint32_t));
    const std::size_t tag_bytes =
        round_up(entry_capacity_ * sizeof(std::int32_t));
    const std::size_t port_bytes =
        round_up(entry_capacity_ * sizeof(std::int32_t));
    const std::size_t weight_bytes = round_up(entry_capacity_ * sizeof(double));
    arena_bytes_ = off_bytes + ids_bytes + tag_bytes + port_bytes + weight_bytes;
    arena_.reset(static_cast<std::byte*>(
        ::operator new[](arena_bytes_, std::align_val_t{kArenaAlign})));

    std::byte* p = arena_.get();
    offsets_ = reinterpret_cast<std::uint64_t*>(p);
    ids_ = reinterpret_cast<std::uint32_t*>(p += off_bytes);
    tags_ = reinterpret_cast<std::int32_t*>(p += ids_bytes);
    ports_ = reinterpret_cast<std::int32_t*>(p += tag_bytes);
    weights_ = reinterpret_cast<double*>(p += port_bytes);
  }

  offsets_[0] = 0;
  for (NodeId v = 0; v < n_; ++v) {
    offsets_[v + 1] = offsets_[v] + g.degree(v);
  }

  // Flatten each row and sort it by neighbor id: sorted rows make
  // iteration order a function of the graph, not of edge insertion order.
  std::vector<Entry> row;
  for (NodeId v = 0; v < n_; ++v) {
    row.clear();
    for (const auto& [peer, edge] : g.neighbors(v)) {
      row.push_back({peer, tag_of(g, v, edge),
                     g.edge(edge).stats.server_port_hint,
                     std::log1p(static_cast<double>(g.edge(edge).stats.bytes()))});
    }
    std::sort(row.begin(), row.end(),
              [](const Entry& a, const Entry& b) { return a.id < b.id; });
    const std::uint64_t base = offsets_[v];
    for (std::size_t k = 0; k < row.size(); ++k) {
      ids_[base + k] = row[k].id;
      tags_[base + k] = row[k].tag;
      ports_[base + k] = row[k].port;
      weights_[base + k] = row[k].weight;
    }
  }
}

}  // namespace ccg
