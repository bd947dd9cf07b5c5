// Cache-blocked CSR adjacency: the read-optimized layout the analysis
// kernels (similarity, SimRank, segmentation) run on.
//
// CommGraph's per-node vector<pair<NodeId, EdgeId>> is the right shape for
// incremental construction, but the hot kernels walk neighborhoods millions
// of times per window and pay for the pointer chase, the pair interleaving,
// and the repeated log1p/edge_role recomputation. CsrAdjacency flattens the
// whole graph once per window into a single arena:
//
//   offsets : n+1 u64   row v is [offsets[v], offsets[v+1])
//   ids     : m   u32   neighbor NodeIds, sorted ascending within each row
//   tags    : m   i32   direction tag from v's perspective (initiator /
//                       responder / mixed — CommGraph::EdgeRole)
//   ports   : m   i32   server-port hint of the edge (-1 unknown)
//   weights : m   f64   log1p(bytes) of the edge
//
// Columns are parallel (element k of each column describes the same
// neighbor), 64-byte aligned, and contiguous in one allocation, so a
// kernel streams a row's columns in step. Rows are sorted by
// neighbor id, which makes neighbor iteration order deterministic — a
// function of the graph alone, not of edge insertion order.
//
// Build once per window, share across every kernel that reads the window.
// A caller that flattens many graphs in turn (segment_all_methods) reuses
// one CsrAdjacency via rebuild(): the arena is grow-only, so reallocation
// happens only when a graph exceeds every previous one's node or entry
// count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "ccg/graph/comm_graph.hpp"

namespace ccg {

class CsrAdjacency {
 public:
  /// Direction tags, aligned with CommGraph::EdgeRole from the row node's
  /// perspective. Values are stable — they feed MinHash features.
  static constexpr std::int32_t kTagInitiator = 0;
  static constexpr std::int32_t kTagResponder = 1;
  static constexpr std::int32_t kTagMixed = 2;

  /// Empty adjacency; call rebuild() before reading any row.
  CsrAdjacency() = default;

  /// Flattens `g`. O(E log deg) for the per-row sort.
  explicit CsrAdjacency(const CommGraph& g) { rebuild(g); }

  /// Reflattens `g` into the existing arena when it fits. The arena only
  /// ever grows: a window smaller than a previous one reuses the old
  /// allocation, so steady-state windows cost zero allocator traffic.
  void rebuild(const CommGraph& g);

  std::size_t node_count() const { return n_; }
  std::size_t edge_entry_count() const {
    return static_cast<std::size_t>(offsets_[n_]);
  }

  std::uint32_t degree(NodeId v) const {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  std::span<const std::uint32_t> ids(NodeId v) const {
    return {ids_ + offsets_[v], degree(v)};
  }
  std::span<const std::int32_t> tags(NodeId v) const {
    return {tags_ + offsets_[v], degree(v)};
  }
  std::span<const std::int32_t> ports(NodeId v) const {
    return {ports_ + offsets_[v], degree(v)};
  }
  std::span<const double> weights(NodeId v) const {
    return {weights_ + offsets_[v], degree(v)};
  }

  /// Raw column bases (for kernels indexing by offsets directly).
  const std::uint64_t* offsets() const { return offsets_; }
  const std::uint32_t* ids_base() const { return ids_; }
  const std::int32_t* tags_base() const { return tags_; }
  const std::int32_t* ports_base() const { return ports_; }
  const double* weights_base() const { return weights_; }

  /// Bytes held by the arena (observability / tests).
  std::size_t arena_bytes() const { return arena_bytes_; }

 private:
  struct ArenaFree {
    void operator()(void* p) const noexcept { ::operator delete[](p, std::align_val_t{64}); }
  };

  std::size_t n_ = 0;
  std::size_t node_capacity_ = 0;
  std::size_t entry_capacity_ = 0;
  std::size_t arena_bytes_ = 0;
  std::unique_ptr<std::byte[], ArenaFree> arena_;
  std::uint64_t* offsets_ = nullptr;
  std::uint32_t* ids_ = nullptr;
  std::int32_t* tags_ = nullptr;
  std::int32_t* ports_ = nullptr;
  double* weights_ = nullptr;
};

}  // namespace ccg
