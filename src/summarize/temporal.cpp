#include "ccg/summarize/temporal.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "ccg/common/expect.hpp"

namespace ccg {

TransitionStability transition_stability(const CommGraph& before,
                                         const CommGraph& after,
                                         double volume_change_factor) {
  const GraphDelta d = diff_graphs(before, after, volume_change_factor);

  const std::size_t added = d.nodes_added.size();
  const std::size_t removed = d.nodes_removed.size();
  const std::size_t after_nodes = after.node_count();
  const std::size_t common_nodes = after_nodes - added;
  const std::size_t union_nodes = after_nodes + removed;

  return {.from = before.window(),
          .to = after.window(),
          .edge_jaccard = d.edge_jaccard,
          .byte_weighted_overlap = d.byte_weighted_overlap,
          .node_jaccard = union_nodes == 0 ? 1.0
                                           : static_cast<double>(common_nodes) /
                                                 static_cast<double>(union_nodes),
          .edges_added = d.edges_added.size(),
          .edges_removed = d.edges_removed.size(),
          .edges_changed = d.edges_changed.size()};
}

SeriesStability analyze_series(const std::vector<CommGraph>& series,
                               double volume_change_factor) {
  CCG_EXPECT(series.size() >= 2);
  SeriesStability out;
  double jac_sum = 0.0, byte_sum = 0.0;
  for (std::size_t i = 0; i + 1 < series.size(); ++i) {
    const TransitionStability t =
        transition_stability(series[i], series[i + 1], volume_change_factor);
    jac_sum += t.edge_jaccard;
    byte_sum += t.byte_weighted_overlap;
    out.min_edge_jaccard = std::min(out.min_edge_jaccard, t.edge_jaccard);
    out.transitions.push_back(t);
  }
  const double count = static_cast<double>(out.transitions.size());
  out.mean_edge_jaccard = jac_sum / count;
  out.mean_byte_overlap = byte_sum / count;
  return out;
}

std::string SeriesStability::summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%zu transitions: edge-jaccard mean=%.3f min=%.3f, "
                "byte-overlap mean=%.3f",
                transitions.size(), mean_edge_jaccard, min_edge_jaccard,
                mean_byte_overlap);
  return buf;
}

std::string ascii_adjacency(const CommGraph& graph, std::size_t cells) {
  CCG_EXPECT(cells >= 1);
  const std::size_t n = graph.node_count();
  if (n == 0) return "(empty graph)\n";

  // Stable ordering: sort nodes by key so hours align row-for-row.
  std::vector<NodeId> order(n);
  for (NodeId i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return graph.key(a) < graph.key(b);
  });
  std::vector<std::size_t> cell_of(n);
  const std::size_t grid = std::min(cells, n);
  for (std::size_t rank = 0; rank < n; ++rank) {
    cell_of[order[rank]] = rank * grid / n;
  }

  std::vector<double> heat(grid * grid, 0.0);
  for (const Edge& e : graph.edges()) {
    const double v = std::log1p(static_cast<double>(e.stats.bytes()));
    const std::size_t ca = cell_of[e.a];
    const std::size_t cb = cell_of[e.b];
    heat[ca * grid + cb] += v;
    heat[cb * grid + ca] += v;
  }
  const double peak = *std::max_element(heat.begin(), heat.end());
  static constexpr char kShades[] = " .:-=+*#%@";
  std::string out;
  out.reserve(grid * (grid + 1));
  for (std::size_t r = 0; r < grid; ++r) {
    for (std::size_t c = 0; c < grid; ++c) {
      const double frac = peak <= 0.0 ? 0.0 : heat[r * grid + c] / peak;
      const auto idx = static_cast<std::size_t>(frac * 9.0);
      out.push_back(kShades[std::min<std::size_t>(idx, 9)]);
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace ccg
