// Span-time profile: where a run's wall time went, built from the TraceRing.
//
// The paper's COGS claim (§3) is about resource cost per window. Spans
// already time every layer, so attribution needs no second mechanism: each
// span in the ring adds one stack — its ancestors' names, root first, then
// its own — weighted by its *self time*, its duration minus the durations
// of its children in the ring, clamped at 0 (pool-worker children run
// concurrently and can sum past their parent). Wall time of the profiled
// interval that no root span covers is folded as `(untracked)`. Because the
// stacks are the span tree, a flamegraph of the folded text lines up with
// `ccgraph trace` output: stage frames nest under `ccg.analytics.window`,
// pool-job frames under their stage.
//
//   TraceRing::global().enable(kTraceRingCapacity);
//   const auto start = std::chrono::steady_clock::now();
//   ... run the pipeline ...
//   const prof::Profile p = prof::capture(start);
//   std::fputs(p.table_text().c_str(), stdout);   // per-stage self/total
//   write(p.folded_text());                        // flamegraph.pl-ready
//
// When the ring wraps it overwrites its oldest spans: their time shows up
// as `(untracked)` or as their parents' self time, and `dropped` counts
// them. ccgraph sizes the ring at kTraceRingCapacity (65,536 spans).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ccg/obs/span.hpp"

namespace ccg::obs::prof {

/// Aggregated cost of one frame name across all stacks, in nanoseconds.
struct FrameCost {
  std::string name;
  std::uint64_t self_ns = 0;   // weight of stacks with this frame as the leaf
  std::uint64_t total_ns = 0;  // weight of stacks with this frame anywhere
};

/// Spans of one profiled interval and their aggregations.
struct Profile {
  std::vector<TraceEvent> spans;  // oldest first, as TraceRing::events()
  std::size_t dropped = 0;        // spans the ring overwrote
  std::uint64_t start_ns = 0;     // steady_clock, the TraceEvent time base
  std::uint64_t wall_ns = 0;

  /// Folded stacks ("a;b;c" -> self ns), sorted by stack string. Wall time
  /// outside every root span folds to "(untracked)".
  std::vector<std::pair<std::string, std::uint64_t>> folded() const;

  /// Per-frame self/total ns, sorted by self descending (ties by name).
  /// This is the `ccgraph profile` cost table.
  std::vector<FrameCost> frame_costs() const;

  /// (window trace id, self ns) sorted by trace id; untraced spans and
  /// `(untracked)` time under 0.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> window_costs() const;

  /// flamegraph.pl / speedscope "folded" text: one `a;b;c ns` per line.
  std::string folded_text() const;

  /// Human-readable self/total table (what `ccgraph profile` prints).
  std::string table_text() const;

  /// JSON export: metadata, per-frame costs, per-window time and the
  /// folded stacks.
  std::string to_json() const;
};

/// The global TraceRing's spans over [start, now).
Profile capture(std::chrono::steady_clock::time_point start);

}  // namespace ccg::obs::prof
