// Causal trace propagation: a TraceContext names the telemetry window a
// piece of work belongs to (trace id) and the span it nests under (parent
// span id). The context is thread-local; boundaries that move work across
// threads (parallel_for's helper threads) capture the submitter's context
// and reinstall it on the executing thread with a TraceScope, so every
// ScopedSpan — wherever it runs — lands in the right window's span tree.
//
// Trace ids for windows are minted deterministically from the window start
// minute: a live run and a store replay of the same data produce the same
// trace ids, which is what makes their span trees comparable.
#pragma once

#include <cstdint>

namespace ccg::obs {

/// The ambient "what window / which parent span" for the current thread.
/// trace_id 0 means "no trace installed"; span_id 0 means "root of the
/// trace" (spans opened under it have no parent).
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  bool active() const noexcept { return trace_id != 0; }
};

/// The calling thread's current context (all-zero when none installed).
TraceContext current_trace() noexcept;

/// Replaces the current thread's context; used by ScopedSpan internally.
/// Prefer TraceScope, which restores the previous context automatically.
void set_current_trace(TraceContext ctx) noexcept;

/// RAII: installs `ctx` for the current thread, restores the previous
/// context on destruction. Place one at every causality boundary: window
/// open, queue consumer, helper thread entering a job.
class TraceScope {
 public:
  explicit TraceScope(TraceContext ctx) noexcept;
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;
  ~TraceScope();

 private:
  TraceContext prev_;
};

/// Process-unique span id; never returns 0.
std::uint64_t next_span_id() noexcept;

/// Deterministic trace id for the telemetry window starting at minute
/// `begin_minute` (splitmix64 of the minute index; never 0). Live
/// streaming and store replay of the same window agree on this id.
std::uint64_t window_trace_id(std::int64_t begin_minute) noexcept;

}  // namespace ccg::obs
