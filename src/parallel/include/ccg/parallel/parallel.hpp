// Shared fork-join thread pool for the pairwise scorers.
//
// The paper flags the "super-quadratic complexity" of all-pairs similarity
// as the scaling obstacle for micro-segmentation (§2.1); the per-minute
// window budget cannot be burned on one core. Segmentation's pairwise
// kernels (similarity scoring, MinHash/LSH, SimRank sweeps) funnel through
// this facility instead of spawning ad-hoc threads. Everything else runs
// serially: the linear algebra's per-rotation and per-row loops are too
// fine-grained to amortize a pool job (docs/PERFORMANCE.md).
//
// Determinism contract: results are bit-identical across thread counts.
// Work is split into *chunks whose boundaries depend only on the problem
// size*, never on the worker count. Chunks may be claimed by any worker in
// any order (dynamic scheduling for load balance), but bodies write
// disjoint state per index, and results that must be combined (LSH's
// per-band pair lists) are merged serially in index order after the join,
// so scheduling cannot be observed. Hence `--threads 1` and `--threads N`
// produce byte-identical output.
#pragma once

#include <cstddef>
#include <functional>

namespace ccg::parallel {

/// Effective worker count (>= 1). Resolution order: the last positive
/// set_thread_count() value (CLI --threads), else the CCG_THREADS
/// environment variable (read once), else std::thread::hardware_concurrency.
int thread_count();

/// Overrides thread_count(); n <= 0 restores the env/hardware default.
/// The pool grows lazily; shrinking just idles the extra workers.
void set_thread_count(int n);

/// Fixed work-splitting geometry: ceil(n / grain) chunks of `grain` items
/// (last chunk short). Depends only on (n, min_grain) — the foundation of
/// the cross-thread-count determinism guarantee.
struct ChunkLayout {
  std::size_t count = 0;  // number of chunks
  std::size_t grain = 1;  // items per chunk (last may be smaller)

  std::size_t begin(std::size_t chunk) const { return chunk * grain; }
  std::size_t end(std::size_t chunk, std::size_t n) const {
    const std::size_t e = (chunk + 1) * grain;
    return e < n ? e : n;
  }
};

ChunkLayout chunk_layout(std::size_t n, std::size_t min_grain);

/// Runs body(begin, end) over [0, n) split per chunk_layout(n, min_grain),
/// blocking until every chunk completed. The body must only write state
/// disjoint per index (or per chunk). Runs inline when the pool has one
/// thread, when n fits a single chunk, or when called from inside another
/// parallel region (nesting executes serially rather than deadlocking).
/// The first exception thrown by a body is rethrown on the calling thread
/// after the join.
void parallel_for(std::size_t n, std::size_t min_grain,
                  const std::function<void(std::size_t, std::size_t)>& body);

/// Like parallel_for, but the body also receives a dense worker slot index
/// in [0, max_workers()) identifying the executing thread — for reusable
/// per-thread scratch (e.g. similarity's StampedView). Scratch reuse across
/// chunks must not change per-chunk results.
void parallel_for_worker(
    std::size_t n, std::size_t min_grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

/// Upper bound on the worker slot index passed to parallel_for_worker
/// (callers size per-thread scratch arrays with this). At least 1.
std::size_t max_workers();

/// Names the subsystem on whose behalf pool jobs submitted by this thread
/// run (thread-local, RAII-nested; innermost wins). Tagged jobs record
/// into `ccg.parallel.job.<tag>.seconds` alongside the aggregate
/// `ccg.parallel.job.seconds`, and their trace spans are named
/// `ccg.parallel.job.<tag>` — pool time becomes attributable instead of
/// anonymous. `tag` must be a string literal (kept by pointer). Untagged
/// jobs land under "other".
class ScopedJobTag {
 public:
  explicit ScopedJobTag(const char* tag) noexcept;
  ScopedJobTag(const ScopedJobTag&) = delete;
  ScopedJobTag& operator=(const ScopedJobTag&) = delete;
  ~ScopedJobTag();

 private:
  const char* prev_;
};

}  // namespace ccg::parallel
