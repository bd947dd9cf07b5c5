// Scoped fork-join for the pairwise scorers.
//
// The paper flags the "super-quadratic complexity" of all-pairs similarity
// as the scaling obstacle for micro-segmentation (§2.1); the per-minute
// window budget cannot be burned on one core. Segmentation's pairwise
// kernels (similarity scoring, MinHash/LSH, SimRank sweeps) funnel through
// this facility instead of spawning ad-hoc threads. Everything else runs
// serially: the linear algebra's per-rotation and per-row loops are too
// fine-grained to amortize a job (docs/PERFORMANCE.md).
//
// There is no standing pool: a call that forks starts its helper threads
// and joins them before it returns. The scorers fork about one job per
// window, so thread start-up (~0.1 ms a job on the k8s preset) stays
// under 1% of a window.
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

/// Largest thread count: the bound on --threads and on CCG_THREADS.
inline constexpr int kMaxThreads = 1024;

/// Effective worker count in [1, kMaxThreads]. Resolution order: the last
/// positive set_thread_count() value (CLI --threads), else the CCG_THREADS
/// environment variable (read once; anything but one integer in
/// [1, kMaxThreads] is ignored with a warning), else
/// std::thread::hardware_concurrency.
int thread_count();

/// Overrides thread_count(); n <= 0 restores the env/hardware default.
/// Resolves the count at once (reading CCG_THREADS on first use) and
/// exports it as the `ccg.parallel.threads` gauge. Throws
/// ContractViolation when n > kMaxThreads.
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
/// disjoint per index (or per chunk). With thread_count() >= 2 and at
/// least two chunks, starts min(thread_count(), chunks) - 1 helper threads
/// and runs the last worker slot on the caller; all helpers are joined
/// before the call returns. Runs inline on one thread, on a single chunk,
/// or when called from inside another job's chunk (nesting executes
/// serially). The first exception thrown by a body is rethrown on the
/// calling thread after the join.
void parallel_for(std::size_t n, std::size_t min_grain,
                  const std::function<void(std::size_t, std::size_t)>& body);

/// Like parallel_for, but the body also receives a dense worker slot index
/// in [0, max_workers()) identifying the executing thread — for reusable
/// per-thread scratch (e.g. similarity's per-worker row counters). Scratch
/// reuse across chunks must not change per-chunk results.
void parallel_for_worker(
    std::size_t n, std::size_t min_grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

/// Upper bound on the worker slot index passed to parallel_for_worker
/// (callers size per-thread scratch arrays with this). At least 1.
std::size_t max_workers();

}  // namespace ccg::parallel
