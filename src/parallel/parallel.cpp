#include "ccg/parallel/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "ccg/common/expect.hpp"
#include "ccg/obs/log.hpp"
#include "ccg/obs/metrics.hpp"
#include "ccg/obs/span.hpp"
#include "ccg/obs/trace.hpp"

namespace ccg::parallel {

namespace {

/// CCG_THREADS when it is one complete integer in [1, kMaxThreads]; else
/// 0 (the hardware default), with a warning unless it is unset or empty.
int env_thread_count() {
  static const int cached = [] {
    const char* v = std::getenv("CCG_THREADS");
    if (v == nullptr || *v == '\0') return 0;
    const std::string_view text(v);
    const char* last = text.data() + text.size();
    int n = 0;
    const auto [end, ec] = std::from_chars(text.data(), last, n);
    if (ec == std::errc() && end == last && n >= 1 && n <= kMaxThreads) {
      return n;
    }
    obs::log_warn("ignoring CCG_THREADS, using the default thread count",
                  {obs::field("value", text), obs::field("min", 1),
                   obs::field("max", kMaxThreads)});
    return 0;
  }();
  return cached;
}

int default_thread_count() {
  const int env = env_thread_count();
  if (env > 0) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(std::min<unsigned>(hw, kMaxThreads)) : 1;
}

std::atomic<int> g_override{0};

/// True while the current thread runs a job's chunks: a nested
/// parallel_for from a chunk body runs inline instead of forking again.
thread_local bool tls_in_job = false;

using Body = std::function<void(std::size_t, std::size_t, std::size_t)>;

struct Instruments {
  obs::Counter& jobs = obs::Registry::global().counter("ccg.parallel.jobs");
  obs::Counter& chunks = obs::Registry::global().counter("ccg.parallel.chunks");
  obs::Histogram& job_seconds = obs::span_histogram("ccg.parallel.job");
};

/// Registered by the first parallel_for call, forked or not, so a metrics
/// dump lists the same series at every thread count.
Instruments& instruments() {
  static Instruments instance;
  return instance;
}

/// Runs `layout` on `workers` threads: workers - 1 helpers started here
/// and the caller, which takes the last slot. Every chunk runs even after
/// a body throws; the first exception is rethrown once all helpers joined.
void run_forked(std::size_t n, const ChunkLayout& layout, std::size_t workers,
                const Body& body) {
  Instruments& meters = instruments();
  meters.jobs.add();
  meters.chunks.add(layout.count);
  std::atomic<std::size_t> next_chunk{0};
  std::mutex error_mutex;
  std::exception_ptr error;  // guarded by error_mutex
  const auto work = [&](std::size_t slot) {
    tls_in_job = true;
    for (std::size_t chunk = next_chunk.fetch_add(1, std::memory_order_relaxed);
         chunk < layout.count;
         chunk = next_chunk.fetch_add(1, std::memory_order_relaxed)) {
      try {
        body(layout.begin(chunk), layout.end(chunk, n), slot);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    }
    tls_in_job = false;
  };
  {
    // The span installs itself as the trace parent and the helpers run
    // under that context, so spans a chunk body opens nest under the job.
    obs::ScopedSpan span(meters.job_seconds, "ccg.parallel.job");
    const obs::TraceContext ctx = obs::current_trace();
    // Leaving this scope joins every helper, on the exception path too,
    // before anything `work` refers to goes away.
    std::vector<std::jthread> helpers;
    helpers.reserve(workers - 1);
    for (std::size_t slot = 0; slot + 1 < workers; ++slot) {
      helpers.emplace_back([&work, ctx, slot] {
        obs::TraceScope trace(ctx);
        work(slot);
      });
    }
    work(workers - 1);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace

int thread_count() {
  const int override = g_override.load(std::memory_order_relaxed);
  return override > 0 ? override : default_thread_count();
}

void set_thread_count(int n) {
  CCG_EXPECT(n <= kMaxThreads);
  g_override.store(n > 0 ? n : 0, std::memory_order_relaxed);
  obs::Registry::global().gauge("ccg.parallel.threads").set(thread_count());
}

ChunkLayout chunk_layout(std::size_t n, std::size_t min_grain) {
  ChunkLayout layout;
  layout.grain = min_grain > 0 ? min_grain : 1;
  layout.count = n == 0 ? 0 : (n + layout.grain - 1) / layout.grain;
  return layout;
}

void parallel_for(std::size_t n, std::size_t min_grain,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  parallel_for_worker(
      n, min_grain,
      [&](std::size_t begin, std::size_t end, std::size_t) { body(begin, end); });
}

void parallel_for_worker(std::size_t n, std::size_t min_grain, const Body& body) {
  if (n == 0) return;
  instruments();
  const ChunkLayout layout = chunk_layout(n, min_grain);
  const std::size_t workers =
      std::min(static_cast<std::size_t>(thread_count()), layout.count);
  if (workers >= 2 && !tls_in_job) {
    run_forked(n, layout, workers, body);
    return;
  }
  // Same chunk geometry, ascending order: byte-identical to a forked run.
  for (std::size_t chunk = 0; chunk < layout.count; ++chunk) {
    body(layout.begin(chunk), layout.end(chunk, n), 0);
  }
}

std::size_t max_workers() { return static_cast<std::size_t>(thread_count()); }

}  // namespace ccg::parallel
