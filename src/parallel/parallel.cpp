#include "ccg/parallel/parallel.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "ccg/obs/metrics.hpp"
#include "ccg/obs/span.hpp"
#include "ccg/obs/trace.hpp"

namespace ccg::parallel {

namespace {

int env_thread_count() {
  static const int cached = [] {
    const char* v = std::getenv("CCG_THREADS");
    if (v == nullptr || *v == '\0') return 0;
    const long n = std::strtol(v, nullptr, 10);
    return n > 0 && n <= 1024 ? static_cast<int>(n) : 0;
  }();
  return cached;
}

int default_thread_count() {
  const int env = env_thread_count();
  if (env > 0) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

std::atomic<int> g_override{0};

/// True while the current thread is executing a pool chunk: nested
/// parallel_for calls from kernel code run inline instead of deadlocking
/// on the (single, non-reentrant) job slot.
thread_local bool tls_in_worker = false;

/// Innermost ScopedJobTag on this thread (submitter side).
thread_local const char* tls_job_tag = nullptr;

/// Per-tag attribution: the interned span name ("ccg.parallel.job.<tag>")
/// and its latency histogram, registered once per distinct tag and leaked
/// with the registry so span-name pointers stay valid forever.
struct TagInstruments {
  const std::string* span_name;
  obs::Histogram* seconds;
};

TagInstruments tag_instruments(const char* tag) {
  static std::mutex mutex;
  static auto* by_tag = new std::map<std::string, TagInstruments>();
  std::lock_guard<std::mutex> lock(mutex);
  auto [it, inserted] =
      by_tag->try_emplace(tag != nullptr ? tag : "other", TagInstruments{});
  if (inserted) {
    auto* name = new std::string("ccg.parallel.job." + it->first);
    it->second.span_name = name;
    it->second.seconds = &obs::span_histogram(*name);
  }
  return it->second;
}

struct Job {
  std::size_t n = 0;
  ChunkLayout layout;
  const std::function<void(std::size_t, std::size_t, std::size_t)>* body = nullptr;
  obs::TraceContext ctx;  // workers run chunks under the job's span
  std::atomic<std::size_t> next_chunk{0};
  std::atomic<std::size_t> done_chunks{0};
  std::atomic<std::uint64_t> busy_workers{0};
  std::size_t refs = 0;  // workers currently inside work(); guarded by Pool::mutex_
  std::exception_ptr error;  // first body exception, guarded by error_mutex
  std::mutex error_mutex;
};

/// Lazily grown fork-join pool. One job runs at a time (external submitters
/// serialize on submit_mutex_); workers pull chunks with an atomic ticket,
/// so scheduling is dynamic while chunk geometry stays fixed.
class Pool {
 public:
  static Pool& instance() {
    static Pool* pool = new Pool();  // leaked: workers may outlive main()'s locals
    return *pool;
  }

  void run(std::size_t n, const ChunkLayout& layout,
           const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
    const int threads = thread_count();
    if (threads <= 1 || layout.count <= 1 || tls_in_worker) {
      run_inline(n, layout, body);
      return;
    }

    // Attribution captured on the submitting thread before the handoff:
    // which subsystem asked for the work, and which window/span it belongs
    // to. Workers reinstall the job context so spans opened inside chunk
    // bodies nest under this job's span.
    const TagInstruments tag = tag_instruments(tls_job_tag);
    const obs::TraceContext submit_ctx = obs::current_trace();
    const bool traced = obs::TraceRing::global().enabled();
    const std::uint64_t job_span = traced ? obs::next_span_id() : 0;

    std::unique_lock<std::mutex> submit(submit_mutex_);
    ensure_workers(threads - 1);

    Job job;
    job.n = n;
    job.layout = layout;
    job.body = &body;
    job.ctx = {submit_ctx.trace_id, job_span};

    obs_jobs_->add();
    obs_chunks_->add(layout.count);
    const auto start = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      active_job_ = &job;
      active_limit_ = static_cast<std::size_t>(threads - 1);
      ++epoch_;
    }
    cv_.notify_all();

    // The submitting thread participates with the highest worker slot so
    // slots stay dense in [0, max_workers()). It is flagged as in-worker
    // for the duration: a nested parallel_for from its own chunk body must
    // run inline rather than re-enter submit_mutex_ (self-deadlock).
    tls_in_worker = true;
    work(job, static_cast<std::size_t>(threads - 1));
    tls_in_worker = false;

    // Wait until every chunk ran AND no worker still holds a reference to
    // the stack-allocated job (a late-waking worker may enter work() after
    // the chunks are exhausted; it must leave before the job is destroyed).
    {
      std::unique_lock<std::mutex> lock(mutex_);
      done_cv_.wait(lock, [&] {
        return job.refs == 0 &&
               job.done_chunks.load(std::memory_order_acquire) == layout.count;
      });
      active_job_ = nullptr;
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    obs_job_seconds_->record(seconds);
    tag.seconds->record(seconds);
    obs_busy_hwm_->update_max(
        static_cast<double>(job.busy_workers.load(std::memory_order_relaxed)));
    if (traced && obs::TraceRing::global().enabled()) {
      obs::TraceEvent event;
      event.name = *tag.span_name;
      event.start_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              start.time_since_epoch())
              .count());
      event.duration_ns = static_cast<std::uint64_t>(seconds * 1e9);
      event.thread_hash =
          std::hash<std::thread::id>{}(std::this_thread::get_id());
      event.trace_id = submit_ctx.trace_id;
      event.span_id = job_span;
      event.parent_id = submit_ctx.span_id;
      obs::TraceRing::global().push(std::move(event));
    }
    if (job.error) std::rethrow_exception(job.error);
  }

  std::size_t slot_bound() {
    const int threads = thread_count();
    return threads > 0 ? static_cast<std::size_t>(threads) : 1;
  }

 private:
  Pool()
      : obs_jobs_(&obs::Registry::global().counter("ccg.parallel.jobs")),
        obs_chunks_(&obs::Registry::global().counter("ccg.parallel.chunks")),
        obs_pool_size_(&obs::Registry::global().gauge("ccg.parallel.pool.threads")),
        obs_busy_hwm_(
            &obs::Registry::global().gauge("ccg.parallel.busy.workers.hwm")),
        obs_job_seconds_(
            &obs::Registry::global().histogram("ccg.parallel.job.seconds")) {}

  static void run_inline(
      std::size_t n, const ChunkLayout& layout,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
    // Same chunk geometry, ascending order: byte-identical to the pooled run.
    for (std::size_t chunk = 0; chunk < layout.count; ++chunk) {
      body(layout.begin(chunk), layout.end(chunk, n), 0);
    }
  }

  void ensure_workers(std::size_t needed) {
    std::lock_guard<std::mutex> lock(mutex_);
    while (workers_.size() < needed) {
      const std::size_t slot = workers_.size();
      workers_.emplace_back([this, slot] { worker_loop(slot); });
    }
    obs_pool_size_->update_max(static_cast<double>(workers_.size() + 1));
  }

  void worker_loop(std::size_t slot) {
    tls_in_worker = true;
    std::uint64_t seen_epoch = 0;
    for (;;) {
      Job* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return epoch_ != seen_epoch; });
        seen_epoch = epoch_;
        // A shrunk pool parks the surplus workers: they see epochs but no job.
        if (active_job_ != nullptr && slot < active_limit_) {
          job = active_job_;
          ++job->refs;
        }
      }
      if (job != nullptr) {
        work(*job, slot);
        std::lock_guard<std::mutex> lock(mutex_);
        if (--job->refs == 0) done_cv_.notify_all();
      }
    }
  }

  void work(Job& job, std::size_t slot) {
    // Chunk bodies run under the job's trace context, so any span they
    // open nests below the ccg.parallel.job.<tag> span — even though this
    // thread never saw the submitting code.
    obs::TraceScope trace(job.ctx);
    job.busy_workers.fetch_add(1, std::memory_order_relaxed);
    const std::size_t chunks = job.layout.count;
    for (;;) {
      const std::size_t chunk =
          job.next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= chunks) break;
      try {
        (*job.body)(job.layout.begin(chunk), job.layout.end(chunk, job.n), slot);
      } catch (...) {
        std::lock_guard<std::mutex> lock(job.error_mutex);
        if (!job.error) job.error = std::current_exception();
      }
      if (job.done_chunks.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks) {
        std::lock_guard<std::mutex> lock(mutex_);
        done_cv_.notify_all();
      }
    }
  }

  std::mutex submit_mutex_;  // one job at a time; concurrent submitters queue

  std::mutex mutex_;
  std::condition_variable cv_;       // wakes workers on a new epoch
  std::condition_variable done_cv_;  // wakes the submitter on completion
  std::vector<std::thread> workers_; // detached-by-leak: pool lives forever
  Job* active_job_ = nullptr;
  std::size_t active_limit_ = 0;
  std::uint64_t epoch_ = 0;

  obs::Counter* obs_jobs_;
  obs::Counter* obs_chunks_;
  obs::Gauge* obs_pool_size_;
  obs::Gauge* obs_busy_hwm_;
  obs::Histogram* obs_job_seconds_;
};

}  // namespace

int thread_count() {
  const int override = g_override.load(std::memory_order_relaxed);
  return override > 0 ? override : default_thread_count();
}

void set_thread_count(int n) {
  g_override.store(n > 0 ? n : 0, std::memory_order_relaxed);
}

ChunkLayout chunk_layout(std::size_t n, std::size_t min_grain) {
  ChunkLayout layout;
  layout.grain = min_grain > 0 ? min_grain : 1;
  layout.count = n == 0 ? 0 : (n + layout.grain - 1) / layout.grain;
  return layout;
}

ScopedJobTag::ScopedJobTag(const char* tag) noexcept : prev_(tls_job_tag) {
  tls_job_tag = tag;
}

ScopedJobTag::~ScopedJobTag() { tls_job_tag = prev_; }

void parallel_for(std::size_t n, std::size_t min_grain,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  parallel_for_worker(
      n, min_grain,
      [&](std::size_t begin, std::size_t end, std::size_t) { body(begin, end); });
}

void parallel_for_worker(
    std::size_t n, std::size_t min_grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  Pool::instance().run(n, chunk_layout(n, min_grain), body);
}

std::size_t max_workers() { return Pool::instance().slot_bound(); }

}  // namespace ccg::parallel
