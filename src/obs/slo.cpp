#include "ccg/obs/slo.hpp"

#include <chrono>
#include <cstdio>
#include <string_view>
#include <utility>

#include "ccg/obs/flight.hpp"
#include "ccg/obs/log.hpp"
#include "ccg/obs/metrics.hpp"

namespace ccg::obs {

namespace {

std::uint64_t steady_now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

std::uint64_t counter_value(const Snapshot& snap, std::string_view name) {
  for (const CounterSample& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

}  // namespace

SloEvaluator::SloEvaluator(SloOptions options) : options_(std::move(options)) {}

SloBreach SloEvaluator::judge(std::size_t idx, const char* signal,
                              double value, double threshold, bool breached) {
  SignalState& state = signals_[idx];
  if (!breached) {
    state.consecutive = 0;
    state.burning = false;
    return {};
  }
  ++state.consecutive;
  SloBreach breach;
  breach.signal = signal;
  breach.value = value;
  breach.threshold = threshold;
  breach.consecutive = state.consecutive;
  if (state.consecutive >= options_.burn_intervals && !state.burning) {
    state.burning = true;
    breach.sustained = true;
  }
  return breach;
}

std::vector<SloBreach> SloEvaluator::evaluate(const SloInputs& inputs) {
  const std::uint64_t stall_delta =
      inputs.stall_dumps >= prev_stalls_ ? inputs.stall_dumps - prev_stalls_
                                         : inputs.stall_dumps;
  const std::uint64_t net_delta =
      inputs.net_events >= prev_net_ ? inputs.net_events - prev_net_
                                     : inputs.net_events;
  const std::uint64_t fallback_delta =
      inputs.fallbacks >= prev_fallbacks_ ? inputs.fallbacks - prev_fallbacks_
                                          : inputs.fallbacks;
  prev_stalls_ = inputs.stall_dumps;
  prev_net_ = inputs.net_events;
  prev_fallbacks_ = inputs.fallbacks;

  if (!primed_) {
    // First call seeds the cumulative baselines; judging the whole history
    // as one interval would fire spurious breaches on startup.
    primed_ = true;
    return {};
  }

  const double lag =
      inputs.window_seen && inputs.now_ns >= inputs.last_window_ns
          ? static_cast<double>(inputs.now_ns - inputs.last_window_ns) * 1e-9
          : 0.0;

  std::vector<SloBreach> breaches;
  const SloBreach candidates[4] = {
      judge(0, "window_lag", lag, options_.window_lag_seconds,
            inputs.window_seen && lag > options_.window_lag_seconds),
      judge(1, "stall", static_cast<double>(stall_delta),
            static_cast<double>(options_.max_stall_dumps),
            stall_delta > options_.max_stall_dumps),
      judge(2, "net", static_cast<double>(net_delta),
            static_cast<double>(options_.max_net_events),
            net_delta > options_.max_net_events),
      judge(3, "fallback", static_cast<double>(fallback_delta),
            static_cast<double>(options_.max_fallbacks),
            fallback_delta > options_.max_fallbacks),
  };
  for (const SloBreach& b : candidates) {
    if (!b.signal.empty()) breaches.push_back(b);
  }
  return breaches;
}

SloWatcher& SloWatcher::global() {
  static SloWatcher* instance = new SloWatcher();  // leaked, like Watchdog
  return *instance;
}

void SloWatcher::start(SloOptions options) {
  stop();
  std::lock_guard lock(mutex_);
  options_ = std::move(options);
  shutdown_ = false;
  running_ = true;
  thread_ = std::thread([this] { watch_loop(); });
}

void SloWatcher::stop() {
  {
    std::lock_guard lock(mutex_);
    if (!running_) return;
    shutdown_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::lock_guard lock(mutex_);
  running_ = false;
}

bool SloWatcher::running() const {
  std::lock_guard lock(mutex_);
  return running_;
}

void SloWatcher::note_window() {
  std::lock_guard lock(mutex_);
  window_seen_ = true;
  last_window_ns_ = steady_now_ns();
}

std::string SloWatcher::status_text() const {
  std::lock_guard lock(mutex_);
  char buf[256];
  std::string out = "slo watcher: ";
  out += running_ ? "running" : "stopped";
  std::snprintf(buf, sizeof(buf),
                "\n  interval_ms=%llu window_lag_s=%g burn_intervals=%u\n",
                static_cast<unsigned long long>(options_.interval_ms),
                options_.window_lag_seconds, options_.burn_intervals);
  out += buf;
  for (const SloBreach& b : last_breaches_) {
    std::snprintf(buf, sizeof(buf),
                  "  breach signal=%s value=%g threshold=%g consecutive=%u\n",
                  b.signal.c_str(), b.value, b.threshold, b.consecutive);
    out += buf;
  }
  if (last_breaches_.empty()) out += "  no active breaches\n";
  return out;
}

void SloWatcher::watch_loop() {
  Registry& reg = Registry::global();
  Counter& evaluations = reg.counter("ccg.slo.evaluations");
  Counter& breach_counter = reg.counter("ccg.slo.breaches");
  Counter& sustained_counter = reg.counter("ccg.slo.sustained");

  SloOptions options;
  {
    std::lock_guard lock(mutex_);
    options = options_;
  }
  SloEvaluator evaluator(options);

  std::unique_lock lock(mutex_);
  while (!shutdown_) {
    cv_.wait_for(lock, std::chrono::milliseconds(options.interval_ms),
                 [this] { return shutdown_; });
    if (shutdown_) break;

    SloInputs inputs;
    inputs.window_seen = window_seen_;
    inputs.last_window_ns = last_window_ns_;
    lock.unlock();

    inputs.now_ns = steady_now_ns();
    inputs.stall_dumps = Watchdog::global().dumps();
    const Snapshot snap = reg.snapshot();
    inputs.net_events = counter_value(snap, "ccg.net.connect_retries") +
                        counter_value(snap, "ccg.net.timeouts") +
                        counter_value(snap, "ccg.net.errors");
    inputs.fallbacks = counter_value(snap, "ccg.incr.full_recomputes");

    const std::vector<SloBreach> breaches = evaluator.evaluate(inputs);
    evaluations.add();
    for (const SloBreach& b : breaches) {
      breach_counter.add();
      if (b.sustained) {
        sustained_counter.add();
        log_error("slo burn sustained",
                  {field("signal", b.signal), field("value", b.value),
                   field("threshold", b.threshold),
                   field("intervals", b.consecutive)});
        const std::string path =
            dump_flight_record(options.flight_dir, "slo-" + b.signal);
        if (!path.empty()) {
          log_error("slo flight record written", {field("path", path)});
        }
      } else {
        log_warn("slo breach",
                 {field("signal", b.signal), field("value", b.value),
                  field("threshold", b.threshold),
                  field("intervals", b.consecutive)});
      }
    }

    lock.lock();
    last_breaches_ = breaches;
  }
}

}  // namespace ccg::obs
