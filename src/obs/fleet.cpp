#include "ccg/obs/fleet.hpp"

#include <algorithm>

namespace ccg::obs {

FleetRegistry& FleetRegistry::global() {
  static FleetRegistry* instance = new FleetRegistry();  // leaked, like Registry
  return *instance;
}

void FleetRegistry::apply(std::uint32_t shard, const Snapshot& delta) {
  std::lock_guard lock(mutex_);
  ++frames_;
  for (const CounterSample& c : delta.counters) {
    counters_[c.name][shard] += c.value;
  }
  for (const GaugeSample& g : delta.gauges) {
    gauges_[g.name][shard] = g.value;
  }
  for (const HistogramSample& h : delta.histograms) {
    HistogramState& state = histograms_[h.name][shard];
    bool additive = state.buckets.size() == h.buckets.size();
    if (additive) {
      for (std::size_t i = 0; i < h.buckets.size(); ++i) {
        if (state.buckets[i].first != h.buckets[i].first) {
          additive = false;
          break;
        }
      }
    }
    if (additive) {
      for (std::size_t i = 0; i < h.buckets.size(); ++i) {
        state.buckets[i].second += h.buckets[i].second;
      }
      state.count += h.count;
      state.sum += h.sum;
    } else {
      // Layout changed (shard restarted with different options); the old
      // series can't be summed with the new one, so start over.
      state.buckets = h.buckets;
      state.count = h.count;
      state.sum = h.sum;
    }
    state.min = h.min;
    state.max = h.max;
  }
}

void FleetRegistry::add_spans(std::uint32_t shard,
                              const std::vector<TraceEvent>& spans) {
  std::lock_guard lock(mutex_);
  ShardSpans& state = spans_[shard];
  for (const TraceEvent& event : spans) {
    if (state.spans.size() >= span_capacity()) {
      ++state.dropped;
      continue;
    }
    state.spans.push_back(event);
  }
}

Snapshot FleetRegistry::labeled_snapshot() const {
  std::lock_guard lock(mutex_);
  Snapshot snap;
  for (const auto& [name, by_shard] : counters_) {
    for (const auto& [shard, value] : by_shard) {
      snap.counters.push_back({name, value, {{"shard", std::to_string(shard)}}});
    }
  }
  for (const auto& [name, by_shard] : gauges_) {
    for (const auto& [shard, value] : by_shard) {
      snap.gauges.push_back({name, value, {{"shard", std::to_string(shard)}}});
    }
  }
  for (const auto& [name, by_shard] : histograms_) {
    for (const auto& [shard, state] : by_shard) {
      HistogramSample s;
      s.name = name;
      s.labels = {{"shard", std::to_string(shard)}};
      s.buckets = state.buckets;
      s.count = state.count;
      s.sum = state.sum;
      s.min = state.min;
      s.max = state.max;
      s.p50 = quantile_from_buckets(s.buckets, s.count, s.min, s.max, 0.50);
      s.p90 = quantile_from_buckets(s.buckets, s.count, s.min, s.max, 0.90);
      s.p99 = quantile_from_buckets(s.buckets, s.count, s.min, s.max, 0.99);
      snap.histograms.push_back(std::move(s));
    }
  }
  return snap;
}

std::vector<std::pair<std::uint32_t, std::vector<TraceEvent>>>
FleetRegistry::spans_by_shard() const {
  std::lock_guard lock(mutex_);
  std::vector<std::pair<std::uint32_t, std::vector<TraceEvent>>> out;
  out.reserve(spans_.size());
  for (const auto& [shard, state] : spans_) {
    if (state.spans.empty() && state.dropped == 0) continue;
    out.emplace_back(shard, state.spans);
  }
  return out;
}

std::size_t FleetRegistry::spans_dropped(std::uint32_t shard) const {
  std::lock_guard lock(mutex_);
  const auto it = spans_.find(shard);
  return it == spans_.end() ? 0 : it->second.dropped;
}

std::uint64_t FleetRegistry::frames_applied() const {
  std::lock_guard lock(mutex_);
  return frames_;
}

bool FleetRegistry::active() const {
  std::lock_guard lock(mutex_);
  return frames_ != 0;
}

void FleetRegistry::clear() {
  std::lock_guard lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  spans_.clear();
  frames_ = 0;
}

namespace {

/// Merge two name-sorted sample runs, unlabeled (local) samples first
/// within a name so to_prometheus groups them under one header.
template <typename Sample>
std::vector<Sample> merge_samples(const std::vector<Sample>& local,
                                  const std::vector<Sample>& fleet) {
  std::vector<Sample> out;
  out.reserve(local.size() + fleet.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < local.size() || j < fleet.size()) {
    if (j >= fleet.size() ||
        (i < local.size() && local[i].name <= fleet[j].name)) {
      out.push_back(local[i++]);
    } else {
      out.push_back(fleet[j++]);
    }
  }
  return out;
}

}  // namespace

Snapshot merge_snapshots(const Snapshot& local, const Snapshot& fleet) {
  Snapshot out;
  out.counters = merge_samples(local.counters, fleet.counters);
  out.gauges = merge_samples(local.gauges, fleet.gauges);
  out.histograms = merge_samples(local.histograms, fleet.histograms);
  return out;
}

}  // namespace ccg::obs
