#include "ccg/obs/fleet.hpp"

#include <algorithm>

namespace ccg::obs {

namespace {

/// One kind of every shard's samples, each stamped with its shard number,
/// sorted by name. Stable: the samples of one name keep the ascending
/// shard order of `by_shard`.
template <typename Sample>
std::vector<Sample> labeled(const std::map<std::uint32_t, Snapshot>& by_shard,
                            std::vector<Sample> Snapshot::*kind) {
  std::vector<Sample> out;
  for (const auto& [shard, snapshot] : by_shard) {
    for (Sample sample : snapshot.*kind) {
      sample.shard = shard;
      out.push_back(std::move(sample));
    }
  }
  std::stable_sort(out.begin(), out.end(), [](const Sample& a, const Sample& b) {
    return a.name < b.name;
  });
  return out;
}

/// Merge two name-sorted sample runs, the local (shardless) samples first
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

FleetRegistry& FleetRegistry::global() {
  static FleetRegistry* instance = new FleetRegistry();  // leaked, like Registry
  return *instance;
}

void FleetRegistry::apply(std::uint32_t shard, Snapshot snapshot) {
  std::lock_guard lock(mutex_);
  ++frames_;
  metrics_[shard] = std::move(snapshot);
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
  return {labeled(metrics_, &Snapshot::counters),
          labeled(metrics_, &Snapshot::gauges),
          labeled(metrics_, &Snapshot::histograms)};
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

void FleetRegistry::clear() {
  std::lock_guard lock(mutex_);
  metrics_.clear();
  spans_.clear();
  frames_ = 0;
}

Snapshot process_snapshot() {
  const Snapshot local = Registry::global().snapshot();
  const Snapshot shards = FleetRegistry::global().labeled_snapshot();
  return {merge_samples(local.counters, shards.counters),
          merge_samples(local.gauges, shards.gauges),
          merge_samples(local.histograms, shards.histograms)};
}

}  // namespace ccg::obs
