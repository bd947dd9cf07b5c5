// Host collector agents and the subscription-wide telemetry stream.
//
// Each host runs an agent that pulls its SmartNIC flow table once per
// aggregation interval and forwards the summaries (paper Fig. 7). The
// TelemetryHub fans all agents into one ordered stream and keeps the COGS
// ledger (records, bytes, $) that the paper's viability argument rests on.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ccg/common/ip.hpp"
#include "ccg/obs/metrics.hpp"
#include "ccg/telemetry/flow_table.hpp"
#include "ccg/telemetry/provider.hpp"
#include "ccg/telemetry/record.hpp"

namespace ccg {

/// Receives batches of connection summaries; implemented by the analytics
/// pipeline, file writers, or test fixtures.
class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;
  virtual void on_batch(MinuteBucket time, const std::vector<ConnectionSummary>& batch) = 0;
};

/// Running cost/volume ledger for a telemetry deployment.
struct TelemetryLedger {
  std::uint64_t records = 0;
  std::uint64_t wire_bytes = 0;
  double cost_dollars = 0.0;
  std::uint64_t intervals = 0;

  double records_per_minute() const {
    return intervals == 0 ? 0.0 : static_cast<double>(records) / static_cast<double>(intervals);
  }
};

/// One host's agent: owns the host flow table, applies the provider's
/// sampling model, forwards to the hub.
class HostAgent {
 public:
  HostAgent(IpAddr host_ip, std::size_t flow_table_capacity,
            const ProviderProfile& profile, std::uint64_t seed);

  /// Records one interval's activity of one flow whose local endpoint lives
  /// on this host.
  void observe(const FlowKey& key, const TrafficCounters& delta, MinuteBucket now,
               Initiator initiator = Initiator::kUnknown);

  /// Pulls + samples this interval's summaries.
  std::vector<ConnectionSummary> collect(MinuteBucket now);

  IpAddr host_ip() const { return host_ip_; }
  const FlowTable& flow_table() const { return table_; }

 private:
  IpAddr host_ip_;
  FlowTable table_;
  ProviderSampler sampler_;
  std::vector<ConnectionSummary> pending_evicted_;
};

/// Fans per-host agents into one stream; routes flow activity to the right
/// host by local IP; meters COGS.
class TelemetryHub {
 public:
  explicit TelemetryHub(ProviderProfile profile, std::uint64_t seed = 1,
                        std::size_t flow_table_capacity = 1 << 16);

  /// Registers a host (idempotent). Every VM in the simulated subscription
  /// gets an agent, mirroring "programmable NICs attached to all hosts".
  void add_host(IpAddr host_ip);
  bool has_host(IpAddr host_ip) const { return agents_.contains(host_ip); }
  std::size_t host_count() const { return agents_.size(); }

  /// Records flow activity. The local endpoint must belong to a registered
  /// host; activity from unknown local IPs (e.g. internet peers) is ignored
  /// because no NIC we control observes their side.
  void observe(const FlowKey& key, const TrafficCounters& delta, MinuteBucket now,
               Initiator initiator = Initiator::kUnknown);

  /// Ends the interval: collects every agent, emits one merged batch to the
  /// sink (if any), updates the ledger, and returns the batch.
  std::vector<ConnectionSummary> end_interval(MinuteBucket now);

  void set_sink(TelemetrySink* sink) { sink_ = sink; }
  const TelemetryLedger& ledger() const { return ledger_; }
  const ProviderProfile& profile() const { return profile_; }

  /// Total simulated SmartNIC memory across hosts.
  std::size_t total_flow_table_bytes() const;

 private:
  ProviderProfile profile_;
  std::uint64_t seed_;
  std::size_t flow_table_capacity_;
  std::unordered_map<IpAddr, std::unique_ptr<HostAgent>> agents_;
  TelemetrySink* sink_ = nullptr;
  TelemetryLedger ledger_;
  // Global-registry mirrors of the ledger ("ccg.telemetry.*"): records and
  // batches flushed, plus an end_interval (flush) latency histogram.
  obs::Counter* m_records_ = nullptr;
  obs::Counter* m_batches_ = nullptr;
  obs::Histogram* m_flush_latency_ = nullptr;
};

}  // namespace ccg
