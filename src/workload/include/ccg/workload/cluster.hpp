// Instantiated cluster: concrete IPs per role instance, affinity subsets,
// and per-minute flow-activity synthesis.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ccg/common/flow.hpp"
#include "ccg/common/ip.hpp"
#include "ccg/common/rng.hpp"
#include "ccg/common/time.hpp"
#include "ccg/telemetry/record.hpp"
#include "ccg/workload/spec.hpp"

namespace ccg {

/// One minute of one flow's activity, oriented client-side (local = client).
/// The telemetry driver mirrors it to produce the server-side observation.
struct FlowActivity {
  FlowKey flow;              // local = client (ephemeral port), remote = server
  TrafficCounters counters;  // from the client's perspective
  bool malicious = false;    // ground truth, for detector evaluation
};

/// Stable identifier for a role instance, independent of its current IP
/// (IPs change under churn; the instance's ground-truth role does not).
struct InstanceId {
  std::uint32_t role = 0;
  std::uint32_t ordinal = 0;
  friend constexpr auto operator<=>(InstanceId, InstanceId) = default;
};

class Cluster {
 public:
  /// Builds a cluster from a validated spec. The same (spec, seed) pair
  /// always yields the same IPs, affinities and traffic.
  Cluster(ClusterSpec spec, std::uint64_t seed);

  const ClusterSpec& spec() const { return spec_; }
  const std::string& name() const { return spec_.name; }

  /// Synthesizes one minute of traffic into `out` (appended). Deterministic
  /// given construction seed and the sequence of calls made so far.
  void generate_minute(MinuteBucket minute, std::vector<FlowActivity>& out);

  /// Applies instance churn for one minute: each non-external instance is
  /// replaced (fresh IP, same role) with per-minute probability derived
  /// from its role's churn_per_hour. Returns the replaced instances' roles.
  std::vector<std::string> apply_churn(MinuteBucket minute);

  // --- Ground truth / introspection -------------------------------------

  /// Role name for an IP, or nullopt for unknown/stale IPs.
  std::optional<std::string> role_of(IpAddr ip) const;

  /// All *currently active* IPs of a role. Empty if no such role.
  std::vector<IpAddr> ips_of_role(const std::string& role) const;

  /// All currently active monitored (internal, non-external) IPs.
  std::vector<IpAddr> monitored_ips() const;

  /// Ground-truth role label per active IP; the segmentation experiments
  /// score inferred µsegments against this map.
  std::unordered_map<IpAddr, std::string> ground_truth_roles() const;

  std::size_t monitored_count() const;

  // --- Hooks used by attack injectors ------------------------------------

  /// Uniformly random active monitored IP.
  IpAddr random_monitored_ip(Rng& rng) const;

  /// A fresh IP from the external pool (attacker-controlled sink, etc.).
  IpAddr allocate_external_ip();

  Rng& rng() { return rng_; }

 private:
  struct Instance {
    InstanceId id;
    IpAddr ip;
    bool active = true;
  };

  struct PatternState {
    // Index into spec_.patterns.
    std::size_t pattern_index;
    // Per client ordinal: the ordinals of the servers in its affinity set.
    std::vector<std::vector<std::uint32_t>> affinity;
    // Popularity sampler over each affinity set (same size for all clients).
    std::optional<ZipfSampler> popularity;
  };

  double load_multiplier(MinuteBucket minute);
  IpAddr allocate_ip(bool external);
  const Instance& instance(std::uint32_t role, std::uint32_t ordinal) const {
    return instances_[role][ordinal];
  }
  std::uint16_t ephemeral_port(const TrafficPattern& pattern,
                               InstanceId client, std::uint32_t server_ordinal,
                               std::uint64_t conn_index);
  void emit_pattern(const TrafficPattern& pattern, PatternState& state,
                    double load, std::vector<FlowActivity>& out);

  ClusterSpec spec_;
  Rng rng_;
  std::vector<std::vector<Instance>> instances_;  // [role][ordinal]
  std::vector<PatternState> pattern_states_;
  std::unordered_map<IpAddr, InstanceId> ip_to_instance_;
  std::uint64_t next_internal_ = 0;
  std::uint64_t next_external_ = 0;
};

}  // namespace ccg
