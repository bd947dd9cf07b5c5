#include "ccg/workload/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "ccg/common/expect.hpp"

namespace ccg {

Cluster::Cluster(ClusterSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), rng_(seed) {
  spec_.validate();

  // Instantiate roles.
  instances_.resize(spec_.roles.size());
  for (std::uint32_t r = 0; r < spec_.roles.size(); ++r) {
    const RoleSpec& role = spec_.roles[r];
    instances_[r].reserve(role.instance_count);
    for (std::uint32_t i = 0; i < role.instance_count; ++i) {
      Instance inst{.id = {r, i}, .ip = allocate_ip(role.is_external), .active = true};
      ip_to_instance_.emplace(inst.ip, inst.id);
      instances_[r].push_back(inst);
    }
  }

  // Precompute affinity subsets per pattern: which server ordinals each
  // client instance may contact. Deterministic given the seed.
  pattern_states_.reserve(spec_.patterns.size());
  for (std::size_t p = 0; p < spec_.patterns.size(); ++p) {
    const TrafficPattern& pattern = spec_.patterns[p];
    const RoleSpec* client_role = spec_.find_role(pattern.client_role);
    const RoleSpec* server_role = spec_.find_role(pattern.server_role);
    CCG_ENSURE(client_role && server_role);

    const auto server_count = server_role->instance_count;
    const auto subset_size = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::llround(pattern.fanout_fraction * static_cast<double>(server_count))));

    PatternState state;
    state.pattern_index = p;
    state.affinity.resize(client_role->instance_count);
    std::vector<std::uint32_t> ordinals(server_count);
    for (std::uint32_t i = 0; i < server_count; ++i) ordinals[i] = i;
    for (auto& subset : state.affinity) {
      // Partial Fisher-Yates: choose subset_size servers for this client.
      for (std::size_t i = 0; i < subset_size; ++i) {
        const auto j = i + rng_.uniform(server_count - i);
        std::swap(ordinals[i], ordinals[j]);
      }
      subset.assign(ordinals.begin(), ordinals.begin() + static_cast<std::ptrdiff_t>(subset_size));
    }
    if (pattern.zipf_s > 0.0 && subset_size > 1) {
      state.popularity.emplace(subset_size, pattern.zipf_s);
    }
    pattern_states_.push_back(std::move(state));
  }
}

IpAddr Cluster::allocate_ip(bool external) {
  const IpPrefix& space = external ? spec_.external_space : spec_.internal_space;
  auto& next = external ? next_external_ : next_internal_;
  CCG_ENSURE(next < space.size());
  return space.at(next++);
}

IpAddr Cluster::allocate_external_ip() { return allocate_ip(/*external=*/true); }

double Cluster::load_multiplier(MinuteBucket minute) {
  const double phase = 2.0 * std::numbers::pi *
                       static_cast<double>(minute.index() % 1440) / 1440.0;
  double mult = 1.0 + spec_.diurnal_amplitude * std::sin(phase);
  if (spec_.load_noise_sigma > 0.0) {
    mult *= std::exp(rng_.normal(0.0, spec_.load_noise_sigma));
  }
  return std::max(0.0, mult);
}

std::uint16_t Cluster::ephemeral_port(const TrafficPattern& pattern,
                                      InstanceId client,
                                      std::uint32_t server_ordinal,
                                      std::uint64_t conn_index) {
  constexpr std::uint32_t kBase = 32768;
  constexpr std::uint32_t kRange = 60999 - 32768;
  if (pattern.port_reuse == PortReuse::kEphemeral) {
    // Fresh port per connection: this is what blows up IP-port graphs.
    return static_cast<std::uint16_t>(kBase + rng_.uniform(kRange));
  }
  // Persistent connections: a small stable pool per (client, server) pair.
  constexpr std::uint64_t kSlots = 2;
  std::uint64_t h = (std::uint64_t{client.role} << 40) ^
                    (std::uint64_t{client.ordinal} << 20) ^
                    (std::uint64_t{server_ordinal} << 4) ^
                    (conn_index % kSlots) ^
                    (std::uint64_t{pattern.server_port} << 48);
  h *= 0x9E3779B97F4A7C15ull;
  return static_cast<std::uint16_t>(kBase + (h >> 32) % kRange);
}

void Cluster::emit_pattern(const TrafficPattern& pattern, PatternState& state,
                           double load, std::vector<FlowActivity>& out) {
  const RoleSpec* client_role = spec_.find_role(pattern.client_role);
  const RoleSpec* server_role = spec_.find_role(pattern.server_role);
  const auto client_role_idx = static_cast<std::uint32_t>(client_role - spec_.roles.data());
  const auto server_role_idx = static_cast<std::uint32_t>(server_role - spec_.roles.data());

  const double mean_conns = pattern.connections_per_minute * load;
  for (std::uint32_t c = 0; c < state.affinity.size(); ++c) {
    const Instance& client = instance(client_role_idx, c);
    if (!client.active) continue;
    const std::uint64_t conns = rng_.poisson(mean_conns);
    if (conns == 0) continue;

    const auto& subset = state.affinity[c];
    for (std::uint64_t k = 0; k < conns; ++k) {
      const std::size_t pick =
          state.popularity ? state.popularity->sample(rng_) : rng_.uniform(subset.size());
      const std::uint32_t server_ordinal = subset[pick];
      const Instance& server = instance(server_role_idx, server_ordinal);
      if (!server.active) continue;

      const double req = rng_.lognormal(pattern.bytes_mu, pattern.bytes_sigma);
      const double rep = req * pattern.reply_factor * std::exp(rng_.normal(0.0, 0.2));
      const auto bytes_sent = static_cast<std::uint64_t>(std::max(64.0, req));
      const auto bytes_rcvd = static_cast<std::uint64_t>(std::max(0.0, rep));
      auto packets = [&](std::uint64_t bytes) {
        return bytes == 0 ? 0
                          : std::max<std::uint64_t>(
                                1, static_cast<std::uint64_t>(
                                       static_cast<double>(bytes) / pattern.mean_packet_bytes));
      };

      out.push_back(FlowActivity{
          .flow = FlowKey{.local_ip = client.ip,
                          .local_port = ephemeral_port(pattern, client.id, server_ordinal, k),
                          .remote_ip = server.ip,
                          .remote_port = pattern.server_port,
                          .protocol = pattern.protocol},
          .counters = TrafficCounters{.packets_sent = packets(bytes_sent),
                                      .packets_rcvd = packets(bytes_rcvd),
                                      .bytes_sent = bytes_sent,
                                      .bytes_rcvd = bytes_rcvd},
          .malicious = false});
    }
  }
}

void Cluster::generate_minute(MinuteBucket minute, std::vector<FlowActivity>& out) {
  const double load = load_multiplier(minute);
  for (auto& state : pattern_states_) {
    emit_pattern(spec_.patterns[state.pattern_index], state, load, out);
  }
}

std::vector<std::string> Cluster::apply_churn(MinuteBucket) {
  std::vector<std::string> churned;
  for (std::uint32_t r = 0; r < spec_.roles.size(); ++r) {
    const RoleSpec& role = spec_.roles[r];
    if (role.is_external || role.churn_per_hour <= 0.0) continue;
    const double per_minute = role.churn_per_hour / 60.0;
    for (auto& inst : instances_[r]) {
      if (!rng_.chance(per_minute)) continue;
      // Replace the instance: retire the old IP, allocate a fresh one.
      ip_to_instance_.erase(inst.ip);
      inst.ip = allocate_ip(/*external=*/false);
      ip_to_instance_.emplace(inst.ip, inst.id);
      churned.push_back(role.name);
    }
  }
  return churned;
}

std::optional<std::string> Cluster::role_of(IpAddr ip) const {
  auto it = ip_to_instance_.find(ip);
  if (it == ip_to_instance_.end()) return std::nullopt;
  return spec_.roles[it->second.role].name;
}

std::vector<IpAddr> Cluster::ips_of_role(const std::string& role) const {
  std::vector<IpAddr> out;
  for (std::uint32_t r = 0; r < spec_.roles.size(); ++r) {
    if (spec_.roles[r].name != role) continue;
    for (const auto& inst : instances_[r]) {
      if (inst.active) out.push_back(inst.ip);
    }
  }
  return out;
}

std::vector<IpAddr> Cluster::monitored_ips() const {
  std::vector<IpAddr> out;
  for (std::uint32_t r = 0; r < spec_.roles.size(); ++r) {
    if (spec_.roles[r].is_external) continue;
    for (const auto& inst : instances_[r]) {
      if (inst.active) out.push_back(inst.ip);
    }
  }
  return out;
}

std::unordered_map<IpAddr, std::string> Cluster::ground_truth_roles() const {
  std::unordered_map<IpAddr, std::string> out;
  out.reserve(ip_to_instance_.size());
  for (const auto& [ip, id] : ip_to_instance_) {
    out.emplace(ip, spec_.roles[id.role].name);
  }
  return out;
}

std::size_t Cluster::monitored_count() const {
  std::size_t total = 0;
  for (std::uint32_t r = 0; r < spec_.roles.size(); ++r) {
    if (!spec_.roles[r].is_external) total += instances_[r].size();
  }
  return total;
}

IpAddr Cluster::random_monitored_ip(Rng& rng) const {
  auto ips = monitored_ips();
  CCG_EXPECT(!ips.empty());
  return ips[rng.uniform(ips.size())];
}

}  // namespace ccg
