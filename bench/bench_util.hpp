// Shared harness for the experiment benches: simulate a cluster preset for
// N hours through the SmartNIC telemetry path and build per-hour graphs.
//
// Each bench binary regenerates one table or figure of the paper. The
// rate_scale defaults below keep the big presets tractable on a laptop
// while preserving topology (node/edge structure) — EXPERIMENTS.md records
// both the paper's numbers and ours.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "ccg/graph/builder.hpp"
#include "ccg/telemetry/collector.hpp"
#include "ccg/workload/driver.hpp"
#include "ccg/workload/presets.hpp"

namespace ccg::bench {

/// Default traffic-intensity scales per preset (1.0 = calibrated target).
double default_rate_scale(const std::string& preset_name);

struct SimulationResult {
  std::vector<CommGraph> hourly_graphs;      // one per simulated hour
  std::vector<CommGraph> hourly_port_graphs; // filled when want_ip_port
  TelemetryLedger ledger;
  std::unordered_map<IpAddr, std::string> roles;  // ground truth
  std::unordered_set<IpAddr> monitored;
  std::uint64_t activities = 0;
  double simulate_seconds = 0.0;
};

struct SimulateOptions {
  int hours = 1;
  std::uint64_t seed = 2023;
  double collapse_threshold = 0.001;  // paper's 0.1% heavy-hitter rule
  bool want_ip_port = false;
  ProviderProfile provider = ProviderProfile::azure();
  /// Injectors are installed before minute 0 (caller keeps configuring the
  /// windows). Ownership transfers to the driver.
  std::vector<Injector*> injectors;
};

/// Runs the full telemetry path: Cluster -> per-host SmartNIC flow tables
/// -> provider sampling -> merged per-minute batches -> GraphBuilder.
SimulationResult simulate(const ClusterSpec& spec, SimulateOptions options = {});

/// Wall-clock timer for bench stages.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Fixed-width table printing helpers (all benches share one look).
void print_header(const std::string& title);
void print_row(const std::vector<std::string>& cells,
               const std::vector<int>& widths);
std::string fmt(double v, int precision = 2);
std::string fmt_count(std::uint64_t v);  // 12345678 -> "12.3M"

/// Prints the global obs::Registry as a delimited JSON block so perf
/// trajectory files capture per-stage latency, not just end-to-end
/// throughput. simulate() arranges (once) for this to run at process exit,
/// so every bench binary emits it after its tables; call it directly for
/// an extra mid-run snapshot.
void emit_metrics_snapshot();

/// Prints a delimited resource summary (CPU user/system seconds and peak
/// RSS from getrusage, wall seconds per analytics stage) as JSON, so BENCH
/// outputs carry
/// a cost trajectory alongside the timings. simulate() registers this at
/// process exit next to the metrics snapshot.
void emit_resource_summary();

}  // namespace ccg::bench
