// Reproduces paper Table 1: per-cluster graph sizes and record rates.
//
//              #IPs mon.  IP graph      IP-port graph  #Records/min
//   Portal     4          4K (5K)       13K (13K)      332
//   µservice   16         33 (268)      0.2M (1M)      48K
//   K8s PaaS   390        541 (12K)     1.3M (3M)      68K
//   KQuery     1400       6K (1.3M)     12M (79M)      2.3M
//
// Our numbers come from the synthetic presets (proprietary traces are not
// available). µserviceBench runs with injected attacks, matching the
// paper's description of that cluster ("we ... inject a wide-range of
// attacks"), which is what pushes its 33-node graph toward a dense mesh.
// Raw graph sizes are shown next to the 0.1%-collapsed sizes; the big
// presets run at a reduced rate_scale (reported), so compare per-minute
// rates after rescaling.
#include "bench_util.hpp"

int main() {
  using namespace ccg;
  using namespace ccg::bench;

  struct PaperRow {
    const char* name;
    std::uint64_t ips, ip_nodes, ip_edges, port_nodes, port_edges, rec_per_min;
  };
  const PaperRow paper[] = {
      {"Portal", 4, 4'000, 5'000, 13'000, 13'000, 332},
      {"uServiceBench", 16, 33, 268, 200'000, 1'000'000, 48'000},
      {"K8sPaaS", 390, 541, 12'000, 1'300'000, 3'000'000, 68'000},
      {"KQuery", 1400, 6'000, 1'300'000, 12'000'000, 79'000'000, 2'300'000},
  };

  print_header("Table 1: cluster communication-graph sizes (1 simulated hour)");
  const std::vector<int> widths{16, 8, 7, 10, 10, 11, 12, 12, 10};
  print_row({"cluster", "scale", "#IPs", "ip-nodes", "ip-edges", "collapsed",
             "port-nodes", "port-edges", "rec/min"},
            widths);

  for (const auto& row : paper) {
    const std::string name = row.name;
    const double scale = default_rate_scale(name);
    const ClusterSpec spec = [&] {
      if (name == "Portal") return presets::portal(scale);
      if (name == "uServiceBench") return presets::microservice_bench(scale);
      if (name == "K8sPaaS") return presets::k8s_paas(scale);
      return presets::kquery(scale);
    }();

    SimulateOptions options{.hours = 1,
                            .collapse_threshold = 0.0,  // raw sizes first
                            .want_ip_port = true};
    if (name == "uServiceBench") {
      // The paper's µserviceBench cluster runs breach-and-attack
      // simulation; lateral movement + scanning mesh the 16 services.
      options.injectors.push_back(new ScanAttack(
          {.active = TimeWindow::hour(0),
           .targets_per_minute = 8,
           .ports_per_target = 2,
           .dark_space_fraction = 0.0},
          77));
      options.injectors.push_back(new LateralMovementAttack(
          {.active = TimeWindow::hour(0), .spread_per_minute = 0.2}, 78));
    }

    const auto sim = simulate(spec, options);
    const CommGraph& ip = sim.hourly_graphs.at(0);
    const CommGraph& port = sim.hourly_port_graphs.at(0);
    const CommGraph collapsed =
        finalize_window_graph({&ip, 1}, {.collapse_threshold = 0.001});

    print_row({spec.name, fmt(scale, 2), fmt_count(sim.monitored.size()),
               fmt_count(ip.node_count()), fmt_count(ip.edge_count()),
               fmt_count(collapsed.node_count()), fmt_count(port.node_count()),
               fmt_count(port.edge_count()),
               fmt_count(static_cast<std::uint64_t>(sim.ledger.records_per_minute()))},
              widths);
    print_row({"  (paper)", "1.00", fmt_count(row.ips), fmt_count(row.ip_nodes),
               fmt_count(row.ip_edges), "-", fmt_count(row.port_nodes),
               fmt_count(row.port_edges), fmt_count(row.rec_per_min)},
              widths);
  }

  std::printf(
      "\nShape checks: record-rate ordering Portal << uServiceBench <= K8sPaaS"
      " << KQuery; IP-port graphs orders of magnitude larger than IP graphs "
      "on the service meshes; heavy-hitter collapse (last column) shrinks the "
      "client-heavy graphs dramatically while barely touching the meshes.\n");
  return 0;
}
