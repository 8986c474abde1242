// Bring-your-own network: defines a topology in the nwlb text format,
// runs the full optimization pipeline on it, and exports the artifacts an
// operator would actually consume — a Graphviz rendering of the network,
// the LP in industry-standard MPS (cross-checkable with CPLEX/HiGHS), and
// a pcap of the synthetic validation trace for Wireshark/Snort.
#include <fstream>
#include <iostream>

#include "core/mapper.h"
#include "core/replication_lp.h"
#include "core/scenario.h"
#include "lp/mps.h"
#include "sim/pcap.h"
#include "sim/replay.h"
#include "sim/trace.h"
#include "topo/io.h"
#include "topo/metrics.h"
#include "traffic/matrix.h"

using namespace nwlb;

namespace {

constexpr const char* kNetwork = R"(# A regional ISP with two transit cores.
topology RegionalISP
node CoreWest   4.0e6
node CoreEast   5.5e6
node MetroA     1.2e6
node MetroB     0.9e6
node MetroC     2.1e6
node MetroD     0.7e6
node Exchange   3.0e6
edge CoreWest CoreEast
edge CoreWest MetroA
edge CoreWest MetroB
edge CoreEast MetroC
edge CoreEast MetroD
edge CoreWest Exchange
edge CoreEast Exchange
edge MetroA MetroB
edge MetroC MetroD
)";

}  // namespace

int main() {
  const topo::Topology topology = topo::read_topology_string(kNetwork);
  const topo::Routing routing(topology.graph);
  const topo::GraphMetrics metrics = topo::compute_metrics(routing);
  std::cout << "Loaded " << topology.name << ": " << metrics.num_nodes << " PoPs, "
            << metrics.num_edges << " links, diameter " << metrics.diameter
            << ", avg path " << metrics.average_path_length << " hops\n";

  // Optimize a replication deployment for it.
  const auto tm = traffic::gravity_matrix(
      topology.graph, traffic::paper_total_sessions(topology.graph.num_nodes()));
  const core::Scenario scenario(topology, tm);
  const core::ProblemInput input = scenario.problem(core::Architecture::kPathReplicate);
  const core::ReplicationLp formulation(input);
  const core::Assignment assignment = formulation.solve();
  std::cout << "Optimized: max load " << assignment.load_cost << " with the DC at "
            << topology.graph.name(scenario.datacenter_pop()) << "\n";

  // Export the operator-facing artifacts.
  {
    std::ofstream dot("regional_isp.dot");
    topo::write_dot(topology, dot);
  }
  {
    std::ofstream mps("regional_isp.mps");
    lp::write_mps(formulation.model(), mps, "REGIONAL");
  }
  // Round-trip sanity: the exported MPS re-parses to the same optimum.
  {
    std::ifstream mps("regional_isp.mps");
    const lp::Model reparsed = lp::read_mps(mps);
    const lp::Solution check = lp::solve_revised(reparsed);
    std::cout << "MPS round-trip: objective " << check.objective << " (original "
              << assignment.lp.objective << ")\n";
  }
  {
    sim::TraceGenerator generator(input.classes, {}, 5);
    std::ofstream pcap_file("regional_isp.pcap", std::ios::binary);
    sim::PcapWriter writer(pcap_file);
    std::uint32_t t = 0;
    for (const auto& session : generator.generate(200)) {
      for (int k = 0; k < session.fwd_packets; ++k) {
        ++t;
        writer.write(generator.make_packet(session, k, nids::Direction::kForward), t,
                     t * 100 % 1000000);
      }
    }
    std::cout << "Wrote " << writer.packets_written() << " packets to regional_isp.pcap\n";
  }
  std::cout << "Artifacts: regional_isp.dot (Graphviz), regional_isp.mps (LP),\n"
               "           regional_isp.pcap (trace for tcpdump/Wireshark/Snort)\n";
  return 0;
}
