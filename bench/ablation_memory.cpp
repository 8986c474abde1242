// Ablation: the second resource dimension of Eq. (3).
//
// The formulations carry per-resource loads (Load_j^r for r in {CPU, MEM});
// every headline experiment is CPU-bound, so this bench exercises the
// memory dimension: exact scan detection keeps per-source destination
// sets (large, traffic-dependent memory footprint), while a sketch
// detector would cap it at a fixed sketch per source.  The bench models
// that as a fixed 1/4 of the exact per-session memory footprint; no
// sketch detector runs.  With memory provisioned below the exact
// detector's needs, the min-max optimum is memory-bound; the modelled
// sketch footprint returns it to the CPU-bound optimum.
#include "bench_common.h"

#include "core/replication_lp.h"
#include "core/scenario.h"
#include "traffic/matrix.h"

using namespace nwlb;

namespace {

// Max normalized load on one resource across nodes.
double max_on(const core::Assignment& a, nids::Resource r) {
  double worst = 0.0;
  for (const auto& load : a.node_load)
    worst = std::max(worst, load[static_cast<std::size_t>(nids::resource_index(r))]);
  return worst;
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation: exact vs sketched scan state (memory resource)",
      "DC=10x, MLL=0.4; memory provisioned at 60% of the exact detector's "
      "ingress-only requirement; sketches cost 1/4 the memory per session");

  util::Table table({"Topology", "Exact max", "Exact bound", "Sketch max",
                     "Sketch bound", "Relief"});
  for (const auto& topology : bench::selected_topologies()) {
    const auto tm = traffic::gravity_matrix(
        topology.graph, traffic::paper_total_sessions(topology.graph.num_nodes()));
    const core::Scenario scenario(topology, tm);

    auto solve_with_memory = [&](double mem_per_session) {
      core::ProblemInput input = scenario.problem(core::Architecture::kPathReplicate);
      input.footprint.set(nids::Resource::kMemory, mem_per_session);
      // Memory capacity: 60% of what ingress-only exact detection needs,
      // scaled like the CPU capacity (DC gets the same 10x multiplier).
      const double mem_cap = 0.6 * scenario.base_capacity();
      for (int j = 0; j < input.capacities.num_nodes(); ++j) {
        const bool is_dc = input.has_datacenter() && j == input.datacenter_id();
        input.capacities.set(j, nids::Resource::kMemory,
                             is_dc ? 10.0 * mem_cap : mem_cap);
      }
      return core::ReplicationLp(input).solve();
    };

    const core::Assignment exact = solve_with_memory(1.0);
    const core::Assignment sketch = solve_with_memory(0.25);
    const auto bound_of = [](const core::Assignment& a) {
      return max_on(a, nids::Resource::kMemory) > max_on(a, nids::Resource::kCpu) + 1e-9
                 ? "memory"
                 : "cpu";
    };
    table.row()
        .cell(topology.name)
        .cell(exact.load_cost, 3)
        .cell(bound_of(exact))
        .cell(sketch.load_cost, 3)
        .cell(bound_of(sketch))
        .cell(exact.load_cost / sketch.load_cost, 2);
  }
  bench::print_table(table);
  return 0;
}
