// Ablation: class granularity (§3 / footnote 1).
//
// The headline experiments use one aggregate class per PoP pair (as the
// paper's evaluation does "for brevity").  This bench refines each pair
// into seven per-application classes with heterogeneous footprints and
// session sizes (traffic/apps.h) and compares: the optimum, the LP size,
// and the solve time.  Expected shape: finer classes give the optimizer
// slightly more freedom (cheaper analyses can stay local while expensive
// ones offload), at a ~7x larger LP.
#include "bench_common.h"

#include "core/replication_lp.h"
#include "core/scenario.h"
#include "traffic/apps.h"
#include "traffic/matrix.h"

using namespace nwlb;

int main() {
  bench::print_header("Ablation: aggregate vs per-application classes",
                      "DC=10x, MLL=0.4; default 7-application mix");

  util::Table table({"Topology", "Agg load", "Agg vars", "Agg time(s)",
                     "PerApp load", "PerApp vars", "PerApp time(s)"});
  for (const auto& topology : bench::selected_topologies()) {
    const auto tm = traffic::gravity_matrix(
        topology.graph, traffic::paper_total_sessions(topology.graph.num_nodes()));
    const core::Scenario scenario(topology, tm);

    const core::ProblemInput agg_input =
        scenario.problem(core::Architecture::kPathReplicate);
    const core::ReplicationLp agg_lp(agg_input);
    const core::Assignment agg = agg_lp.solve();

    core::ProblemInput app_input = scenario.problem(core::Architecture::kPathReplicate);
    const traffic::AppClasses split =
        traffic::split_by_application(app_input.classes, traffic::default_app_mix());
    app_input.classes = split.classes;
    app_input.class_scale = split.footprint_scale;
    const core::ReplicationLp app_lp(app_input);
    const core::Assignment app = app_lp.solve();

    table.row()
        .cell(topology.name)
        .cell(agg.load_cost, 3)
        .cell(agg_lp.num_share_columns())
        .cell(agg.lp.solve_seconds, 2)
        .cell(app.load_cost, 3)
        .cell(app_lp.num_share_columns())
        .cell(app.lp.solve_seconds, 2);
  }
  bench::print_table(table);
  return 0;
}
