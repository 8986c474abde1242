// Aggregation formulation (Fig. 9) invariants.
#include <gtest/gtest.h>

#include "core/aggregation_lp.h"
#include "core/scenario.h"
#include "topo/topology.h"
#include "traffic/matrix.h"
#include "util/stats.h"

namespace nwlb::core {
namespace {

struct AggFixture {
  topo::Topology topology = topo::make_internet2();
  traffic::TrafficMatrix tm;
  Scenario scenario;

  AggFixture()
      : tm(traffic::gravity_matrix(topology.graph, traffic::paper_total_sessions(11))),
        scenario(topology, tm) {}

  ProblemInput problem() { return scenario.problem(Architecture::kPathNoReplicate); }
};

TEST(AggregationLp, FullCoverageAlways) {
  AggFixture f;
  const ProblemInput input = f.problem();
  const Assignment a = AggregationLp(input).solve();
  for (std::size_t c = 0; c < input.classes.size(); ++c) {
    double total = 0.0;
    for (const auto& share : a.process[c]) total += share.fraction;
    EXPECT_NEAR(total, 1.0, 1e-6);
  }
  EXPECT_NEAR(a.miss_rate, 0.0, 1e-9);
}

TEST(AggregationLp, ZeroBetaMatchesPureLoadBalancing) {
  AggFixture f;
  const ProblemInput input = f.problem();
  AggregationOptions opts;
  opts.beta = 0.0;
  const Assignment a = AggregationLp(input, opts).solve();
  // With no communication pressure this is exactly the on-path min-max LP.
  const Assignment path = f.scenario.solve(Architecture::kPathNoReplicate);
  EXPECT_NEAR(a.load_cost, path.load_cost, 1e-5);
}

TEST(AggregationLp, HugeBetaPinsWorkAtAggregationPoint) {
  AggFixture f;
  const ProblemInput input = f.problem();
  AggregationOptions opts;
  opts.beta = 1e9;
  const Assignment a = AggregationLp(input, opts).solve();
  // All processing collapses to the ingress (distance 0): zero comm cost.
  EXPECT_NEAR(a.comm_cost, 0.0, 1e-3);
  EXPECT_NEAR(a.load_cost, 1.0, 1e-5);  // Equivalent to Ingress-only.
}

TEST(AggregationLp, CommCostDecreasesWithBeta) {
  AggFixture f;
  const ProblemInput input = f.problem();
  double previous_comm = -1.0;
  double previous_load = -1.0;
  bool first = true;
  for (double beta : {0.0, 0.1, 1.0, 10.0, 100.0}) {
    AggregationOptions opts;
    opts.beta = beta;
    const Assignment a = AggregationLp(input, opts).solve();
    if (!first) {
      EXPECT_LE(a.comm_cost, previous_comm + 1e-3) << "beta=" << beta;
      EXPECT_GE(a.load_cost, previous_load - 1e-7) << "beta=" << beta;
    }
    previous_comm = a.comm_cost;
    previous_load = a.load_cost;
    first = false;
  }
}

TEST(AggregationLp, AggregationReducesImbalance) {
  // Fig. 19's claim: max/average load drops when Scan can be distributed.
  AggFixture f;
  const ProblemInput input = f.problem();
  const Assignment ingress = ingress_assignment(input);
  AggregationOptions opts;
  opts.beta = 0.01;
  const Assignment agg = AggregationLp(input, opts).solve();
  auto cpu_loads = [&](const Assignment& a) {
    std::vector<double> out;
    for (const auto& load : a.node_load) out.push_back(load[0]);
    return out;
  };
  const double before = nwlb::util::max_over_mean(cpu_loads(ingress));
  const double after = nwlb::util::max_over_mean(cpu_loads(agg));
  EXPECT_LT(after, before);
}

TEST(AggregationLp, ReportDistances) {
  AggFixture f;
  const ProblemInput input = f.problem();
  const AggregationLp formulation(input);
  for (std::size_t c = 0; c < std::min<std::size_t>(input.classes.size(), 10); ++c) {
    const auto& cls = input.classes[c];
    EXPECT_EQ(formulation.report_distance(static_cast<int>(c), cls.ingress), 0);
    for (topo::NodeId j : cls.fwd_nodes())
      EXPECT_GE(formulation.report_distance(static_cast<int>(c), j), 0);
  }
}

TEST(AggregationLp, FixedAggregationPoint) {
  AggFixture f;
  const ProblemInput input = f.problem();
  AggregationOptions opts;
  opts.fixed_aggregation_point = 6;  // Chicago.
  opts.beta = 1e9;
  const Assignment a = AggregationLp(input, opts).solve();
  // With a fixed faraway aggregator, zero comm is impossible for classes
  // whose path avoids it.
  EXPECT_GT(a.comm_cost, 0.0);
}

TEST(AggregationLp, RejectsBadOptions) {
  AggFixture f;
  const ProblemInput input = f.problem();
  AggregationOptions bad;
  bad.beta = -1.0;
  EXPECT_THROW(AggregationLp(input, bad), std::invalid_argument);
  AggregationOptions bad2;
  bad2.record_bytes = 0.0;
  EXPECT_THROW(AggregationLp(input, bad2), std::invalid_argument);
  // The aggregation point is -1 (the class ingress) or a PoP: neither an
  // unknown id nor the datacenter's.
  const ProblemInput with_dc = f.scenario.problem(Architecture::kPathReplicate);
  for (const topo::NodeId point : {-2, 99, with_dc.datacenter_id()}) {
    AggregationOptions bad_point;
    bad_point.fixed_aggregation_point = point;
    EXPECT_THROW(AggregationLp(with_dc, bad_point), std::invalid_argument) << point;
  }
  AggregationOptions last_pop;
  last_pop.fixed_aggregation_point = input.num_pops() - 1;
  EXPECT_NO_THROW(AggregationLp(input, last_pop));
}

TEST(AggregationLp, DownNodeTakesNoShare) {
  AggFixture f;
  ProblemInput input = f.problem();
  input.node_down.assign(static_cast<std::size_t>(input.num_processing_nodes()), 0);
  input.node_down[6] = 1;
  const Assignment a = AggregationLp(input).solve();
  for (std::size_t c = 0; c < input.classes.size(); ++c) {
    double total = 0.0;
    for (const auto& share : a.process[c]) {
      EXPECT_NE(share.node, 6) << "class " << c;
      total += share.fraction;
    }
    EXPECT_NEAR(total, 1.0, 1e-6);  // Every path keeps a surviving PoP.
  }
}

}  // namespace
}  // namespace nwlb::core
