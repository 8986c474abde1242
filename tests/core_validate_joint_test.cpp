// Assignment validator and the §9 joint replication+aggregation LP.
#include <gtest/gtest.h>

#include "core/joint_lp.h"
#include "core/replication_lp.h"
#include "core/aggregation_lp.h"
#include "core/scenario.h"
#include "core/validate.h"
#include "topo/topology.h"
#include "traffic/matrix.h"

namespace nwlb::core {
namespace {

struct JointFixture {
  topo::Topology topology = topo::make_internet2();
  traffic::TrafficMatrix tm;
  Scenario scenario;

  JointFixture()
      : tm(traffic::gravity_matrix(topology.graph, traffic::paper_total_sessions(11))),
        scenario(topology, tm) {}
};

TEST(Validate, AcceptsLpSolutions) {
  JointFixture f;
  const ProblemInput input = f.scenario.problem(Architecture::kPathReplicate);
  const Assignment a = ReplicationLp(input).solve();
  ValidationOptions opts;
  opts.require_full_coverage = true;
  EXPECT_TRUE(validate_assignment(input, a, opts).empty());
}

TEST(Validate, AcceptsIngress) {
  JointFixture f;
  const ProblemInput input = f.scenario.problem(Architecture::kIngress);
  EXPECT_TRUE(validate_assignment(input, ingress_assignment(input)).empty());
}

TEST(Validate, FlagsOffPathProcessing) {
  JointFixture f;
  const ProblemInput input = f.scenario.problem(Architecture::kPathNoReplicate);
  Assignment a = ingress_assignment(input);
  // Move class 0's work to a node not on its path.
  const auto on_path = input.classes[0].fwd_nodes();
  int off_path = -1;
  for (int j = 0; j < input.num_pops(); ++j)
    if (!std::binary_search(on_path.begin(), on_path.end(), j)) off_path = j;
  ASSERT_GE(off_path, 0);
  a.process[0] = {ProcessShare{off_path, 1.0}};
  refresh_metrics(input, a);
  const auto violations = validate_assignment(input, a);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("common path"), std::string::npos);
}

TEST(Validate, FlagsExcessResponsibility) {
  JointFixture f;
  const ProblemInput input = f.scenario.problem(Architecture::kPathNoReplicate);
  Assignment a = ingress_assignment(input);
  a.process[0].push_back(ProcessShare{input.classes[0].egress, 0.5});  // 1.5 total.
  refresh_metrics(input, a);
  const auto violations = validate_assignment(input, a);
  EXPECT_FALSE(violations.empty());
}

TEST(Validate, FlagsForeignMirror) {
  JointFixture f;
  const ProblemInput input = f.scenario.problem(Architecture::kPathReplicate);
  Assignment a = ingress_assignment(input);
  // Offload to a PoP that is in nobody's mirror set.
  const auto& cls = input.classes[0];
  int target = -1;
  const auto fwd = cls.fwd_nodes();
  for (int j = 0; j < input.num_pops(); ++j)
    if (!std::binary_search(fwd.begin(), fwd.end(), j)) target = j;
  ASSERT_GE(target, 0);
  a.process[0] = {ProcessShare{cls.ingress, 0.5}};
  a.offloads[0] = {Offload{cls.ingress, target, 0.5, nids::Direction::kForward},
                   Offload{cls.ingress, target, 0.5, nids::Direction::kReverse}};
  refresh_metrics(input, a);
  const auto violations = validate_assignment(input, a);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("mirror set"), std::string::npos);
}

TEST(Validate, FlagsStaleMetrics) {
  JointFixture f;
  const ProblemInput input = f.scenario.problem(Architecture::kPathNoReplicate);
  Assignment a = ingress_assignment(input);
  a.load_cost = 0.123;  // Lie about the load.
  const auto violations = validate_assignment(input, a);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("load_cost"), std::string::npos);
}

TEST(JointLp, BothAnalysesFullyCovered) {
  JointFixture f;
  const ProblemInput input = f.scenario.problem(Architecture::kPathReplicate);
  const JointLp formulation(input);
  const JointResult result = formulation.solve();
  for (std::size_t c = 0; c < input.classes.size(); ++c) {
    double sig = 0.0;
    for (const auto& s : result.signature.process[c]) sig += s.fraction;
    for (const auto& o : result.signature.offloads[c])
      if (o.direction == nids::Direction::kForward) sig += o.fraction;
    EXPECT_NEAR(sig, 1.0, 1e-6);
    double scan = 0.0;
    for (const auto& s : result.scan.process[c]) scan += s.fraction;
    EXPECT_NEAR(scan, 1.0, 1e-6);
  }
  EXPECT_GT(result.load_cost, 0.0);
}

TEST(JointLp, BeatsIndependentOptimization) {
  // The §9 hypothesis: jointly optimizing the two analyses over shared
  // capacity does at least as well as optimizing them independently and
  // summing the loads.
  JointFixture f;
  const ProblemInput input = f.scenario.problem(Architecture::kPathReplicate);
  JointOptions opts;
  opts.beta = 0.0;  // Pure load comparison.
  const JointResult joint = JointLp(input, opts).solve();

  // Independent: signature via the replication LP, scan via the
  // aggregation LP, each blind to the other's load.
  ProblemInput sig_input = input;
  sig_input.class_scale.assign(input.classes.size(), opts.signature_share);
  const Assignment sig = ReplicationLp(sig_input).solve();
  ProblemInput scan_input = input;
  scan_input.class_scale.assign(input.classes.size(), opts.scan_share);
  AggregationOptions agg_opts;
  agg_opts.beta = 0.0;
  const Assignment scan = AggregationLp(scan_input, agg_opts).solve();

  double independent = 0.0;
  for (int j = 0; j < input.num_processing_nodes(); ++j)
    for (int r = 0; r < nids::kNumResources; ++r)
      independent = std::max(
          independent,
          sig.node_load[static_cast<std::size_t>(j)][static_cast<std::size_t>(r)] +
              scan.node_load[static_cast<std::size_t>(j)][static_cast<std::size_t>(r)]);
  EXPECT_LE(joint.load_cost, independent + 1e-6);
}

TEST(JointLp, BetaTradesCommForLoad) {
  JointFixture f;
  const ProblemInput input = f.scenario.problem(Architecture::kPathReplicate);
  JointOptions cheap;
  cheap.beta = 0.0;
  JointOptions pricey;
  pricey.beta = 1e6;
  const JointResult a = JointLp(input, cheap).solve();
  const JointResult b = JointLp(input, pricey).solve();
  EXPECT_LE(b.comm_cost, a.comm_cost + 1e-6);
  EXPECT_GE(b.load_cost, a.load_cost - 1e-7);
}

TEST(JointLp, DownNodeTakesNoShare) {
  JointFixture f;
  ProblemInput input = f.scenario.problem(Architecture::kPathReplicate);
  input.node_down.assign(static_cast<std::size_t>(input.num_processing_nodes()), 0);
  input.node_down[6] = 1;
  const JointResult result = JointLp(input).solve();
  for (std::size_t c = 0; c < input.classes.size(); ++c) {
    for (const auto& s : result.signature.process[c]) EXPECT_NE(s.node, 6) << "class " << c;
    for (const auto& o : result.signature.offloads[c]) {
      EXPECT_NE(o.from, 6) << "class " << c;
      EXPECT_NE(o.to, 6) << "class " << c;
    }
    for (const auto& s : result.scan.process[c]) EXPECT_NE(s.node, 6) << "class " << c;
  }
}

TEST(JointLp, RejectsBadOptions) {
  JointFixture f;
  const ProblemInput input = f.scenario.problem(Architecture::kPathReplicate);
  JointOptions bad;
  bad.record_bytes = 0.0;
  EXPECT_THROW(JointLp(input, bad), std::invalid_argument);
}

}  // namespace
}  // namespace nwlb::core
