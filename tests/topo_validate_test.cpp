// Routing validation (topo/validate.h): real topologies' precomputed
// routings certify; explicit broken paths are rejected per invariant.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "topo/routing.h"
#include "topo/topology.h"
#include "topo/validate.h"

namespace nwlb::topo {
namespace {

bool mentions(const std::vector<std::string>& violations, const std::string& needle) {
  for (const std::string& v : violations)
    if (v.find(needle) != std::string::npos) return true;
  return false;
}

std::string join(const std::vector<std::string>& violations) {
  std::string out;
  for (const std::string& v : violations) out += v + "\n";
  return out;
}

// A 5-node graph with one cycle, so some pairs have multi-hop paths.
Graph make_graph() {
  Graph g;
  for (int i = 0; i < 5; ++i) g.add_node(std::string("n").append(std::to_string(i)));
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 0);
  return g;
}

TEST(TopoValidate, CertifiesPaperTopologies) {
  for (const Topology& t : {make_internet2(), make_geant()}) {
    const Routing routing(t.graph);
    const auto violations = validate(routing);
    EXPECT_TRUE(violations.empty()) << join(violations);
  }
}

TEST(TopoValidate, CertifiesRoutingPaths) {
  const Graph g = make_graph();
  const Routing routing(g);
  for (NodeId src = 0; src < g.num_nodes(); ++src)
    for (NodeId dst = 0; dst < g.num_nodes(); ++dst)
      EXPECT_TRUE(validate_path(g, routing.path(src, dst), src, dst).empty());
}

TEST(TopoValidate, RejectsEmptyPath) {
  const Graph g = make_graph();
  EXPECT_TRUE(mentions(validate_path(g, {}, 0, 2), "is empty"));
}

TEST(TopoValidate, RejectsDeadNode) {
  const Graph g = make_graph();
  const auto violations = validate_path(g, {0, 9, 2}, 0, 2);
  EXPECT_TRUE(mentions(violations, "dead node 9")) << join(violations);
}

TEST(TopoValidate, RejectsWrongEndpoints) {
  const Graph g = make_graph();
  auto violations = validate_path(g, {1, 2}, 0, 2);
  EXPECT_TRUE(mentions(violations, "starts at 1")) << join(violations);
  violations = validate_path(g, {0, 1}, 0, 2);
  EXPECT_TRUE(mentions(violations, "does not terminate")) << join(violations);
}

TEST(TopoValidate, RejectsNonExistentHop) {
  const Graph g = make_graph();
  // 0-2 is not an edge in the cycle.
  const auto violations = validate_path(g, {0, 2}, 0, 2);
  EXPECT_TRUE(mentions(violations, "non-existent link")) << join(violations);
}

TEST(TopoValidate, RejectsRevisitedNode) {
  const Graph g = make_graph();
  const auto violations = validate_path(g, {0, 1, 0, 4}, 0, 4);
  EXPECT_TRUE(mentions(violations, "not a simple path")) << join(violations);
}

TEST(TopoValidate, ConnectedGraphContractHoldsAtConstruction) {
  // A disconnected graph is stopped by the Routing constructor's contract,
  // so validate() can assume connectivity was true at build time.
  Graph g;
  g.add_node("a");
  g.add_node("b");
  EXPECT_THROW(Routing{g}, std::invalid_argument);
}

}  // namespace
}  // namespace nwlb::topo
