// Topology I/O (text + DOT) and structural metrics.
#include <gtest/gtest.h>

#include "topo/io.h"
#include "topo/metrics.h"
#include "topo/topology.h"

namespace nwlb::topo {
namespace {

TEST(TopologyIo, RoundTrip) {
  const Topology original = make_internet2();
  const Topology parsed = read_topology_string(to_topology_string(original));
  EXPECT_EQ(parsed.name, original.name);
  ASSERT_EQ(parsed.graph.num_nodes(), original.graph.num_nodes());
  ASSERT_EQ(parsed.graph.num_edges(), original.graph.num_edges());
  for (NodeId v = 0; v < original.graph.num_nodes(); ++v) {
    EXPECT_EQ(parsed.graph.name(v), original.graph.name(v));
    EXPECT_DOUBLE_EQ(parsed.graph.population(v), original.graph.population(v));
    const auto a = original.graph.neighbors(v);
    const auto b = parsed.graph.neighbors(v);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(TopologyIo, ParsesCommentsAndErrors) {
  const Topology t = read_topology_string(
      "# a comment\n"
      "topology Tiny\n"
      "node a 100 # trailing comment\n"
      "node b 200\n"
      "edge a b\n");
  EXPECT_EQ(t.name, "Tiny");
  EXPECT_EQ(t.graph.num_edges(), 1);

  EXPECT_THROW(read_topology_string("node a 1\n"), std::invalid_argument);  // No name.
  EXPECT_THROW(read_topology_string("topology X\nnode a 1\nnode a 2\n"),
               std::invalid_argument);  // Duplicate.
  EXPECT_THROW(read_topology_string("topology X\nedge a b\n"), std::invalid_argument);
  EXPECT_THROW(read_topology_string("topology X\nfrobnicate\n"), std::invalid_argument);
}

TEST(TopologyIo, DotContainsNodesAndEdges) {
  const std::string dot = to_dot(make_internet2());
  EXPECT_NE(dot.find("graph \"Internet2\""), std::string::npos);
  EXPECT_NE(dot.find("\"Seattle\""), std::string::npos);
  EXPECT_NE(dot.find("--"), std::string::npos);
  EXPECT_NE(dot.find('}'), std::string::npos);
}

TEST(Metrics, LineGraph) {
  Graph g;
  for (int i = 0; i < 5; ++i) g.add_node(std::string("n").append(std::to_string(i)));
  for (int i = 0; i < 4; ++i) g.add_edge(i, i + 1);
  const Routing r(g);
  const GraphMetrics m = compute_metrics(r);
  EXPECT_EQ(m.num_nodes, 5);
  EXPECT_EQ(m.num_edges, 4);
  EXPECT_EQ(m.diameter, 4);
  EXPECT_DOUBLE_EQ(m.average_degree, 1.6);
  EXPECT_DOUBLE_EQ(m.clustering, 0.0);
  EXPECT_EQ(m.max_degree, 2);
  EXPECT_NEAR(m.average_path_length, 2.0, 1e-9);
}

TEST(Metrics, TriangleIsFullyClustered) {
  Graph g;
  for (int i = 0; i < 3; ++i) g.add_node(std::string("n").append(std::to_string(i)));
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  const Routing r(g);
  EXPECT_DOUBLE_EQ(compute_metrics(r).clustering, 1.0);
}

TEST(Metrics, SyntheticTopologiesLookLikeIspMaps) {
  // Short diameters and skewed degrees — the properties the evaluation
  // depends on (DESIGN.md §2 substitution rationale).
  for (const auto& t : {make_sprint(), make_ntt()}) {
    const Routing r(t.graph);
    const GraphMetrics m = compute_metrics(r);
    EXPECT_LE(m.diameter, 8) << t.name;
    EXPECT_LE(m.average_path_length, 4.0) << t.name;
    EXPECT_GE(m.max_degree, 2 * static_cast<int>(m.average_degree)) << t.name;
  }
}

TEST(Metrics, DegreeHistogramSums) {
  const auto t = make_geant();
  const auto hist = degree_histogram(t.graph);
  int total = 0, weighted = 0;
  for (std::size_t d = 0; d < hist.size(); ++d) {
    total += hist[d];
    weighted += static_cast<int>(d) * hist[d];
  }
  EXPECT_EQ(total, t.graph.num_nodes());
  EXPECT_EQ(weighted, 2 * t.graph.num_edges());
}

}  // namespace
}  // namespace nwlb::topo
