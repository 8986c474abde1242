#include "topo/graph.h"

#include <gtest/gtest.h>

namespace nwlb::topo {
namespace {

Graph triangle() {
  Graph g;
  g.add_node("a", 10);
  g.add_node("b", 20);
  g.add_node("c", 30);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  return g;
}

TEST(Graph, BasicAccessors) {
  const Graph g = triangle();
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.num_directed_links(), 6);
  EXPECT_EQ(g.name(1), "b");
  EXPECT_DOUBLE_EQ(g.population(2), 30.0);
  EXPECT_DOUBLE_EQ(g.total_population(), 60.0);
}

TEST(Graph, RejectsBadEdges) {
  Graph g = triangle();
  EXPECT_THROW(g.add_edge(0, 0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1), std::invalid_argument);  // Duplicate.
  EXPECT_THROW(g.add_edge(0, 9), std::out_of_range);
  EXPECT_THROW(g.add_node("x", 0.0), std::invalid_argument);
}

TEST(Graph, NeighborsSorted) {
  Graph g;
  for (int i = 0; i < 5; ++i) g.add_node(std::string("n").append(std::to_string(i)));
  g.add_edge(2, 4);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  const auto nb = g.neighbors(2);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_EQ(nb[0], 0);
  EXPECT_EQ(nb[1], 3);
  EXPECT_EQ(nb[2], 4);
}

TEST(Graph, LinkIdsDistinguishDirections) {
  const Graph g = triangle();
  const LinkId ab = g.link_id(0, 1);
  const LinkId ba = g.link_id(1, 0);
  EXPECT_NE(ab, ba);
  EXPECT_EQ(g.link_endpoints(ab), (std::pair<NodeId, NodeId>{0, 1}));
  EXPECT_EQ(g.link_endpoints(ba), (std::pair<NodeId, NodeId>{1, 0}));
  EXPECT_THROW(g.link_id(0, 0), std::invalid_argument);
}

TEST(Graph, Connectivity) {
  Graph g = triangle();
  EXPECT_TRUE(g.connected());
  g.add_node("island");
  EXPECT_FALSE(g.connected());
}

TEST(Graph, NeighborhoodByHops) {
  // Path graph 0-1-2-3-4.
  Graph g;
  for (int i = 0; i < 5; ++i) g.add_node(std::string("n").append(std::to_string(i)));
  for (int i = 0; i < 4; ++i) g.add_edge(i, i + 1);
  EXPECT_EQ(g.neighborhood(0, 1), (std::vector<NodeId>{1}));
  EXPECT_EQ(g.neighborhood(0, 2), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(g.neighborhood(2, 2), (std::vector<NodeId>{0, 1, 3, 4}));
  EXPECT_TRUE(g.neighborhood(0, 0).empty());
}

TEST(Graph, SetPopulation) {
  Graph g = triangle();
  g.set_population(0, 99.0);
  EXPECT_DOUBLE_EQ(g.population(0), 99.0);
  EXPECT_THROW(g.set_population(0, -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace nwlb::topo
