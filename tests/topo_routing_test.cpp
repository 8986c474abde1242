#include "topo/routing.h"

#include <gtest/gtest.h>

#include "topo/topology.h"

namespace nwlb::topo {
namespace {

Graph path_graph(int n) {
  Graph g;
  for (int i = 0; i < n; ++i) g.add_node(std::string("n").append(std::to_string(i)));
  for (int i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  return g;
}

TEST(Routing, PathOnLineGraph) {
  const Graph g = path_graph(5);
  const Routing r(g);
  EXPECT_EQ(r.path(0, 4), (Path{0, 1, 2, 3, 4}));
  EXPECT_EQ(r.distance(0, 4), 4);
  EXPECT_EQ(r.path(2, 2), (Path{2}));
  EXPECT_EQ(r.distance(2, 2), 0);
}

TEST(Routing, SymmetricPaths) {
  for (const auto& t : {make_internet2(), make_geant(), make_enterprise()}) {
    const Routing r(t.graph);
    const int n = t.graph.num_nodes();
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = 0; b < n; ++b) {
        const Path& fwd = r.path(a, b);
        const Path& rev = r.path(b, a);
        ASSERT_EQ(fwd.size(), rev.size());
        EXPECT_TRUE(std::equal(fwd.begin(), fwd.end(), rev.rbegin()))
            << t.name << " " << a << "->" << b;
      }
    }
  }
}

TEST(Routing, PathsAreShortest) {
  const auto t = make_internet2();
  const Routing r(t.graph);
  const int n = t.graph.num_nodes();
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      EXPECT_EQ(static_cast<int>(r.path(a, b).size()) - 1, r.distance(a, b));
      // Consecutive path nodes must be adjacent.
      const Path& p = r.path(a, b);
      for (std::size_t i = 0; i + 1 < p.size(); ++i)
        EXPECT_TRUE(t.graph.has_edge(p[i], p[i + 1]));
    }
  }
}

TEST(Routing, OnPathAndLinks) {
  const Graph g = path_graph(4);
  const Routing r(g);
  EXPECT_TRUE(r.on_path(1, 0, 3));
  EXPECT_FALSE(r.on_path(3, 0, 1));
  const auto& links = r.links_on_path(0, 3);
  ASSERT_EQ(links.size(), 3u);
  EXPECT_EQ(g.link_endpoints(links[0]), (std::pair<NodeId, NodeId>{0, 1}));
  EXPECT_EQ(g.link_endpoints(links[2]), (std::pair<NodeId, NodeId>{2, 3}));
  // Reverse direction uses the opposite directed links.
  EXPECT_NE(links[0], r.links_on_path(3, 0)[2]);
}

TEST(Routing, AllPairsCount) {
  const Graph g = path_graph(4);
  const Routing r(g);
  EXPECT_EQ(r.all_pairs().size(), 12u);
}

TEST(Routing, RequiresConnectedGraph) {
  Graph g = path_graph(3);
  g.add_node("island");
  EXPECT_THROW(Routing{g}, std::invalid_argument);
}

TEST(Routing, MedoidOfLineIsCenter) {
  const Graph g = path_graph(5);
  const Routing r(g);
  EXPECT_EQ(medoid_node(r), 2);
}

TEST(Routing, BetweennessOfStarIsHub) {
  Graph g;
  g.add_node("hub");
  for (int i = 1; i <= 4; ++i) {
    g.add_node("leaf" + std::to_string(i));
    g.add_edge(0, i);
  }
  const Routing r(g);
  EXPECT_EQ(max_betweenness_node(r), 0);
}

}  // namespace
}  // namespace nwlb::topo
