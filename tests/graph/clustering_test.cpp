#include "graph/clustering.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "stats/rng.h"

namespace sybil::graph {
namespace {

CsrGraph triangle_plus_tail() {
  // Triangle 0-1-2 plus pendant 3 on node 0.
  TimestampedGraph g(4);
  g.add_edge(0, 1, 0);
  g.add_edge(1, 2, 1);
  g.add_edge(2, 0, 2);
  g.add_edge(0, 3, 3);
  return CsrGraph::from(g);
}

TEST(Clustering, TriangleCounts) {
  const CsrGraph g = triangle_plus_tail();
  EXPECT_EQ(triangle_count(g), 1u);
}

TEST(Clustering, LocalCoefficients) {
  const CsrGraph g = triangle_plus_tail();
  // Node 0: 3 neighbors {1,2,3}, one link (1-2) → 2*1/(3*2) = 1/3.
  EXPECT_NEAR(local_clustering(g, 0), 1.0 / 3.0, 1e-12);
  // Node 1: neighbors {0,2} linked → 1.
  EXPECT_NEAR(local_clustering(g, 1), 1.0, 1e-12);
  // Node 3: degree 1 → 0.
  EXPECT_DOUBLE_EQ(local_clustering(g, 3), 0.0);
}

TEST(Clustering, CompleteGraphIsOne) {
  TimestampedGraph g(5);
  for (NodeId u = 0; u < 5; ++u) {
    for (NodeId v = u + 1; v < 5; ++v) g.add_edge(u, v, 0);
  }
  const CsrGraph csr = CsrGraph::from(g);
  for (NodeId u = 0; u < 5; ++u) {
    EXPECT_NEAR(local_clustering(csr, u), 1.0, 1e-12);
  }
  EXPECT_NEAR(transitivity(csr), 1.0, 1e-12);
  EXPECT_EQ(triangle_count(csr), 10u);
  EXPECT_NEAR(average_clustering(csr), 1.0, 1e-12);
}

TEST(Clustering, StarHasNoTriangles) {
  TimestampedGraph g(6);
  for (NodeId v = 1; v < 6; ++v) g.add_edge(0, v, 0);
  const CsrGraph csr = CsrGraph::from(g);
  EXPECT_EQ(triangle_count(csr), 0u);
  EXPECT_DOUBLE_EQ(local_clustering(csr, 0), 0.0);
  EXPECT_DOUBLE_EQ(transitivity(csr), 0.0);
}

TEST(Clustering, SubsetCoefficient) {
  // The first-k prefix is the friend subset the coefficient covers.
  // Node 0 befriends 1, 3, 2 in that order; node 1 befriends 0, 2; the
  // only link among node 0's friends is 1-2.
  TimestampedGraph g(4);
  g.add_edge(0, 1, 0.0);
  g.add_edge(0, 3, 1.0);
  g.add_edge(0, 2, 2.0);
  g.add_edge(1, 2, 3.0);
  const NeighborView view = NeighborView::from(g);
  // Subset {0, 2}: linked → cc = 1.
  EXPECT_NEAR(first_k_clustering(view, 1, 2), 1.0, 1e-12);
  // Subset {1, 3}: not linked → 0.
  EXPECT_DOUBLE_EQ(first_k_clustering(view, 0, 2), 0.0);
  // Subset {1, 3, 2}: one link of three pairs → 1/3.
  EXPECT_NEAR(first_k_clustering(view, 0, 3), 1.0 / 3.0, 1e-12);
  // Fewer than 2 friends → 0.
  EXPECT_DOUBLE_EQ(first_k_clustering(view, 0, 1), 0.0);
  EXPECT_DOUBLE_EQ(first_k_clustering(view, 3, 50), 0.0);
}

TEST(Clustering, FirstKUsesChronologicalPrefix) {
  // Node 0 first friends with 1 and 2 (linked), later with 3 and 4
  // (unlinked): first-2 cc = 1, full cc smaller.
  TimestampedGraph g(5);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 2, 2.0);
  g.add_edge(1, 2, 2.5);
  g.add_edge(0, 3, 3.0);
  g.add_edge(0, 4, 4.0);
  const NeighborView view = NeighborView::from(g);
  EXPECT_NEAR(first_k_clustering(view, 0, 2), 1.0, 1e-12);
  EXPECT_NEAR(first_k_clustering(view, 0, 50),
              2.0 * 1.0 / (4.0 * 3.0), 1e-12);
}

TEST(Clustering, TransitivityOfTrianglePlusTail) {
  const CsrGraph g = triangle_plus_tail();
  // wedges: node0 C(3,2)=3, node1 1, node2 1, node3 0 → 5; 3*1/5.
  EXPECT_NEAR(transitivity(g), 0.6, 1e-12);
}

TEST(Clustering, TriadicClosureRaisesClustering) {
  stats::Rng rng1(5), rng2(5);
  OsnGraphParams low{.nodes = 3000, .mean_links = 8.0,
                     .triadic_closure = 0.0, .pa_beta = 1.0};
  OsnGraphParams high{.nodes = 3000, .mean_links = 8.0,
                      .triadic_closure = 0.6, .pa_beta = 1.0};
  const double cc_low = average_clustering(CsrGraph::from(osn_like_graph(low, rng1)));
  const double cc_high = average_clustering(CsrGraph::from(osn_like_graph(high, rng2)));
  EXPECT_GT(cc_high, 2.0 * cc_low);
}

}  // namespace
}  // namespace sybil::graph
