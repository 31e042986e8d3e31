// Direct unit coverage for the graph utility substrate: union-find, CSR
// construction, and edge-list helpers.
#include <gtest/gtest.h>

#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "graph/union_find.hpp"

namespace kagen {
namespace {

TEST(UnionFind, SingletonsAndUnions) {
    UnionFind uf(5);
    EXPECT_EQ(uf.components(), 5u);
    EXPECT_TRUE(uf.unite(0, 1));
    EXPECT_FALSE(uf.unite(1, 0)) << "already joined";
    EXPECT_TRUE(uf.unite(2, 3));
    EXPECT_EQ(uf.components(), 3u);
    EXPECT_EQ(uf.find(0), uf.find(1));
    EXPECT_NE(uf.find(0), uf.find(2));
    EXPECT_TRUE(uf.unite(1, 3));
    EXPECT_EQ(uf.find(0), uf.find(2));
    EXPECT_EQ(uf.components(), 2u); // {0,1,2,3} and {4}
}

TEST(UnionFind, LongChainCompresses) {
    constexpr u64 n = 10000;
    UnionFind uf(n);
    for (u64 i = 1; i < n; ++i) uf.unite(i - 1, i);
    EXPECT_EQ(uf.components(), 1u);
    for (u64 i = 0; i < n; i += 997) EXPECT_EQ(uf.find(i), uf.find(0));
}

TEST(Csr, DirectedConstruction) {
    const EdgeList edges{{0, 1}, {0, 2}, {2, 1}};
    const Csr g = build_csr(edges, 3, /*symmetrize=*/false);
    EXPECT_EQ(g.num_vertices(), 3u);
    EXPECT_EQ(g.degree(0), 2u);
    EXPECT_EQ(g.degree(1), 0u);
    EXPECT_EQ(g.degree(2), 1u);
    EXPECT_EQ(*g.begin(2), 1u);
}

TEST(Csr, SymmetrizedConstruction) {
    const EdgeList edges{{0, 1}};
    const Csr g = build_csr(edges, 2, /*symmetrize=*/true);
    EXPECT_EQ(g.degree(0), 1u);
    EXPECT_EQ(g.degree(1), 1u);
    EXPECT_EQ(*g.begin(1), 0u);
}

TEST(Csr, EmptyGraph) {
    const Csr g = build_csr({}, 4, true);
    EXPECT_EQ(g.num_vertices(), 4u);
    for (VertexId v = 0; v < 4; ++v) EXPECT_EQ(g.degree(v), 0u);
}

TEST(EdgeListHelpers, CanonicalizeSortUnique) {
    EdgeList edges{{3, 1}, {1, 3}, {2, 5}};
    canonicalize(edges);
    EXPECT_EQ(edges[0], Edge(1, 3));
    EXPECT_EQ(edges[1], Edge(1, 3));
    sort_unique(edges);
    EXPECT_EQ(edges.size(), 2u);
    EXPECT_EQ(edges, (EdgeList{{1, 3}, {2, 5}}));
}

TEST(EdgeListHelpers, SelfLoopDetection) {
    EXPECT_FALSE(has_self_loop({{1, 2}, {2, 3}}));
    EXPECT_TRUE(has_self_loop({{1, 2}, {4, 4}}));
    EXPECT_FALSE(has_self_loop({}));
}

TEST(EdgeListHelpers, UndirectedSetIdempotent) {
    const EdgeList raw{{2, 1}, {1, 2}, {3, 0}, {0, 3}, {1, 2}};
    const EdgeList once  = undirected_set(raw);
    const EdgeList twice = undirected_set(once);
    EXPECT_EQ(once, twice);
    EXPECT_EQ(once, (EdgeList{{0, 3}, {1, 2}}));
}

} // namespace
} // namespace kagen
