// Direct unit coverage for the graph utility substrate: union-find, CSR
// construction, and edge-list helpers.
#include <gtest/gtest.h>

#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "graph/union_find.hpp"
#include "prng/rng.hpp"

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

// sort_unique radix-sorts packed keys in the list's own storage while
// 2 · bits(max id) <= 64 and falls back to std::sort past that; either way
// it must equal std::sort + std::unique. `pe::union_*`, the tests'
// reference union, rests on it.
EdgeList reference_sort_unique(EdgeList edges) {
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    return edges;
}

EdgeList sorted_uniquely(EdgeList edges) {
    sort_unique(edges);
    return edges;
}

TEST(EdgeListHelpers, SortUniqueMatchesStdSortOnRandomLists) {
    // Max id 2^32 - 1 is the widest 64-bit key; 2^32 and 2^63 take the
    // fallback. Odd and even lengths, few and many passes: the sorted keys
    // end in either half of the storage.
    const u64 max_ids[] = {0, 1, u64{1} << 17, (u64{1} << 32) - 1, u64{1} << 32,
                           u64{1} << 63};
    Rng rng(7);
    for (const u64 max_id : max_ids) {
        for (const std::size_t n : {1, 2, 3, 17, 1000, 4097}) {
            SCOPED_TRACE(::testing::Message() << "max id " << max_id << ", " << n
                                              << " edges");
            EdgeList edges{{max_id, rng.range(max_id + 1)}};
            while (edges.size() < n) {
                if (rng.range(4) == 0) { // a repeat of an earlier edge
                    edges.push_back(edges[rng.range(edges.size())]);
                } else {
                    edges.emplace_back(rng.range(max_id + 1), rng.range(max_id + 1));
                }
            }
            EXPECT_EQ(sorted_uniquely(edges), reference_sort_unique(edges));
        }
    }
}

TEST(EdgeListHelpers, SortUniqueEdgeCases) {
    EXPECT_EQ(sorted_uniquely({}), EdgeList{});
    EXPECT_EQ(sorted_uniquely({{5, 3}}), (EdgeList{{5, 3}}));
    EdgeList ascending;
    for (u64 u = 0; u < 300; ++u) {
        ascending.emplace_back(u, u * 7 % 300);
        ascending.emplace_back(u, u * 7 % 300 + 1);
    }
    EXPECT_EQ(sorted_uniquely(ascending), ascending);
    const EdgeList descending(ascending.rbegin(), ascending.rend());
    EXPECT_EQ(sorted_uniquely(descending), ascending);
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
