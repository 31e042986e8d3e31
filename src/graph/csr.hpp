/// \file csr.hpp
/// \brief Compressed-sparse-row adjacency (used by the clustering
///        coefficient in graph/stats.cpp).
#pragma once

#include <vector>

#include "common/types.hpp"

namespace kagen {

struct Csr {
    std::vector<u64> offsets;       // size n + 1
    std::vector<VertexId> targets;  // size = directed edge count

    u64 num_vertices() const { return offsets.empty() ? 0 : offsets.size() - 1; }
    u64 degree(VertexId v) const { return offsets[v + 1] - offsets[v]; }

    const VertexId* begin(VertexId v) const { return targets.data() + offsets[v]; }
    const VertexId* end(VertexId v) const { return targets.data() + offsets[v + 1]; }
};

/// Builds a CSR over vertices [0, n). If `symmetrize` is set, each input edge
/// (u, v) is inserted in both directions (for undirected edge lists in
/// canonical single-occurrence form).
Csr build_csr(const EdgeList& edges, u64 n, bool symmetrize);

} // namespace kagen
