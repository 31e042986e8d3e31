#include "graph/csr.hpp"

namespace kagen {

Csr build_csr(const EdgeList& edges, u64 n, bool symmetrize) {
    Csr g;
    g.offsets.assign(n + 1, 0);
    for (const auto& [u, v] : edges) {
        ++g.offsets[u + 1];
        if (symmetrize) ++g.offsets[v + 1];
    }
    for (u64 i = 1; i <= n; ++i) g.offsets[i] += g.offsets[i - 1];
    g.targets.resize(g.offsets[n]);
    std::vector<u64> cursor(g.offsets.begin(), g.offsets.end() - 1);
    for (const auto& [u, v] : edges) {
        g.targets[cursor[u]++] = v;
        if (symmetrize) g.targets[cursor[v]++] = u;
    }
    return g;
}

} // namespace kagen
