/// \file edge_list.hpp
/// \brief Edge-list manipulation helpers shared by tests, benches, examples.
#pragma once

#include <algorithm>
#include <cstring>

#include "common/types.hpp"
#include "graph/radix_sort.hpp"

namespace kagen {

/// Non-owning view of a contiguous run of edges — the currency of the
/// arena-backed chunk pipeline (pe/arena.hpp): a chunk parked in a slab
/// chain is delivered as one `EdgeSpan` per slab, so no fixed-capacity
/// buffer ever has to be contiguous (and hence never reallocates).
struct EdgeSpan {
    const Edge* data = nullptr;
    u64 count        = 0;

    const Edge* begin() const { return data; }
    const Edge* end() const { return data + count; }
    u64 bytes() const { return count * sizeof(Edge); }
};

/// Appends a span to a materialized edge list.
inline void append(EdgeList& dst, EdgeSpan src) {
    dst.insert(dst.end(), src.begin(), src.end());
}

/// Orders each undirected edge as (min, max).
inline void canonicalize(EdgeList& edges) {
    for (auto& [u, v] : edges) {
        if (u > v) std::swap(u, v);
    }
}

/// Sorts and removes duplicate edges in place. While every edge packs into
/// one 64-bit key, (u << b) | v with b the bit length of the largest id,
/// this is one LSD radix sort (graph/radix_sort.hpp) inside the list's own
/// storage, packed as `em::form_runs` packs a run: the keys fill its first
/// half, the radix scratch its second. Wider ids take std::sort.
inline void sort_unique(EdgeList& edges) {
    u64 ids = 0;
    for (const auto& [u, v] : edges) ids |= u | v;
    const unsigned bits = id_bits(ids);
    if (2 * bits > 64) {
        std::sort(edges.begin(), edges.end());
        edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
        return;
    }
    const std::size_t n = edges.size();
    auto* raw           = reinterpret_cast<unsigned char*>(edges.data());
    auto* keys          = reinterpret_cast<u64*>(raw);
    RadixSort radix(2 * bits);
    // Key i takes bytes [8i, 8i + 8), which belong to an edge no later than
    // i, so it never overwrites an edge not yet read.
    for (std::size_t i = 0; i < n; ++i) {
        u64 e[2];
        std::memcpy(e, raw + i * sizeof(Edge), sizeof(e));
        keys[i] = (e[0] << bits) | e[1];
        radix.count(keys[i]);
    }
    u64* sorted         = radix.sort(keys, keys + n, n);
    const auto m = static_cast<std::size_t>(std::unique(sorted, sorted + n) - sorted);
    // Edge i covers keys 2i and 2i + 1 of the first half, or 2i - n and
    // 2i - n + 1 of the second: unpacking from the back (first half) or the
    // front (second half) overwrites only keys already read.
    const u64 mask    = (u64{1} << bits) - 1;
    const auto unpack = [&](std::size_t i) {
        const u64 k = sorted[i];
        edges[i]    = {k >> bits, k & mask};
    };
    if (sorted == keys) {
        for (std::size_t i = m; i-- > 0;) unpack(i);
    } else {
        for (std::size_t i = 0; i < m; ++i) unpack(i);
    }
    edges.resize(m);
}

/// Canonical undirected edge set: canonicalized, sorted, deduplicated.
inline EdgeList undirected_set(EdgeList edges) {
    canonicalize(edges);
    sort_unique(edges);
    return edges;
}

/// Appends `src` to `dst`.
inline void append(EdgeList& dst, const EdgeList& src) {
    dst.insert(dst.end(), src.begin(), src.end());
}

/// True if any edge is a self-loop.
inline bool has_self_loop(const EdgeList& edges) {
    return std::any_of(edges.begin(), edges.end(),
                       [](const Edge& e) { return e.first == e.second; });
}

} // namespace kagen
