/// \file types.hpp
/// \brief Fundamental integer / edge types shared by every module.
///
/// KaGen-style generators address universes of up to n(n-1) potential edges.
/// For n beyond 2^32 this exceeds 64 bits, so universe sizes and edge indices
/// are carried as unsigned 128-bit integers (`sint`), while vertex ids and
/// sample counts stay 64-bit.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace kagen {

using u8   = std::uint8_t;
using u32  = std::uint32_t;
using u64  = std::uint64_t;
using i64  = std::int64_t;
using u128 = unsigned __int128;
using i128 = __int128;

/// Vertex identifier. Vertices are always the contiguous range [0, n).
using VertexId = u64;

/// A directed edge (u, v); undirected edges are stored canonically (u < v)
/// unless a generator's natural output order is documented otherwise.
using Edge = std::pair<VertexId, VertexId>;

/// Flat edge list; the universal *materialized* exchange format between
/// modules. Generator cores emit through the streaming counterpart,
/// `EdgeSink` (sink/edge_sink.hpp), of which an EdgeList is just the
/// `MemorySink` rendering — prefer sinks when the consumer does not need
/// every edge in memory at once.
using EdgeList = std::vector<Edge>;

/// Runs `task(t)` for every t in [0, num_tasks), possibly concurrently: how
/// the chunked engine lends its workers to a model's setup pass.
using ForEachTask =
    std::function<void(u64 num_tasks, const std::function<void(u64)>& task)>;

/// Renders a u128 in decimal (no standard operator<< exists for __int128).
inline std::string to_string(u128 value) {
    if (value == 0) return "0";
    std::string out;
    while (value > 0) {
        out.insert(out.begin(), static_cast<char>('0' + static_cast<int>(value % 10)));
        value /= 10;
    }
    return out;
}

} // namespace kagen
