/// \file io.hpp
/// \brief The binary edge-list format: whole-list write/read, a bulk block
///        reader, and a streaming replay into any `EdgeSink`.
#pragma once

#include <string>

#include "common/types.hpp"
#include "sink/edge_sink.hpp"

namespace kagen::io {

/// Binary format: u64 count, then count pairs of u64 (host endianness).
/// `BinaryFileSink` (sink/sinks.hpp) streams the same format edge by edge
/// without knowing the count up front. Both directions move 64 KiB blocks.
void write_edge_list_binary(const std::string& path, const EdgeList& edges);
EdgeList read_edge_list_binary(const std::string& path);

/// Bulk reader over a binary edge-list file: the header is validated
/// against the file size on open (a corrupt count fails here, not as a
/// huge allocation later), then edges arrive in caller-sized blocks, one
/// read call per block.
class EdgeFileReader {
public:
    explicit EdgeFileReader(const std::string& path);
    ~EdgeFileReader();
    EdgeFileReader(const EdgeFileReader&)            = delete;
    EdgeFileReader& operator=(const EdgeFileReader&) = delete;

    u64 edges() const { return count_; }          ///< the header's count
    u64 remaining() const { return count_ - pos_; }

    /// Reads the next min(`max`, remaining()) edges into `out` as raw
    /// (u, v) u64 pairs, 16 bytes each; returns how many. Throws on a
    /// short read.
    std::size_t read(void* out, std::size_t max);

    /// Steps back `count` edges, so the next read returns them again.
    void unread(u64 count);

private:
    std::string path_;
    int fd_    = -1;
    u64 count_ = 0;
    u64 pos_   = 0; ///< edges consumed so far
};

/// Streams a binary edge-list file into `sink` without materializing it —
/// the read-side counterpart of `BinaryFileSink` (replay a generated file
/// through counting/statistics sinks at O(1) memory). Returns the edge
/// count; flushes but does not finish the sink.
u64 stream_edge_list_binary(const std::string& path, EdgeSink& sink);

} // namespace kagen::io
