/// \file sinks.hpp
/// \brief Concrete edge sinks: in-memory, counting, degree statistics, and
///        binary file streaming. See edge_sink.hpp for the contract.
#pragma once

#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sink/edge_sink.hpp"
#include "sink/ownership.hpp"

namespace kagen {

// ---------------------------------------------------------------------------
// Mergeable sink summaries
// ---------------------------------------------------------------------------
//
// Value-type snapshots of the streaming statistics sinks. They exist so
// statistics survive a process boundary: a distributed rank (dist/) streams
// its chunk range through local sinks, ships the summary in its report
// (dist/report.hpp), and the coordinator merges the per-rank summaries into exactly the
// numbers a single-process run over the whole chunk range would have
// produced. Merging is exact (integer counters and degree vectors add), so
// "merged equals in-process" is a bit-for-bit equality, not an estimate —
// and the same property makes the summaries useful for any multi-run
// aggregation (e.g. seed sweeps). Serialization goes through common/bytes:
// explicit little-endian layout, bounds-checked decode.

/// Snapshot of a `CountingSink`.
struct CountingSummary {
    EdgeSemantics semantics = EdgeSemantics::as_generated;
    u64 num_edges           = 0;
    u64 num_self_loops      = 0;

    /// Adds `other`'s counts into this summary. The streams being combined
    /// must carry the same semantics — a mixed total would be meaningless —
    /// so a mismatch throws.
    void merge(const CountingSummary& other);

    /// Identical wording to `CountingSink::summary()` over the same totals.
    std::string str() const;

    void serialize(std::vector<u8>& out) const;
    static CountingSummary deserialize(const u8*& p, const u8* end);

    friend bool operator==(const CountingSummary&, const CountingSummary&) = default;
};

/// Snapshot of a `DegreeStatsSink` (degree vector included, so merging is
/// exact per vertex; O(n) like the sink itself).
struct DegreeStatsSummary {
    EdgeSemantics semantics = EdgeSemantics::as_generated;
    u64 num_edges           = 0;
    std::vector<u64> degrees;

    /// Element-wise degree addition. Throws on semantics or vertex-count
    /// mismatch (summaries of different graphs cannot be combined).
    void merge(const DegreeStatsSummary& other);

    double average_degree() const;
    u64 max_degree() const;

    /// Identical wording to `DegreeStatsSink::summary()` over the same data.
    std::string str() const;

    void serialize(std::vector<u8>& out) const;
    static DegreeStatsSummary deserialize(const u8*& p, const u8* end);

    friend bool operator==(const DegreeStatsSummary&, const DegreeStatsSummary&) = default;
};

/// Appends every edge to an EdgeList. The facade's EdgeList form,
/// `kagen::generate(cfg, rank, size)`, collects a rank's edges through one.
class MemorySink final : public EdgeSink {
public:
    /// Owns its edge list.
    MemorySink() : out_(&owned_) {}

    /// Appends into a caller-provided list (no copy on take-out).
    explicit MemorySink(EdgeList* out) : out_(out) {}

    const EdgeList& edges() const { return *out_; }

    /// Moves the collected edges out (owning mode only).
    EdgeList take() {
        flush();
        return std::move(owned_);
    }

protected:
    void consume(const Edge* edges, std::size_t count) override {
        out_->insert(out_->end(), edges, edges + count);
    }

private:
    EdgeList owned_;
    EdgeList* out_;
};

/// Counts edges (and self-loops) without storing anything. Accepts
/// concurrent delivery from the chunked engine.
///
/// The count is of *emissions*: under `EdgeSemantics::as_generated` the
/// incident-edge models deliver their intentional cross-chunk duplicates,
/// so `num_edges()` over-counts the graph by the duplicated boundary edges;
/// under `exact_once` it equals the true undirected edge count. Tag the
/// sink with the semantics it is fed (constructor or `set_semantics`) so
/// `summary()` and downstream reports state what the total means.
class CountingSink final : public EdgeSink {
public:
    explicit CountingSink(EdgeSemantics semantics = EdgeSemantics::as_generated)
        : semantics_(semantics) {}

    u64 num_edges() const { return num_edges_; }
    u64 num_self_loops() const { return num_self_loops_; }
    bool ordered() const override { return false; }

    EdgeSemantics semantics() const { return semantics_; }
    void set_semantics(EdgeSemantics semantics) { semantics_ = semantics; }

    /// One-line report whose totals are explicitly labelled with the
    /// semantics of the stream they were computed from.
    std::string summary() const;

    /// Mergeable/serializable snapshot of the current totals.
    CountingSummary summarize() const;

private:
    void consume(const Edge* edges, std::size_t count) override;

    std::mutex mutex_;
    EdgeSemantics semantics_;
    u64 num_edges_      = 0;
    u64 num_self_loops_ = 0;
};

/// Streams per-vertex degree counts (both endpoints of every emitted edge,
/// matching kagen::degrees on the materialized list) without storing edges.
/// Memory: O(n), independent of the edge count. Accepts concurrent delivery.
///
/// Degrees count *emissions*, so an `as_generated` stream from a
/// duplicate-carrying model inflates the degrees of chunk-boundary
/// vertices (each duplicated edge contributes twice); only an `exact_once`
/// stream yields the true degree sequence of the graph. The sink carries
/// the semantics it was fed (constructor or `set_semantics`), and
/// `summary()` labels its totals with it, so a reader can no longer
/// mistake redundancy-inflated statistics for graph statistics.
class DegreeStatsSink final : public EdgeSink {
public:
    explicit DegreeStatsSink(u64 n,
                             EdgeSemantics semantics = EdgeSemantics::as_generated)
        : semantics_(semantics), degrees_(n, 0) {}

    u64 num_edges() const { return num_edges_; }
    const std::vector<u64>& degrees() const { return degrees_; }
    double average_degree() const;
    u64 max_degree() const;

    /// Histogram over degree values: hist[d] = number of vertices with
    /// degree d (dense up to the maximum degree).
    std::vector<u64> degree_histogram() const;

    bool ordered() const override { return false; }

    EdgeSemantics semantics() const { return semantics_; }
    void set_semantics(EdgeSemantics semantics) { semantics_ = semantics; }

    /// One-line report; totals are labelled with the stream semantics.
    std::string summary() const;

    /// Mergeable/serializable snapshot (copies the degree vector).
    DegreeStatsSummary summarize() const;

protected:
    void consume(const Edge* edges, std::size_t count) override;

private:
    std::mutex mutex_;
    EdgeSemantics semantics_;
    std::vector<u64> degrees_;
    u64 num_edges_ = 0;
};

/// Streams edges to disk in the graph/io binary format (u64 count header,
/// then u64 pairs); the header is back-patched in finish(), so the edge
/// count never needs to be known up front. Output is bit-identical to
/// io::write_edge_list_binary over the same edge sequence.
///
/// Hot path (DESIGN.md §9): each incoming batch is written with a single
/// bulk `fwrite` — `Edge` is a pair of u64 with no padding, so the batch is
/// already the file's on-disk byte layout — into a 1 MiB stream buffer, so
/// the per-edge cost is one 16-byte memcpy plus an amortized slice of a
/// large write(2). `bytes_written()` counts every byte handed to stdio
/// (header, payload, and the finish() back-patch), for throughput
/// accounting.
///
/// Positional delivery (`write_at`) goes around stdio: `reserve_slots`
/// flushes the stream and moves it past the reserved slots, and each
/// `write_at` is one pwrite(2) at the slots' file offset, so the chunked
/// engine's workers write their chunks concurrently (DESIGN.md §5).
///
/// The file is overwritten in place, not truncated at open: finish() cuts
/// a regular file to its final size, so rewriting an existing output costs
/// no writeback at close. A sink destroyed without finish() (an error
/// unwind) removes a regular file: the header would still claim 0 edges,
/// which reads as a valid empty graph.
///
/// The descriptor is opened with O_CLOEXEC: the distributed runner (dist/)
/// forks workers out of a process that may hold open output sinks, and a
/// worker that execs a subprocess must not leak a writable descriptor onto
/// the coordinator's output file (tests/test_dist.cpp pins this).
class BinaryFileSink final : public EdgeSink {
public:
    /// \param buffer_edges inline emit-buffer capacity (0 = default); the
    ///        1 MiB stream buffer is independent of this.
    explicit BinaryFileSink(const std::string& path, std::size_t buffer_edges = 0);
    ~BinaryFileSink() override;

    BinaryFileSink(const BinaryFileSink&)            = delete;
    BinaryFileSink& operator=(const BinaryFileSink&) = delete;

    void finish() override;
    u64 num_edges() const { return num_edges_; }

    bool accepts_write_at() const override { return true; }
    u64 reserve_slots(u64 count) override;
    void write_at(u64 index, const Edge* edges, std::size_t count) override;

    /// Total bytes handed to the stream so far (header + edge payload,
    /// reserved slots included, +, after finish(), the back-patched header
    /// again).
    u64 bytes_written() const { return bytes_written_; }

    /// Underlying descriptor (diagnostics/tests; -1 after finish()).
    int fd() const;

protected:
    void consume(const Edge* edges, std::size_t count) override;

private:
    static constexpr std::size_t kStreamBufferBytes = std::size_t{1} << 20;

    std::string path_;
    std::FILE* file_;
    std::unique_ptr<char[]> stream_buffer_;
    u64 num_edges_     = 0;
    u64 bytes_written_ = 0;
    bool finished_     = false;
    bool regular_      = false; ///< a regular file: sized by finish()
};

} // namespace kagen
