/// \file ownership.hpp
/// \brief Exact-once edge ownership: the tie-breaking layer that turns the
///        paper's redundancy trick into a duplicate-free edge stream.
///
/// The incident-edge generators (undirected ER/Gnp §4.2–4.3, RGG §5, RDG §6,
/// in-memory RHG §7.1, and the sbm extension) intentionally emit every
/// cross-chunk edge on *both* owning chunks — recomputation replaces
/// communication. For streaming consumers (counting, degree statistics,
/// file output) that redundancy is poison: totals over-count and files need
/// a post-hoc dedup pass that re-materializes the graph.
///
/// The fix is a communication-free tie-break. Every one of those models
/// partitions the vertex ids [0, n) across chunks (consecutive blocks for
/// ER/sbm, Morton-ordered cell ranges for RGG/RDG, annulus×angular-chunk
/// ranges for RHG), every emitted undirected edge carries both owners, and
/// ownership of a *vertex* is locally decidable from (chunk, num_chunks)
/// alone. Declaring the owner of canonical edge {min, max} to be the chunk
/// owning `min` therefore selects exactly one of the two emitters — with
/// zero coordination, and purely as a function of (chunk, num_chunks,
/// seed, params), so exact-once streams inherit the engine's bit-determinism
/// across thread counts and (P, K) schedules. See DESIGN.md §6.
///
/// Undirected ER applies the tie-break while generating: a PE skips the
/// chunks whose lower endpoints another PE owns (er/er.hpp).
/// `OwnershipFilterSink` implements it for the other models as a per-chunk
/// emission filter: it wraps the chunk's target sink and forwards only the
/// edges whose lower endpoint falls into the chunk's owned id intervals.
/// The per-model interval builders live with their generators
/// (`er::owned_vertex_range`, `rgg::owned_vertex_range`,
/// `rdg::owned_vertex_range`, `rhg::owned_vertex_intervals`,
/// `sbm::owned_vertex_range`); `kagen::owned_vertex_intervals` in kagen.hpp
/// dispatches on the facade model.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "sink/edge_sink.hpp"

namespace kagen {

/// Which edge stream a generator run produces.
enum class EdgeSemantics {
    as_generated, ///< the paper's per-chunk output: cross-chunk edges of the
                  ///< incident-edge models appear on both owners (legacy)
    exact_once,   ///< ownership-filtered: across all chunks, every edge is
                  ///< emitted exactly once (lower-endpoint tie-break)
};

inline const char* semantics_name(EdgeSemantics semantics) {
    switch (semantics) {
        case EdgeSemantics::as_generated: return "as_generated";
        case EdgeSemantics::exact_once:   return "exact_once";
    }
    return "unknown";
}

/// Parses `semantics_name` spellings; returns false on unknown input.
bool parse_semantics(const std::string& name, EdgeSemantics* out);

/// Half-open vertex-id interval [lo, hi) owned by one chunk.
struct IdInterval {
    u64 lo = 0;
    u64 hi = 0;

    friend bool operator==(const IdInterval& a, const IdInterval& b) {
        return a.lo == b.lo && a.hi == b.hi;
    }
};

/// Sorted, disjoint ownership intervals of one chunk. Most models own a
/// single consecutive block; the in-memory RHG owns one interval per
/// annulus (O(log n) of them).
using IdIntervals = std::vector<IdInterval>;

/// True iff `id` lies in one of the (sorted, disjoint) intervals.
bool owns_vertex(const IdIntervals& intervals, VertexId id);

/// Per-chunk exact-once emission filter: forwards an edge to `target` iff
/// this chunk owns the edge's lower endpoint. Stateless beyond the interval
/// table — wrapping the same generator run twice yields bit-identical
/// filtered streams. Single-writer, like every sink; the wrapped target's
/// buffer is flushed by `finish()` only, so the caller that owns the target
/// keeps owning its lifecycle.
class OwnershipFilterSink final : public EdgeSink {
public:
    OwnershipFilterSink(IdIntervals owned, EdgeSink& target)
        : owned_(std::move(owned)), target_(target) {}

    /// Flushes this filter into the target; does NOT finish the target.
    /// Adds the drops to the `ownership.dropped` counter: call once per chunk.
    void finish() override;

    /// Edges dropped as foreign-owned duplicates so far (flushed ones).
    u64 num_filtered() const { return num_filtered_; }

protected:
    void consume(const Edge* edges, std::size_t count) override;

private:
    IdIntervals owned_;
    EdgeSink& target_;
    u64 num_filtered_ = 0;
};

} // namespace kagen
