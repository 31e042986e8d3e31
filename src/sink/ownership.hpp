/// \file ownership.hpp
/// \brief Exact-once edge semantics: the tie-break that turns the paper's
///        redundancy trick into a duplicate-free edge stream.
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
/// Each of those generators takes a trailing `EdgeSemantics` and applies the
/// tie-break while generating: under `exact_once` it skips the work whose
/// edges another chunk keeps (er/, rgg/, rdg/, rhg/, sbm/ headers).
#pragma once

#include <string>

namespace kagen {

/// Which edge stream a generator run produces.
enum class EdgeSemantics {
    as_generated, ///< the paper's per-chunk output: cross-chunk edges of the
                  ///< incident-edge models appear on both owners (legacy)
    exact_once,   ///< across all chunks, every edge is emitted exactly once
                  ///< (lower-endpoint tie-break)
};

inline const char* semantics_name(EdgeSemantics semantics) {
    switch (semantics) {
        case EdgeSemantics::as_generated: return "as_generated";
        case EdgeSemantics::exact_once:   return "exact_once";
    }
    return "unknown";
}

/// Parses `semantics_name` spellings; returns false on unknown input.
inline bool parse_semantics(const std::string& name, EdgeSemantics* out) {
    for (const EdgeSemantics s : {EdgeSemantics::as_generated, EdgeSemantics::exact_once}) {
        if (name == semantics_name(s)) {
            *out = s;
            return true;
        }
    }
    return false;
}

} // namespace kagen
