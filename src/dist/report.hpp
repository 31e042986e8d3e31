/// \file report.hpp
/// \brief RankReport: what every rank tells the coordinator at the end of
///        its job, over whichever transport reached it.
///
/// The paper's generators need *zero* communication to produce the graph;
/// besides its job, its lease requests, its rank file and the sorted runs
/// of a dedup job, the only bytes a rank ever sends are this one report —
/// its `pe::ChunkRunStats` merged over its leases (every field of it, so
/// the coordinator's fold sees exactly what the rank ran), its lease table,
/// the edge count of its rank file, the run table of a dedup job, and the
/// mergeable sink summaries (sink/sinks.hpp) — or, if the rank failed, the
/// error message. The payload uses the explicit little-endian
/// layout of common/bytes.hpp; net/protocol.hpp frames it as the `report`
/// message. Its codec lives in dist/runner.cpp, next to execute_rank_job,
/// which produces it.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "pe/pe.hpp"
#include "sink/sinks.hpp"

namespace kagen::dist {

/// One lease: a contiguous range of canonical chunks a rank ran, in one
/// `pe::run_chunked` call appended to its rank file, and the edges that
/// range emitted.
struct Lease {
    u64 chunk_begin = 0;
    u64 chunk_end   = 0;
    u64 edges       = 0;

    bool operator==(const Lease&) const = default;
};

/// Everything one worker reports back to the coordinator.
struct RankReport {
    u64 rank = 0;

    /// Outcome: `ok == true` carries the stats below; `ok == false` carries
    /// only `error` (the worker caught an exception and exited nonzero).
    bool ok = true;
    std::string error;

    pe::ChunkRunStats stats;     ///< ChunkRunStats::merge over the leases;
                                 ///< seconds = summed lease run time (busy)
    std::vector<Lease> leases;   ///< every lease the rank ran, in the order
                                 ///< it ran them (= canonical order); its
                                 ///< rank file holds their edges back to back
    u64 file_edges  = 0;         ///< edges written to the rank file (0 = none)
    std::vector<u64> runs;       ///< run table of a dedup job: edges per sorted
                                 ///< run the rank formed from its rank file
    CountingSummary count;       ///< always collected (O(1) per worker)
    bool has_degrees = false;    ///< degree summary shipped (opt-in, O(n));
                                 ///< the coordinator releases the per-rank
                                 ///< degree vectors after merging, so in
                                 ///< RunResult::ranks only the merged
                                 ///< RunResult::degrees carries them
    DegreeStatsSummary degrees;
};

/// Serializes a report into the frame payload layout.
std::vector<u8> serialize_report(const RankReport& report);

/// Decodes a frame payload; throws std::runtime_error on malformed input.
RankReport deserialize_report(const std::vector<u8>& payload);

} // namespace kagen::dist
