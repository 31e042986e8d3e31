/// \file coordinator.hpp
/// \brief The one coordinator of both multi-process transports: forked
///        ranks over socketpairs and TCP workers.
///
/// A run sends every one of R ranks its job over its channel
/// (net/protocol.hpp), then hands out the canonical C-chunk decomposition
/// as *leases*: contiguous chunk ranges, in canonical order, from one
/// cursor, to whichever rank asks next (guided self-scheduling, lease size
/// max(1, ceil(remaining / 2R)); the job carries each rank's first lease).
/// So a fast rank takes more chunks than a slow one, with no rank↔rank
/// communication. Once every lease's edge count is known, each lease's
/// offset in the merged output is a prefix sum in canonical order; the
/// coordinator validates the ranks' reports against the leases it granted
/// and places every lease's segment at its offset — so the merged file is
/// byte-identical to a single-process `generate_chunked` run for every
/// (ranks, P, K) × semantics combination and every schedule, whichever
/// transport carried it.
///
/// `run_forked` forks R local ranks, each running `serve_rank`
/// (net/worker.hpp) over its end of a socketpair; `run_net_coordinator`
/// reaches R TCP workers running the same function. From then on both share
/// every line. What differs follows from what the transport can observe:
///
///  * the gather strategy. Forked ranks share the coordinator's filesystem,
///    so their rank files are appended by path (*local merge*,
///    copy_file_range). TCP ranks stream their payload back (*stream*, -o)
///    or keep it node-local and are named in a manifest (*manifest*) — the
///    small-cluster deployment shape of Gupta's external-memory distributed
///    generation (PAPERS.md);
///  * failure attribution. A forked rank's error also carries its waitpid
///    cause ("exited with status 7", "killed by signal 9");
///  * whose RunOptions a rank runs. A job carries only the graph: forked
///    ranks get the coordinator's in the fork image, TCP workers use their
///    own (the coordinator itself only writes the telemetry paths). That
///    includes the sort budget of a dedup run, where each rank sorts its
///    own file into runs and the coordinator only merges them: forked
///    ranks hand their run file over by path, TCP ranks stream it after
///    their rank-file payload.
///
/// Every report is validated (rank id, lease table against the granted
/// leases, semantics/n of the summaries, file edge counts); receives carry
/// deadlines; a dead channel or a torn frame errors naming the rank, and
/// the chunk range of the lease it held. Each rank with a file owns it until
/// the coordinator's final verdict — keep (manifest, keep_rank_files) or
/// discard. A failed run closes every channel instead, so every rank
/// discards: no rank file and no partial output survive a failure. See
/// DESIGN.md §8.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "dist/report.hpp"
#include "net/socket.hpp"
#include "net/worker.hpp"

namespace kagen::net {

struct NetOptions {
    /// Exactly one of `listen` / `connect` selects how workers are reached:
    /// `listen` = "host:port" (":port" = every interface) accepts
    /// `expect_workers` dial-ins; `connect` dials each listed worker
    /// ("host:port" each, workers running `-worker :port`). Ranks are
    /// assigned in accept/connect order.
    std::string listen;
    std::vector<std::string> connect;
    u64 expect_workers = 0; ///< required with `listen`; with `connect` it
                            ///< must match connect.size() (or stay 0)

    u64 num_pes = 0; ///< simulated PEs P of the decomposition
                     ///< (resolve_num_chunks); 0 = worker count. The
                     ///< graph depends only on C.
    u64 threads_per_worker = 1; ///< pool threads inside each worker

    std::string output_path;   ///< gather mode: merged binary edge file
    std::string manifest_path; ///< partitioned mode: workers keep their rank
                               ///< files; this text manifest (v2) lists
                               ///< their lease segments in canonical order.
                               ///< Mutually exclusive with output_path.
    bool degree_stats = false; ///< also collect + merge per-vertex degrees

    std::string dedup_path; ///< non-empty: every rank sorts its file into
                            ///< runs (its own RunOptions::sort_memory) and
                            ///< the coordinator merges them into this file

    int connect_timeout_ms = 10000; ///< accept/connect + handshake + the
                                    ///< post-report file transfer deadline
    int job_deadline_ms = 0; ///< bounds each lease (grant to lease_done) and
                             ///< each rank's report; 0 = wait forever (a
                             ///< *dead* worker still errors immediately via
                             ///< EOF — this bounds a live-but-hung one)

    /// Test hook: accept on this pre-bound listener instead of binding
    /// `listen` (lets tests use an ephemeral port). `expect_workers` still
    /// sizes the run.
    Listener* listener = nullptr;
};

/// One lease's edges inside a kept rank file.
struct ManifestSegment {
    u64 chunk_begin = 0; ///< the lease's canonical chunk range
    u64 chunk_end   = 0;
    u64 offset      = 0; ///< byte offset of its first edge in the rank file
    u64 edges       = 0; ///< 16 bytes each from `offset` on
};

/// One rank file that outlives the run: a manifest entry, or a forked rank
/// file kept by `keep_rank_files`. It holds the rank's lease segments back
/// to back behind its 8-byte header.
struct ManifestEntry {
    u64 rank = 0;
    std::string peer; ///< rank address as seen by the coordinator
    std::string path; ///< rank-file path on the rank's machine
    u64 edges = 0;
    u64 bytes = 0;    ///< on-disk size (8-byte header + 16 per edge)
    std::vector<ManifestSegment> segments; ///< in file (= canonical) order
};

/// Coordinator-side view of a finished run, for either transport.
struct RunResult {
    u64 n          = 0; ///< global vertex count
    u64 num_chunks = 0; ///< canonical chunks C of the decomposition
    u64 num_ranks  = 0; ///< forked ranks or TCP workers

    double seconds = 0.0;    ///< largest rank busy time (summed lease run
                             ///< times; the distributed job's critical path)
    pe::ChunkRunStats stats; ///< every rank's stats, merged (ChunkRunStats::
                             ///< merge: stats.seconds is the fleet's summed
                             ///< busy time)

    u64 edges_written = 0; ///< edges in the merged output file (0 = no file)
    u64 dedup_edges   = 0; ///< unique edges after the optional dedup pass

    // Merge accounting (DESIGN.md §9): how the rank files' payload bytes
    // reached the merged output.
    u64 merged_bytes          = 0; ///< rank-file payload bytes gathered
    u64 copy_file_range_bytes = 0; ///< of those, moved kernel-side via
                                   ///< copy_file_range (local merge only;
                                   ///< the rest went through read/write)

    /// Whether the kernel-side zero-copy path carried the whole merge.
    bool copy_file_range_used() const {
        return merged_bytes > 0 && copy_file_range_bytes == merged_bytes;
    }

    CountingSummary count;    ///< merged counting summary (all ranks)
    bool has_degrees = false; ///< degree summary collected and merged
    DegreeStatsSummary degrees;

    std::vector<dist::RankReport> ranks;  ///< per-rank reports, rank order
    std::vector<ManifestEntry> manifest;  ///< rank files kept after the run
};
using NetResult = RunResult;

/// Runs `cfg`'s graph across the TCP workers `opts` describes and merges
/// their outputs; see the file comment. Of `cfg`'s RunOptions only the
/// telemetry paths apply. Throws std::invalid_argument on option conflicts
/// and std::runtime_error naming the rank on any worker or transport failure
/// (no hang, no partial output files left behind).
RunResult run_net_coordinator(const Config& cfg, const NetOptions& opts);

/// Forks `ranks` local workers, each serving its job with `worker` (whose
/// `run` the caller sets — dist::run_distributed copies `cfg`'s) over a
/// socketpair, and coordinates them like `run_net_coordinator` does TCP
/// workers (the listen/connect fields of `opts` are unused). Rank files
/// merge locally into `opts.output_path`; `keep_rank_files` keeps them
/// afterwards. A rank failure's error ends with the rank's waitpid cause.
RunResult run_forked(const Config& cfg, const NetOptions& opts, u64 ranks,
                     const NetWorkerOptions& worker, bool keep_rank_files);

} // namespace kagen::net
