/// \file runner.hpp
/// \brief Forked ranks (`generate_distributed`, `kagen_tool -ranks N`) and
///        the rank-execution core every transport runs.
///
/// The paper's headline claim is that every PE generates its partition with
/// *zero* communication. The chunked engine (pe/pe.hpp) validates that
/// in-process — every chunk is a pure function of (chunk, C, seed, params)
/// — and this backend makes it literal across address spaces:
///
///  * `run_distributed` forks `num_ranks` worker processes, each holding one
///    end of a socketpair, and hands them to the one coordinator of
///    net/coordinator.hpp — the same coordinator TCP workers talk to. Each
///    rank runs the contiguous `block_begin` slice of the canonical
///    `C = total_chunks` (or K·P) decomposition with nothing shared: no
///    memory writes, no locks, no messages during generation.
///  * `execute_rank_job` is that per-rank work, identical for forked and TCP
///    ranks: `pe::run_chunked` over the chunk range into a per-rank binary
///    edge file plus local statistics sinks, returning a dist::RankReport.
///    The graph comes from the job frame, the RunOptions from the fork
///    image (`NetWorkerOptions::run`, copied from the coordinator's Config).
///  * Forked ranks share the coordinator's filesystem, so the coordinator
///    appends their rank files by path (copy_file_range) in canonical rank
///    order. Because rank r's stream is exactly the
///    [block_begin(C,R,r), block_begin(C,R,r+1)) slice of the canonical chunk
///    stream, the merged file is **byte-identical** to a single-process
///    `generate_chunked` run into a `BinaryFileSink` — for every
///    (ranks, P, K) combination and under both edge semantics.
///  * With a dedup path every rank then sorts its own rank file into runs
///    (em::form_runs, under the fork image's sort_memory) and the
///    coordinator merges all ranks' runs into the dedup file.
///
/// Failure containment: any rank failure throws a descriptive error naming
/// the rank and its waitpid cause, never hangs, and leaves no rank or
/// output file behind. See DESIGN.md §8 and tests/test_dist.cpp.
#pragma once

#include <functional>
#include <string>

#include "common/fileio.hpp"
#include "common/types.hpp"
#include "config.hpp"
#include "dist/report.hpp"
#include "net/coordinator.hpp"

namespace kagen::dist {

/// Execution shape of a forked run.
struct DistOptions {
    u64 num_ranks = 0;        ///< worker processes; 0 = 1
    u64 num_pes   = 0;        ///< simulated PEs P of the decomposition
                              ///< (resolve_num_chunks); 0 = num_ranks. The
                              ///< graph depends only on C — identical to a
                              ///< single-process run with the same (P, K).
    u64 threads_per_rank = 1; ///< pool threads inside each worker (each
                              ///< worker builds its own private pool; the
                              ///< forked child never touches the parent's)

    std::string output_path;  ///< merged binary edge file (graph/io format);
                              ///< empty = stats-only run, no files at all
    std::string scratch_dir;  ///< per-rank file location; empty = $TMPDIR
    bool keep_rank_files = false; ///< keep the per-rank files after the merge
                                  ///< (in scratch_dir / $TMPDIR; listed in
                                  ///< RunResult::manifest)

    bool degree_stats = false; ///< also collect + merge per-vertex degrees
                               ///< (O(n) per worker and per frame)

    std::string dedup_path;   ///< non-empty: every rank sorts its file into
                              ///< runs under the RunOptions' sort_memory and
                              ///< the coordinator merges them into this file
                              ///< (canonical deduplicated edge set for
                              ///< as_generated runs)

    /// Test instrumentation: invoked inside each worker process after its
    /// job arrived, before any generation. Lets tests inject rank-targeted
    /// faults (throw, _exit, raise) to pin the failure-propagation contract.
    /// Inherited across fork by memory image; must not rely on threads.
    std::function<void(u64 rank)> rank_hook;
};

using DistResult = net::RunResult;

/// Runs `cfg`'s graph across `opts.num_ranks` forked worker processes, each
/// with `cfg`'s RunOptions, and merges their outputs; see the file comment
/// for the byte-identity guarantee. Throws on invalid options and on any
/// rank failure (descriptive, no hang, no partial files left behind).
DistResult run_distributed(const Config& cfg, const DistOptions& opts);

/// One rank's share of a distributed run, transport-agnostic: everything a
/// worker needs to know to execute its chunk range, decoded from its job
/// frame (net/protocol.hpp).
struct RankJob {
    u64 rank        = 0;
    u64 num_chunks  = 0; ///< canonical chunk count C of the decomposition
    u64 chunk_begin = 0; ///< contiguous range [chunk_begin, chunk_end) to run
    u64 chunk_end   = 0;
    u64 threads     = 1; ///< pool threads inside the worker (own pool)
    bool degree_stats = false;   ///< also collect the O(n) degree summary
    bool form_runs    = false;   ///< sort the rank file into runs for the
                                 ///< coordinator's dedup merge
    std::string rank_path;       ///< binary edge file to write; empty = stats only
};

/// Where a rank parks the sorted runs of its rank file: beside it.
inline std::string runs_path_of(const std::string& rank_path) {
    return rank_path + ".runs";
}

/// Executes one rank job: runs `pe::run_chunked` over the job's chunk range
/// of `graph` with this rank's `run` options into the rank file (when
/// requested) plus local statistics sinks; with `form_runs`, then sorts the
/// finished rank file into runs (em::form_runs under `run.sort_memory`, key
/// width from the graph's n) at runs_path_of(rank_path). Returns the
/// finished RankReport (ok == true). The single rank-execution core shared by forked
/// and TCP workers — byte-identity of both transports rests on them running
/// literally this function. Throws on any failure; the caller owns turning
/// that into a failure report.
RankReport execute_rank_job(const GraphSpec& graph, const RunOptions& run,
                            const RankJob& job);

/// Checks a finished rank file against the edge count its rank reported —
/// the size must be exactly 8 + 16·edges and the u64 header must equal
/// `edges` — then copies its 16·edges payload bytes to `out_fd` at its
/// current offset (fileio::copy_bytes); `out_fd < 0` only checks. Throws on
/// any mismatch or I/O failure. Run by the rank before its file leaves it,
/// and by the coordinator to append a forked rank's file to the output.
fileio::CopyStats copy_rank_file(const std::string& path, u64 edges, int out_fd,
                                 bool allow_copy_file_range);

/// Opens the run file beside `rank_path` read-only and checks that it holds
/// exactly `edges` edges (16·edges bytes). Returns the descriptor; throws
/// on any mismatch.
int open_runs_file(const std::string& rank_path, u64 edges);

} // namespace kagen::dist
