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
///    net/coordinator.hpp — the same coordinator TCP workers talk to. Ranks
///    pull *leases* — contiguous ranges of the canonical `C = total_chunks`
///    (or K·P) decomposition, handed out in canonical order by one cursor —
///    until none is left, so a fast rank takes more of the graph than a
///    slow one. Nothing is shared while a lease runs: no memory writes, no
///    locks, no messages.
///  * `execute_rank_job` is that per-rank work, identical for forked and TCP
///    ranks: `pe::run_chunked` over each lease in turn, written to the
///    lease's granted output slots (a placed job) or appended to one
///    per-rank binary edge file, plus local statistics sinks, returning a
///    dist::RankReport with the rank's lease table. The graph comes from
///    the job frame, the RunOptions from the fork image
///    (`NetWorkerOptions::run`, copied from the coordinator's Config).
///  * A G(n,m) gather is placed: the coordinator creates the output before
///    the fork, and each forked rank pwrites its leases straight into it.
///    Otherwise forked ranks share the coordinator's filesystem, so the
///    coordinator copies their rank files by path (copy_file_range), each
///    lease's segment to its own offset in the output. Because every
///    lease's stream is exactly the [chunk_begin, chunk_end) slice of the
///    canonical chunk stream, and the offsets are the prefix sums of the
///    leases' edge counts in canonical order, the merged file is
///    **byte-identical** to a
///    single-process `generate_chunked` run into a `BinaryFileSink` — for
///    every (ranks, P, K) combination, every schedule, and under both edge
///    semantics.
///  * With a dedup path every rank then sorts its own rank file into runs
///    (em::form_runs, under the fork image's sort_memory) and the
///    coordinator merges all ranks' runs into the dedup file.
///
/// Failure containment: any rank failure throws a descriptive error naming
/// the rank and its waitpid cause, never hangs, and leaves no rank or
/// output file behind. See DESIGN.md §8 and tests/test_dist.cpp.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

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

    /// Test instrumentation: invoked inside each worker process after each
    /// lease it ran, before it asks for the next (NetWorkerOptions::
    /// lease_hook). Lets tests slow, stall or kill a rank mid-run.
    std::function<void(u64 rank, const Lease& lease)> lease_hook;
};

using DistResult = net::RunResult;

/// Runs `cfg`'s graph across `opts.num_ranks` forked worker processes, each
/// with `cfg`'s RunOptions, and merges their outputs; see the file comment
/// for the byte-identity guarantee. Throws on invalid options and on any
/// rank failure (descriptive, no hang, no partial files left behind).
DistResult run_distributed(const Config& cfg, const DistOptions& opts);

/// Where the leases of a placed job put their edges (net/protocol.hpp):
/// each lease fills exactly the output slots it was granted, with no rank
/// file. Set by the rank itself, from its transport.
struct Placement {
    /// A forked rank: the coordinator's output, inherited across fork;
    /// edge slot s is written at byte 8 + 16·s.
    int output_fd = -1;
    /// A TCP rank: hands each batch of a lease's edges, in stream order, to
    /// the coordinator.
    std::function<void(const Edge* edges, std::size_t count)> send;

    bool active() const { return output_fd >= 0 || static_cast<bool>(send); }
};

/// One rank's share of a distributed run, transport-agnostic: everything a
/// worker needs to know to execute its leases, decoded from its job frame
/// (net/protocol.hpp).
struct RankJob {
    u64 rank       = 0;
    u64 num_chunks = 0; ///< canonical chunk count C of the decomposition
    Lease first;        ///< the rank's first lease; an empty range = no
                        ///< lease at all (C < ranks)
    u64 threads    = 1; ///< pool threads inside the worker (own pool)
    bool degree_stats = false;   ///< also collect the O(n) degree summary
    bool form_runs    = false;   ///< sort the rank file into runs for the
                                 ///< coordinator's dedup merge
    std::string rank_path;       ///< binary edge file to write; empty = none
    Placement placed;            ///< placed job: where the edges go instead
};

/// Where a rank parks the sorted runs of its rank file: beside it.
inline std::string runs_path_of(const std::string& rank_path) {
    return rank_path + ".runs";
}

/// Called after each lease with the lease just run (its edges filled in);
/// returns the rank's next lease, or an empty range when none is left.
using NextLease = std::function<Lease(const Lease& finished)>;

/// Executes one rank job: runs `pe::run_chunked` over the job's first lease
/// and then every lease `next` grants, in turn, of `graph` with this rank's
/// `run` options, appending each to the one rank file (when requested) or
/// writing it to its granted slots (a placed job; a lease that emits
/// another count than its grant fails without writing outside its slots),
/// and to local statistics sinks. The thread pool (and, with threads > 1, the
/// chunk arena) is built once per job, not per lease. With `form_runs` it
/// then sorts the finished rank file into runs (em::form_runs under
/// `run.sort_memory`, key width from the graph's n) at
/// runs_path_of(rank_path). Returns the finished RankReport (ok == true)
/// with the lease table and the stats merged over the leases. The single
/// rank-execution core shared by forked and TCP workers — byte-identity of
/// both transports rests on them running literally this function. Throws
/// on any failure; the caller owns turning that into a failure report.
RankReport execute_rank_job(const GraphSpec& graph, const RunOptions& run,
                            const RankJob& job, const NextLease& next);

/// Opens a finished rank file read-only and checks it against the edge
/// count its rank reported — the size must be exactly 8 + 16·edges and the
/// u64 header must equal `edges`. Returns the descriptor positioned at the
/// payload; throws on any mismatch or I/O failure. Run by the rank before
/// its file leaves it, and by the coordinator before it copies a forked
/// rank's lease segments into the output.
int open_rank_file(const std::string& path, u64 edges);

/// Opens the run file beside `rank_path` read-only and checks that it holds
/// exactly `edges` edges (16·edges bytes). Returns the descriptor; throws
/// on any mismatch.
int open_runs_file(const std::string& rank_path, u64 edges);

} // namespace kagen::dist
