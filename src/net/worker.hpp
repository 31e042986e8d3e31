/// \file worker.hpp
/// \brief The rank side of the coordinator protocol: one channel, one job,
///        leases until none is left, one report — then exit.
///
/// `serve_rank` is everything a rank does once it holds a channel to the
/// coordinator (net/protocol.hpp): hello, job decode, exactly the
/// rank-execution core `dist::execute_rank_job` (which is why every
/// transport is byte-identical) over the job's first lease and every lease
/// it then pulls, report, telemetry, rank file, verdict. A placed job has
/// no rank file: its leases go out as lease_data frames (TCP) or into the
/// output the rank inherited (`output_fd`, a forked rank). A
/// TCP worker (`kagen_tool -worker host:port`, `run_net_worker`) runs it
/// after reaching the coordinator (dialing "host:port", or — with an empty
/// host, ":port" — listening for the coordinator to dial in); a forked rank
/// runs it over its socketpair. The job carries only the graph; the rank
/// runs it with `NetWorkerOptions::run`: a TCP worker's own, a forked
/// rank's copied from the coordinator. A job that throws is reported as a
/// failure report (ok == false with the message), so the coordinator can
/// name the rank. Transport failures (coordinator gone, torn frame,
/// deadline) throw.
/// Either way the rank file is unlinked unless a keep verdict arrived.
#pragma once

#include <functional>
#include <string>

#include "common/types.hpp"
#include "config.hpp"
#include "dist/report.hpp"

namespace kagen::net {

class Socket;

struct NetWorkerOptions {
    RunOptions run;                ///< how this rank runs its job (the
                                   ///< coordinator writes the telemetry)
    std::string scratch_dir;       ///< rank-file location; empty = $TMPDIR
    int output_fd = -1;            ///< a forked rank: the coordinator's
                                   ///< output, inherited across fork, which
                                   ///< a placed job writes into (-1 = none)
    int connect_timeout_ms = 10000; ///< connect/accept + handshake deadline
    int io_deadline_ms     = 0;     ///< job-frame receive deadline; 0 = none
                                    ///< (the coordinator sends jobs only
                                    ///< after every worker connected and a
                                    ///< placed job's count pass, so this
                                    ///< waits on the slowest peer)

    /// Test instrumentation: invoked with the assigned rank after the job
    /// decodes, before any generation. Lets tests inject rank-targeted
    /// faults (throw; in a forked rank also _exit or raise).
    std::function<void(u64 rank)> rank_hook;

    /// Test instrumentation: invoked after each lease the rank ran (edges
    /// filled in), before it asks for the next. Lets tests slow, stall or
    /// kill a rank in the middle of its lease loop.
    std::function<void(u64 rank, const dist::Lease& lease)> lease_hook;
};

/// Where rank `rank` of process `pid` keeps its files: each one (rank file,
/// run file) is named `<scratch dir>/kagen_rank<rank>.<pid>.` plus a job
/// number. After a failed forked run the coordinator removes whatever a
/// rank killed by a signal left under it.
std::string rank_file_prefix(const NetWorkerOptions& opt, u64 rank, long pid);

/// Serves one job over `sock`. Returns the process exit code (0 = job
/// succeeded, 1 = job failed but was reported); throws std::runtime_error
/// on transport failures.
int serve_rank(Socket& sock, const NetWorkerOptions& opts);

/// Runs one TCP worker against `endpoint_spec` ("host:port" to dial the
/// coordinator, ":port" to listen for it), then `serve_rank`.
int run_net_worker(const std::string& endpoint_spec,
                   const NetWorkerOptions& opts = {});

} // namespace kagen::net
