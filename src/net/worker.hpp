/// \file worker.hpp
/// \brief The rank side of the coordinator protocol: one channel, one job,
///        one report — then exit.
///
/// `serve_rank` is everything a rank does once it holds a channel to the
/// coordinator (net/protocol.hpp): hello, job decode, exactly the
/// rank-execution core `dist::execute_rank_job` (which is why every
/// transport is byte-identical), report, telemetry, rank file, verdict. A
/// TCP worker (`kagen_tool -worker host:port`, `run_net_worker`) runs it
/// after reaching the coordinator (dialing "host:port", or — with an empty
/// host, ":port" — listening for the coordinator to dial in); a forked rank
/// runs it over its socketpair. A job that throws is reported as a failure
/// report (ok == false with the message), so the coordinator can name the
/// rank. Transport failures (coordinator gone, torn frame, deadline) throw.
/// Either way the rank file is unlinked unless a keep verdict arrived.
#pragma once

#include <functional>
#include <string>

#include "common/types.hpp"

namespace kagen {

struct Config; // kagen.hpp

namespace net {

class Socket;

struct NetWorkerOptions {
    std::string scratch_dir;       ///< rank-file location; empty = $TMPDIR
    int connect_timeout_ms = 10000; ///< connect/accept + handshake deadline
    int io_deadline_ms     = 0;     ///< job-frame receive deadline; 0 = none
                                    ///< (the coordinator sends jobs only
                                    ///< after every worker connected, so
                                    ///< this waits on the slowest peer)

    /// Test instrumentation: invoked with the assigned rank after the job
    /// decodes, before any generation. Lets tests inject rank-targeted
    /// faults (throw; in a forked rank also _exit or raise).
    std::function<void(u64 rank)> rank_hook;
};

/// Serves one job over `sock`. `inherited` is the Config of a forked rank's
/// coordinator (shared memory image): the rank runs it instead of the
/// decoded one, so the fields `encode_config` leaves out (arena_slab_bytes)
/// keep the parent's values. Returns the process exit code (0 = job
/// succeeded, 1 = job failed but was reported); throws std::runtime_error
/// on transport failures.
int serve_rank(Socket& sock, const NetWorkerOptions& opts,
               const Config* inherited = nullptr);

/// Runs one TCP worker against `endpoint_spec` ("host:port" to dial the
/// coordinator, ":port" to listen for it), then `serve_rank`.
int run_net_worker(const std::string& endpoint_spec,
                   const NetWorkerOptions& opts = {});

} // namespace net
} // namespace kagen
