/// \file protocol.hpp
/// \brief Wire messages between the coordinator and its ranks, for forked
///        and TCP ranks alike.
///
/// Every message is one frame (net/socket.hpp) whose payload starts with a
/// u64 message type. The conversation per rank is:
///
///   rank        → coordinator   hello      {protocol version}
///   coordinator → rank          hello      {protocol version}
///   coordinator → rank          job        {JobSpec: graph identity
///                                           (encode_config: GraphSpec + C)
///                                           + rank task + first lease}
///   while the rank holds a lease:
///     rank        → coordinator lease_data {edges}  (placed TCP jobs: the
///                                           lease's edges in stream order,
///                                           at most 1 MiB per frame)
///     rank        → coordinator lease_done {edges}
///     coordinator → rank        lease      {chunk_begin, chunk_end,
///                                           first_slot, edges}
///                                          or lease {done}
///   rank        → coordinator   report     {dist::RankReport, with the
///                                           lease table}
///   rank        → coordinator   telemetry  {obs::RankTelemetry}
///                                          (only if the job set want_trace)
///   rank        → coordinator   file       {path, edges}  (want_file)
///                               …raw payload bytes, outside any frame
///                                          (only if the job set send_file),
///                               then the run file's bytes (send_file and
///                                          form_runs)
///   coordinator → rank          verdict    {keep}  (want_file, !send_file)
///
/// Leases are contiguous chunk ranges the coordinator hands out from one
/// cursor in canonical order to whichever rank asks next; the job carries
/// each rank's first one, and a job whose first lease is empty (more ranks
/// than chunks) skips the lease loop. A rank whose lease fails answers with
/// a failure report in place of lease_done.
///
/// A *placed* job (`place`: a gather of a model that fixes its chunk edge
/// counts up front, without dedup or kept rank files) has no rank file.
/// Every grant carries the lease's first edge slot in the output and its
/// edge count, prefix sums of the coordinator's chunk count table, so each
/// lease's edges go straight to their place while leases still run: a
/// forked rank pwrites them into the output it inherited (`!send_file`), a
/// TCP rank streams them as lease_data frames that the coordinator pwrites
/// at the lease's next slots on arrival (`send_file`). lease_done then
/// confirms the grant's count.
///
/// Every other gather or listing job writes a rank file holding its leases'
/// edges back to back in the order they ran, so the report's lease table
/// (begin, end, edges per lease) locates every segment. A streamed rank
/// file is unlinked once sent. A file that stays in place stays the rank's
/// until the verdict: keep leaves it, discard — or EOF, because the
/// coordinator failed or died — unlinks it. So a failed run leaves no rank
/// file behind on any rank.
///
/// The two-way hello catches a non-kagen peer (or a version skew) on both
/// ends before any job state exists. Decoders validate the type tag, every
/// enum, and that the payload is consumed exactly — trailing bytes are a
/// protocol error, not padding.
///
/// A dedup job (`form_runs`) has every rank sort its finished rank file
/// into runs under its own `RunOptions::sort_memory`; the report carries
/// the run table (edges per run). A rank whose file stays in place leaves
/// the run file beside it (dist::runs_path_of) for the coordinator to take
/// by path; a streaming rank sends its 16 · Σ runs bytes right after the
/// rank-file payload.
///
/// Version 3 added the verdict and folded the file header and file-info
/// messages into `file`. Version 4 sends only the graph identity in the job
/// (config encoding v2, C once); the rank's RunOptions stay on the rank.
/// Version 5 adds the `form_runs` job flag and the report's run table, and
/// drops the retired `steal` trace phase, which renumbers `budget_park`.
/// Version 6 replaces the static rank ranges with pulled leases: the
/// `lease` and `lease_done` messages, and the report's lease table in place
/// of its chunk-range echo. Version 7 places sized gathers: the `place` job
/// flag, every grant's first slot and edge count, and the `lease_data`
/// message; a placed job sends no `file` frame. The strict hello makes
/// mismatched peers refuse each other up front instead of mis-framing
/// mid-run.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "dist/report.hpp"
#include "kagen.hpp"
#include "obs/trace.hpp"

namespace kagen::net {

class Socket;

constexpr u64 kProtocolVersion = 7;

/// Largest frame of the lease phase, and so of the coordinator's one
/// receive buffer: a lease_data frame of kLeaseDataEdges edges behind its
/// type tag fits.
constexpr u64 kLeaseFrameBytes = u64{1} << 20;

/// Edges per lease_data frame at most.
constexpr std::size_t kLeaseDataEdges = (kLeaseFrameBytes - 8) / sizeof(Edge);

/// The most edges an output file can hold (8-byte header, 16 bytes each).
constexpr u64 kMaxOutputEdges = (~u64{0} - 8) / 16;

enum class Msg : u64 {
    hello      = 1,
    job        = 2,
    report     = 3,
    file       = 4,
    telemetry  = 6,
    verdict    = 7,
    lease      = 8,
    lease_done = 9,
    lease_data = 10,
};

// --- hello -----------------------------------------------------------------

std::vector<u8> encode_hello();

/// Validates type + protocol version; throws a descriptive error otherwise.
void decode_hello(const std::vector<u8>& payload);

// --- job -------------------------------------------------------------------

/// Everything a worker needs to run its share: the graph, its rank task and
/// the output contract. `graph` and `task.num_chunks` travel as one
/// `encode_config` (config.hpp).
struct JobSpec {
    GraphSpec graph;
    dist::RankJob task; ///< all but rank_path and placement, which the
                        ///< worker sets up itself
    bool want_file  = false; ///< write a rank file at all
    bool place      = false; ///< no rank file: every lease's edges go to
                             ///< its granted slots of the output
    bool send_file  = false; ///< stream the rank file (or a placed job's
                             ///< edges) back vs keep it in place (write
                             ///< into the inherited output)
    bool want_trace = false; ///< record + ship trace spans and metrics
};

std::vector<u8> encode_job(const JobSpec& job);
JobSpec decode_job(const std::vector<u8>& payload);

// --- leases ----------------------------------------------------------------

/// The coordinator's answer to a lease_done: the rank's next lease (with
/// its first slot and edge count; both 0 outside placed jobs), or `done`
/// when `lease` is an empty range.
std::vector<u8> encode_lease(const dist::Lease& lease);

/// Decodes a lease against the job's C. Returns the granted lease, or an
/// empty range for done; throws unless a granted range is non-empty and
/// within [0, num_chunks) and its slots fit an output file.
dist::Lease decode_lease(const std::vector<u8>& payload, u64 num_chunks);

/// The rank's "lease finished with `edges` edges; what next?".
std::vector<u8> encode_lease_done(u64 edges);
u64 decode_lease_done(const std::vector<u8>& payload);

/// Sends `count` edges of a placed lease over `sock` as lease_data frames
/// of at most kLeaseDataEdges edges each, straight from `edges`.
void send_lease_data(Socket& sock, const Edge* edges, std::size_t count);

/// A lease_data frame's edges, in output file layout, inside the payload.
struct LeaseData {
    const u8* bytes = nullptr; ///< 16 · edges bytes
    u64 edges       = 0;
};

/// Validates the type tag and a payload of 1 to kLeaseDataEdges whole edges.
LeaseData decode_lease_data(const std::vector<u8>& payload);

/// The type tag of a message (0 if the payload is too short to hold one):
/// during the lease phase a rank sends either lease_done or, if its lease
/// failed, its failure report.
Msg peek_type(const std::vector<u8>& payload);

// --- report ----------------------------------------------------------------

std::vector<u8> encode_report(const dist::RankReport& report);
dist::RankReport decode_report(const std::vector<u8>& payload);

// --- telemetry -------------------------------------------------------------

/// The rank's trace events + metrics delta (obs::serialize_telemetry bytes
/// behind the type tag). Sent right after the report when the job asked for
/// it, before any file transfer.
std::vector<u8> encode_telemetry(const obs::RankTelemetry& telemetry);
obs::RankTelemetry decode_telemetry(const std::vector<u8>& payload);

// --- rank file -------------------------------------------------------------

/// Where the rank's file lives and what it holds. With `send_file` exactly
/// 16 · `edges` raw payload bytes (the file without its 8-byte header)
/// follow the frame.
struct FileInfo {
    std::string path; ///< absolute path on the rank's machine
    u64 edges = 0;
};

std::vector<u8> encode_file(const FileInfo& info);
FileInfo decode_file(const std::vector<u8>& payload);

/// The coordinator's last word to a rank whose file stayed in place: keep it
/// (manifest entry, or a kept local rank file) or discard it.
std::vector<u8> encode_verdict(bool keep);
bool decode_verdict(const std::vector<u8>& payload);

} // namespace kagen::net
