/// \file protocol.hpp
/// \brief Wire messages between the coordinator and its ranks, for forked
///        and TCP ranks alike.
///
/// Every message is one frame (net/socket.hpp) whose payload starts with a
/// u64 message type. The conversation per rank is:
///
///   rank        → coordinator   hello      {protocol version}
///   coordinator → rank          hello      {protocol version}
///   coordinator → rank          job        {JobSpec: canonical Config
///                                           encode + rank/chunk range}
///   rank        → coordinator   report     {dist::RankReport}
///   rank        → coordinator   telemetry  {obs::RankTelemetry}
///                                          (only if the job set want_trace)
///   rank        → coordinator   file       {path, edges}  (want_file)
///                               …raw payload bytes, outside any frame
///                                          (only if the job set send_file)
///   coordinator → rank          verdict    {keep}  (want_file, !send_file)
///
/// A streamed rank file is unlinked once sent. A file that stays in place
/// stays the rank's until the verdict: keep leaves it, discard — or EOF,
/// because the coordinator failed or died — unlinks it. So a failed run
/// leaves no rank file behind on any rank.
///
/// The two-way hello catches a non-kagen peer (or a version skew) on both
/// ends before any job state exists. Decoders validate the type tag, every
/// enum, and that the payload is consumed exactly — trailing bytes are a
/// protocol error, not padding.
///
/// Version 3 added the verdict and folded the file header and file-info
/// messages into `file`; the strict hello makes mismatched peers refuse each
/// other up front instead of mis-framing mid-run.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "dist/report.hpp"
#include "kagen.hpp"
#include "obs/trace.hpp"

namespace kagen::net {

constexpr u64 kProtocolVersion = 3;

enum class Msg : u64 {
    hello     = 1,
    job       = 2,
    report    = 3,
    file      = 4,
    telemetry = 6,
    verdict   = 7,
};

// --- hello -----------------------------------------------------------------

std::vector<u8> encode_hello();

/// Validates type + protocol version; throws a descriptive error otherwise.
void decode_hello(const std::vector<u8>& payload);

// --- job -------------------------------------------------------------------

/// Everything a worker needs to run its share: the full generation Config
/// (canonical encode, kagen.hpp), its rank task and the output contract.
struct JobSpec {
    Config cfg;
    dist::RankJob task; ///< all but rank_path, which the worker picks itself
    bool want_file  = false; ///< write a rank file at all
    bool send_file  = false; ///< stream it back (gather) vs keep it in place
    bool want_trace = false; ///< record + ship trace spans and metrics
};

std::vector<u8> encode_job(const JobSpec& job);
JobSpec decode_job(const std::vector<u8>& payload);

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
