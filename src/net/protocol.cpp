#include "net/protocol.hpp"

#include <stdexcept>

#include "common/bytes.hpp"

namespace kagen::net {
namespace {

const char* msg_name(Msg type) {
    switch (type) {
        case Msg::hello:     return "hello";
        case Msg::job:       return "job";
        case Msg::report:    return "report";
        case Msg::file:      return "file";
        case Msg::telemetry: return "telemetry";
        case Msg::verdict:   return "verdict";
    }
    return "unknown";
}

/// Reads and checks the leading type tag.
void expect_type(const u8*& p, const u8* end, Msg want) {
    const u64 got = bytes::get_u64(p, end);
    if (got != static_cast<u64>(want)) {
        throw std::runtime_error(
            "net: expected a " + std::string(msg_name(want)) +
            " message, got type " + std::to_string(got));
    }
}

/// Decoders must consume the payload exactly: leftover bytes mean the two
/// ends disagree about the message layout.
void expect_consumed(const u8* p, const u8* end, Msg type) {
    if (p != end) {
        throw std::runtime_error("net: trailing bytes in " +
                                 std::string(msg_name(type)) + " message");
    }
}

} // namespace

std::vector<u8> encode_hello() {
    std::vector<u8> out;
    bytes::put_u64(out, static_cast<u64>(Msg::hello));
    bytes::put_u64(out, kProtocolVersion);
    return out;
}

void decode_hello(const std::vector<u8>& payload) {
    const u8* p   = payload.data();
    const u8* end = p + payload.size();
    expect_type(p, end, Msg::hello);
    const u64 version = bytes::get_u64(p, end);
    if (version != kProtocolVersion) {
        throw std::runtime_error("net: peer speaks protocol version " +
                                 std::to_string(version) + ", this build wants " +
                                 std::to_string(kProtocolVersion));
    }
    expect_consumed(p, end, Msg::hello);
}

std::vector<u8> encode_job(const JobSpec& job) {
    std::vector<u8> out;
    bytes::put_u64(out, static_cast<u64>(Msg::job));
    bytes::put_u64(out, job.task.rank);
    bytes::put_u64(out, job.task.num_chunks);
    bytes::put_u64(out, job.task.chunk_begin);
    bytes::put_u64(out, job.task.chunk_end);
    bytes::put_u64(out, job.task.threads);
    bytes::put_u64(out, job.want_file ? 1 : 0);
    bytes::put_u64(out, job.send_file ? 1 : 0);
    bytes::put_u64(out, job.task.degree_stats ? 1 : 0);
    bytes::put_u64(out, job.want_trace ? 1 : 0);
    encode_config(out, job.cfg);
    return out;
}

JobSpec decode_job(const std::vector<u8>& payload) {
    const u8* p   = payload.data();
    const u8* end = p + payload.size();
    expect_type(p, end, Msg::job);
    JobSpec job;
    job.task.rank         = bytes::get_u64(p, end);
    job.task.num_chunks   = bytes::get_u64(p, end);
    job.task.chunk_begin  = bytes::get_u64(p, end);
    job.task.chunk_end    = bytes::get_u64(p, end);
    job.task.threads      = bytes::get_u64(p, end);
    job.want_file         = bytes::get_u64(p, end) != 0;
    job.send_file         = bytes::get_u64(p, end) != 0;
    job.task.degree_stats = bytes::get_u64(p, end) != 0;
    job.want_trace        = bytes::get_u64(p, end) != 0;
    job.cfg               = decode_config(p, end);
    expect_consumed(p, end, Msg::job);
    if (job.task.chunk_begin > job.task.chunk_end ||
        job.task.chunk_end > job.task.num_chunks) {
        throw std::runtime_error("net: job carries malformed chunk range [" +
                                 std::to_string(job.task.chunk_begin) + ", " +
                                 std::to_string(job.task.chunk_end) + ") of " +
                                 std::to_string(job.task.num_chunks) + " chunks");
    }
    return job;
}

std::vector<u8> encode_report(const dist::RankReport& report) {
    std::vector<u8> out;
    bytes::put_u64(out, static_cast<u64>(Msg::report));
    const std::vector<u8> body = dist::serialize_report(report);
    out.insert(out.end(), body.begin(), body.end());
    return out;
}

dist::RankReport decode_report(const std::vector<u8>& payload) {
    const u8* p   = payload.data();
    const u8* end = p + payload.size();
    expect_type(p, end, Msg::report);
    // deserialize_report validates full consumption of its slice itself.
    return dist::deserialize_report(std::vector<u8>(p, end));
}

std::vector<u8> encode_telemetry(const obs::RankTelemetry& telemetry) {
    std::vector<u8> out;
    bytes::put_u64(out, static_cast<u64>(Msg::telemetry));
    const std::vector<u8> body = obs::serialize_telemetry(telemetry);
    out.insert(out.end(), body.begin(), body.end());
    return out;
}

obs::RankTelemetry decode_telemetry(const std::vector<u8>& payload) {
    const u8* p   = payload.data();
    const u8* end = p + payload.size();
    expect_type(p, end, Msg::telemetry);
    // deserialize_telemetry bounds-checks counts and rejects trailing bytes.
    return obs::deserialize_telemetry(std::vector<u8>(p, end));
}

std::vector<u8> encode_file(const FileInfo& info) {
    std::vector<u8> out;
    bytes::put_u64(out, static_cast<u64>(Msg::file));
    bytes::put_string(out, info.path);
    bytes::put_u64(out, info.edges);
    return out;
}

FileInfo decode_file(const std::vector<u8>& payload) {
    const u8* p   = payload.data();
    const u8* end = p + payload.size();
    expect_type(p, end, Msg::file);
    FileInfo info;
    info.path  = bytes::get_string(p, end);
    info.edges = bytes::get_u64(p, end);
    expect_consumed(p, end, Msg::file);
    return info;
}

std::vector<u8> encode_verdict(bool keep) {
    std::vector<u8> out;
    bytes::put_u64(out, static_cast<u64>(Msg::verdict));
    bytes::put_u64(out, keep ? 1 : 0);
    return out;
}

bool decode_verdict(const std::vector<u8>& payload) {
    const u8* p   = payload.data();
    const u8* end = p + payload.size();
    expect_type(p, end, Msg::verdict);
    const u64 keep = bytes::get_u64(p, end);
    expect_consumed(p, end, Msg::verdict);
    if (keep > 1) {
        throw std::runtime_error("net: malformed verdict " + std::to_string(keep));
    }
    return keep == 1;
}

} // namespace kagen::net
