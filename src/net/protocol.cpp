#include "net/protocol.hpp"

#include <stdexcept>

#include "common/bytes.hpp"

namespace kagen::net {
namespace {

const char* msg_name(Msg type) {
    switch (type) {
        case Msg::hello:      return "hello";
        case Msg::job:        return "job";
        case Msg::report:     return "report";
        case Msg::file:       return "file";
        case Msg::telemetry:  return "telemetry";
        case Msg::verdict:    return "verdict";
        case Msg::lease:      return "lease";
        case Msg::lease_done: return "lease_done";
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
    encode_config(out, job.graph, job.task.num_chunks);
    bytes::put_u64(out, job.task.rank);
    bytes::put_u64(out, job.task.chunk_begin);
    bytes::put_u64(out, job.task.chunk_end);
    bytes::put_u64(out, job.task.threads);
    bytes::put_u64(out, job.want_file ? 1 : 0);
    bytes::put_u64(out, job.send_file ? 1 : 0);
    bytes::put_u64(out, job.task.degree_stats ? 1 : 0);
    bytes::put_u64(out, job.want_trace ? 1 : 0);
    bytes::put_u64(out, job.task.form_runs ? 1 : 0);
    return out;
}

JobSpec decode_job(const std::vector<u8>& payload) {
    const u8* p   = payload.data();
    const u8* end = p + payload.size();
    expect_type(p, end, Msg::job);
    JobSpec job;
    job.graph             = decode_config(p, end, &job.task.num_chunks);
    job.task.rank         = bytes::get_u64(p, end);
    job.task.chunk_begin  = bytes::get_u64(p, end);
    job.task.chunk_end    = bytes::get_u64(p, end);
    job.task.threads      = bytes::get_u64(p, end);
    job.want_file         = bytes::get_bool(p, end);
    job.send_file         = bytes::get_bool(p, end);
    job.task.degree_stats = bytes::get_bool(p, end);
    job.want_trace        = bytes::get_bool(p, end);
    job.task.form_runs    = bytes::get_bool(p, end);
    expect_consumed(p, end, Msg::job);
    if (job.task.form_runs && !job.want_file) {
        throw std::runtime_error("net: job asks for sorted runs without a rank file");
    }
    if (job.task.chunk_begin > job.task.chunk_end ||
        job.task.chunk_end > job.task.num_chunks) {
        throw std::runtime_error("net: job carries malformed chunk range [" +
                                 std::to_string(job.task.chunk_begin) + ", " +
                                 std::to_string(job.task.chunk_end) + ") of " +
                                 std::to_string(job.task.num_chunks) + " chunks");
    }
    return job;
}

std::vector<u8> encode_lease(u64 chunk_begin, u64 chunk_end) {
    std::vector<u8> out;
    bytes::put_u64(out, static_cast<u64>(Msg::lease));
    const bool done = chunk_begin == chunk_end;
    bytes::put_u64(out, done ? 1 : 0);
    if (!done) {
        bytes::put_u64(out, chunk_begin);
        bytes::put_u64(out, chunk_end);
    }
    return out;
}

dist::Lease decode_lease(const std::vector<u8>& payload, u64 num_chunks) {
    const u8* p   = payload.data();
    const u8* end = p + payload.size();
    expect_type(p, end, Msg::lease);
    dist::Lease lease;
    if (!bytes::get_bool(p, end)) {
        lease.chunk_begin = bytes::get_u64(p, end);
        lease.chunk_end   = bytes::get_u64(p, end);
        if (lease.chunk_begin >= lease.chunk_end || lease.chunk_end > num_chunks) {
            throw std::runtime_error("net: lease carries malformed chunk range [" +
                                     std::to_string(lease.chunk_begin) + ", " +
                                     std::to_string(lease.chunk_end) + ") of " +
                                     std::to_string(num_chunks) + " chunks");
        }
    }
    expect_consumed(p, end, Msg::lease);
    return lease;
}

std::vector<u8> encode_lease_done(u64 edges) {
    std::vector<u8> out;
    bytes::put_u64(out, static_cast<u64>(Msg::lease_done));
    bytes::put_u64(out, edges);
    return out;
}

u64 decode_lease_done(const std::vector<u8>& payload) {
    const u8* p   = payload.data();
    const u8* end = p + payload.size();
    expect_type(p, end, Msg::lease_done);
    const u64 edges = bytes::get_u64(p, end);
    expect_consumed(p, end, Msg::lease_done);
    return edges;
}

Msg peek_type(const std::vector<u8>& payload) {
    const u8* p = payload.data();
    return payload.size() < 8 ? Msg{0} : static_cast<Msg>(bytes::get_u64(p, p + 8));
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
    const bool keep = bytes::get_bool(p, end);
    expect_consumed(p, end, Msg::verdict);
    return keep;
}

} // namespace kagen::net
