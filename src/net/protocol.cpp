#include "net/protocol.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/bytes.hpp"
#include "net/socket.hpp"

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
        case Msg::lease_data: return "lease_data";
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

void put_lease(std::vector<u8>& out, const dist::Lease& lease) {
    bytes::put_u64(out, lease.chunk_begin);
    bytes::put_u64(out, lease.chunk_end);
    bytes::put_u64(out, lease.first_slot);
    bytes::put_u64(out, lease.edges);
}

/// Reads a lease; an empty range is allowed only where `may_be_empty`
/// (a job's first lease when there are more ranks than chunks).
dist::Lease get_lease(const u8*& p, const u8* end, u64 num_chunks, bool may_be_empty,
                      const char* what) {
    dist::Lease lease;
    lease.chunk_begin = bytes::get_u64(p, end);
    lease.chunk_end   = bytes::get_u64(p, end);
    lease.first_slot  = bytes::get_u64(p, end);
    lease.edges       = bytes::get_u64(p, end);
    const bool empty  = lease.chunk_begin == lease.chunk_end;
    if (lease.chunk_begin > lease.chunk_end || lease.chunk_end > num_chunks ||
        (empty && !may_be_empty)) {
        throw std::runtime_error("net: " + std::string(what) +
                                 " carries malformed chunk range [" +
                                 std::to_string(lease.chunk_begin) + ", " +
                                 std::to_string(lease.chunk_end) + ") of " +
                                 std::to_string(num_chunks) + " chunks");
    }
    if (lease.first_slot > kMaxOutputEdges ||
        lease.edges > kMaxOutputEdges - lease.first_slot) {
        throw std::runtime_error("net: " + std::string(what) + " carries slots [" +
                                 std::to_string(lease.first_slot) + ", +" +
                                 std::to_string(lease.edges) +
                                 ") past the end of any output file");
    }
    return lease;
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
    put_lease(out, job.task.first);
    bytes::put_u64(out, job.task.threads);
    bytes::put_u64(out, job.want_file ? 1 : 0);
    bytes::put_u64(out, job.place ? 1 : 0);
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
    job.task.first        = get_lease(p, end, job.task.num_chunks, true, "job");
    job.task.threads      = bytes::get_u64(p, end);
    job.want_file         = bytes::get_bool(p, end);
    job.place             = bytes::get_bool(p, end);
    job.send_file         = bytes::get_bool(p, end);
    job.task.degree_stats = bytes::get_bool(p, end);
    job.want_trace        = bytes::get_bool(p, end);
    job.task.form_runs    = bytes::get_bool(p, end);
    expect_consumed(p, end, Msg::job);
    if (job.task.form_runs && !job.want_file) {
        throw std::runtime_error("net: job asks for sorted runs without a rank file");
    }
    if (job.place && job.want_file) {
        throw std::runtime_error("net: job asks to place its edges and to write a rank file");
    }
    return job;
}

std::vector<u8> encode_lease(const dist::Lease& lease) {
    std::vector<u8> out;
    bytes::put_u64(out, static_cast<u64>(Msg::lease));
    const bool done = lease.chunk_begin == lease.chunk_end;
    bytes::put_u64(out, done ? 1 : 0);
    if (!done) put_lease(out, lease);
    return out;
}

dist::Lease decode_lease(const std::vector<u8>& payload, u64 num_chunks) {
    const u8* p   = payload.data();
    const u8* end = p + payload.size();
    expect_type(p, end, Msg::lease);
    dist::Lease lease;
    if (!bytes::get_bool(p, end)) lease = get_lease(p, end, num_chunks, false, "lease");
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

void send_lease_data(Socket& sock, const Edge* edges, std::size_t count) {
    std::vector<u8> head;
    bytes::put_u64(head, static_cast<u64>(Msg::lease_data));
    while (count > 0) {
        const std::size_t part = std::min(count, kLeaseDataEdges);
        sock.send_frame(head, edges, part * sizeof(Edge));
        edges += part;
        count -= part;
    }
}

LeaseData decode_lease_data(const std::vector<u8>& payload) {
    const u8* p   = payload.data();
    const u8* end = p + payload.size();
    expect_type(p, end, Msg::lease_data);
    const auto bytes = static_cast<u64>(end - p);
    if (bytes == 0 || bytes % sizeof(Edge) != 0 || bytes / sizeof(Edge) > kLeaseDataEdges) {
        throw std::runtime_error("net: lease_data of " + std::to_string(bytes) +
                                 " bytes is not 1 to " + std::to_string(kLeaseDataEdges) +
                                 " whole edges");
    }
    return {p, bytes / sizeof(Edge)};
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
