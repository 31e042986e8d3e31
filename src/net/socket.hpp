/// \file socket.hpp
/// \brief The framed channel between the coordinator and its ranks:
///        endpoints, a deadline-aware framed socket, a listener with accept
///        timeouts, and a connector with retry-until-deadline.
///
/// Both transports run over `Socket`: TCP connections to remote workers
/// and the AF_UNIX socketpairs of forked ranks. Frames are
/// `[kFrameMagic u64][payload bytes u64][payload]` in the little-endian
/// encoding of common/bytes.hpp. The peer may be on another machine, may
/// never show up, may die mid-frame, or may not be a kagen process at all.
/// Hence everything here is deadline-aware (poll(2) before every read;
/// connect and accept take explicit timeouts) and every failure is a
/// descriptive std::runtime_error — never a hang, never garbage decoded as
/// a frame.
///
/// Blocking discipline: sends are allowed to block indefinitely (the
/// receiver drains in rank order, so a blocked send just means "not my turn
/// yet"); receives carry the caller's deadline. Bulk payload transfer (rank
/// files) goes through fileio::copy_bytes with SO_RCVTIMEO as the per-read
/// inactivity bound, so a stalled peer surfaces as an error there too.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace kagen::net {

constexpr u64 kFrameMagic = 0x4b47444953545321ULL; // "KGDIST!" + version nibble

/// Sanity bound on a frame payload so a corrupt length field fails as a
/// protocol error, not an allocation attempt. The largest frame is a report
/// with an 8-bytes-per-vertex degree vector, so 2^37 (128 GiB) leaves room
/// for degree summaries up to ~2^34 vertices.
constexpr u64 kMaxFrameBytes = u64{1} << 37;

/// A "host:port" pair. An empty host means the wildcard address for
/// listeners (bind every interface) and is invalid for connectors.
struct Endpoint {
    std::string host;
    std::uint16_t port = 0;
};

/// Parses "host:port" (host may be empty: ":5555"). Throws
/// std::invalid_argument on a missing colon, an empty/garbage/out-of-range
/// port, or an empty spec.
Endpoint parse_endpoint(const std::string& spec);

/// Move-only RAII wrapper of a connected stream socket (TCP, or one end of
/// a socketpair) with framed, deadline-aware I/O. A deadline of 0 ms means
/// "no deadline" everywhere.
class Socket {
public:
    Socket() = default;
    explicit Socket(int fd) : fd_(fd) {}
    ~Socket();

    Socket(Socket&& other) noexcept;
    Socket& operator=(Socket&& other) noexcept;
    Socket(const Socket&)            = delete;
    Socket& operator=(const Socket&) = delete;

    int fd() const { return fd_; }
    void close();

    /// Peer address as "ip:port" (for diagnostics and the output manifest),
    /// "local" for a socketpair; "?" if the socket is closed or getpeername
    /// fails.
    std::string peer() const;

    /// Writes one frame; loops over partial writes and EINTR, never raises
    /// SIGPIPE (MSG_NOSIGNAL). Throws on I/O error.
    void send_frame(const std::vector<u8>& payload);

    /// Writes one frame whose payload is `head` followed by `body`, without
    /// first copying them into one buffer (how a rank streams its edges).
    void send_frame(const std::vector<u8>& head, const void* body, std::size_t body_bytes);

    /// Reads one frame into `payload` within `deadline_ms`, reusing its
    /// capacity. Returns false on clean EOF before the first header byte
    /// (peer closed between frames); throws on a torn frame (EOF
    /// mid-frame), bad magic, a length above `max_bytes`, the deadline
    /// expiring, or an I/O error.
    bool recv_frame(std::vector<u8>& payload, int deadline_ms,
                    u64 max_bytes = kMaxFrameBytes);

    /// recv_frame for a frame the protocol requires: EOF before it throws
    /// "<peer> closed the connection before sending its <what>".
    std::vector<u8> recv_message(int deadline_ms, const char* what);

    /// Streams exactly `length` bytes from the socket into `out_fd` at its
    /// current offset via fileio::copy_bytes, through `buffer` (reused
    /// across calls). `deadline_ms` bounds each read's inactivity
    /// (SO_RCVTIMEO), so a stalled or dead peer throws instead of hanging.
    void recv_payload_to(int out_fd, u64 length, int deadline_ms, std::vector<u8>& buffer);

private:
    /// `more` = another part of the same frame follows (MSG_MORE: TCP holds
    /// the part back so header and payload leave in full segments).
    void send_all(const void* data, std::size_t bytes, bool more = false);

    /// Reads exactly `bytes` within the absolute deadline. Returns false on
    /// EOF at offset 0 when `eof_ok`; throws on mid-buffer EOF, timeout, or
    /// I/O error. `deadline_at_ms` is a CLOCK_MONOTONIC ms stamp; < 0 means
    /// unbounded.
    bool recv_exact(void* data, std::size_t bytes, long long deadline_at_ms,
                    bool eof_ok);

    int fd_ = -1;
};

/// Waits until at least one of `socks` has something to read — a frame,
/// EOF or an error, each of which the next receive reports — or until
/// `timeout_ms` passes (0 = no limit). Returns the indices of the ready
/// sockets in ascending order; empty when the timeout expired. Throws on
/// poll failure. The coordinator's lease phase waits on every rank that
/// holds a lease with this one call.
std::vector<std::size_t> poll_readable(const std::vector<const Socket*>& socks,
                                       int timeout_ms);

/// Connects to `ep` within `timeout_ms` (0 = no limit). Connection refusals
/// and unreachable-host errors are retried until the deadline — workers and
/// coordinator may start in any order — then throw with the endpoint and
/// the last error in the message.
Socket connect_to(const Endpoint& ep, int timeout_ms);

/// Listening TCP socket (SO_REUSEADDR, O_CLOEXEC). Port 0 binds an
/// ephemeral port; `port()` reports the actual one.
class Listener {
public:
    explicit Listener(const Endpoint& ep);
    ~Listener();

    Listener(const Listener&)            = delete;
    Listener& operator=(const Listener&) = delete;

    std::uint16_t port() const { return port_; }

    /// Accepts one connection within `timeout_ms` (0 = no limit); throws a
    /// descriptive error on timeout.
    Socket accept(int timeout_ms);

private:
    int fd_             = -1;
    std::uint16_t port_ = 0;
};

} // namespace kagen::net
