#include "net/socket.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "common/bytes.hpp"
#include "common/fileio.hpp"
#include "obs/trace.hpp"

namespace kagen::net {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
    throw std::runtime_error("net: " + what + ": " + std::strerror(errno));
}

/// CLOCK_MONOTONIC now, in ms — the clock all deadlines live on
/// (obs::monotonic_now is the codebase's single clock read).
long long now_ms() {
    return static_cast<long long>(obs::monotonic_now() / 1000000u);
}

/// Absolute deadline stamp for a relative timeout; < 0 = unbounded.
long long deadline_at(int timeout_ms) {
    return timeout_ms > 0 ? now_ms() + timeout_ms : -1;
}

/// Waits for `events` on `fd` until the absolute deadline. Returns true
/// when ready, false when the deadline expired; throws on poll failure.
bool poll_until(int fd, short events, long long deadline_at_ms) {
    for (;;) {
        int wait_ms = -1;
        if (deadline_at_ms >= 0) {
            const long long remaining = deadline_at_ms - now_ms();
            if (remaining <= 0) return false;
            wait_ms = static_cast<int>(remaining);
        }
        struct pollfd pfd{fd, events, 0};
        const int rc = ::poll(&pfd, 1, wait_ms);
        if (rc > 0) return true;
        if (rc == 0) return false;
        if (errno != EINTR) throw_errno("poll failed");
    }
}

/// Without TCP_NODELAY a frame's tail waits for the peer's delayed ACK (40 ms)
/// whenever its sender then blocks on an answer, as a rank does for its verdict.
Socket with_nodelay(Socket sock) {
    const int one = 1;
    if (::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
        throw_errno("setsockopt(TCP_NODELAY) failed");
    }
    return sock;
}

void set_recv_timeout(int fd, int timeout_ms) {
    struct timeval tv{};
    tv.tv_sec  = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
        throw_errno("setsockopt(SO_RCVTIMEO) failed");
    }
}

struct AddrInfoGuard {
    struct addrinfo* info = nullptr;
    ~AddrInfoGuard() {
        if (info != nullptr) ::freeaddrinfo(info);
    }
};

/// Resolves host:port for connect (host required) or bind (empty host =
/// wildcard). Throws with the spec in the message on failure.
AddrInfoGuard resolve(const Endpoint& ep, bool for_bind) {
    struct addrinfo hints{};
    hints.ai_family   = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags    = AI_NUMERICSERV | (for_bind ? AI_PASSIVE : 0);
    const std::string port = std::to_string(ep.port);
    AddrInfoGuard out;
    const int rc = ::getaddrinfo(ep.host.empty() ? nullptr : ep.host.c_str(),
                                 port.c_str(), &hints, &out.info);
    if (rc != 0) {
        throw std::runtime_error("net: cannot resolve '" + ep.host + ":" + port +
                                 "': " + ::gai_strerror(rc));
    }
    return out;
}

} // namespace

Endpoint parse_endpoint(const std::string& spec) {
    const std::size_t colon = spec.rfind(':');
    if (colon == std::string::npos) {
        throw std::invalid_argument("net: endpoint '" + spec +
                                    "' is not host:port");
    }
    Endpoint ep;
    ep.host                = spec.substr(0, colon);
    const std::string port = spec.substr(colon + 1);
    if (port.empty() || port.find_first_not_of("0123456789") != std::string::npos) {
        throw std::invalid_argument("net: endpoint '" + spec +
                                    "' has a malformed port");
    }
    errno                 = 0;
    const unsigned long v = std::strtoul(port.c_str(), nullptr, 10);
    if (errno != 0 || v > 65535) {
        throw std::invalid_argument("net: endpoint '" + spec +
                                    "' port is out of range");
    }
    ep.port = static_cast<std::uint16_t>(v);
    return ep;
}

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
    if (this != &other) {
        close();
        fd_       = other.fd_;
        other.fd_ = -1;
    }
    return *this;
}

void Socket::close() {
    // A TCP close error cannot be retried (the fd is released regardless)
    // and the framing protocol never treats close as a delivery barrier —
    // every payload is acknowledged at the protocol layer — so warn is the
    // complete response. EBADF here would flag a double-close logic bug.
    fileio::close_or_warn(fd_, "socket");
    fd_ = -1;
}

std::string Socket::peer() const {
    if (fd_ < 0) return "?";
    struct sockaddr_storage addr{};
    socklen_t len = sizeof(addr);
    char host[NI_MAXHOST], port[NI_MAXSERV];
    if (::getpeername(fd_, reinterpret_cast<struct sockaddr*>(&addr), &len) != 0 ||
        ::getnameinfo(reinterpret_cast<struct sockaddr*>(&addr), len, host,
                      sizeof(host), port, sizeof(port),
                      NI_NUMERICHOST | NI_NUMERICSERV) != 0) {
        return addr.ss_family == AF_UNIX ? "local" : "?";
    }
    return std::string(host) + ":" + port;
}

void Socket::send_all(const void* data, std::size_t bytes) {
    const char* p = static_cast<const char*>(data);
    while (bytes > 0) {
        const ssize_t n = ::send(fd_, p, bytes, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            throw_errno("send failed");
        }
        p += n;
        bytes -= static_cast<std::size_t>(n);
    }
}

void Socket::send_frame(const std::vector<u8>& payload) {
    std::vector<u8> header;
    bytes::put_u64(header, kFrameMagic);
    bytes::put_u64(header, payload.size());
    send_all(header.data(), header.size());
    if (!payload.empty()) send_all(payload.data(), payload.size());
}

bool Socket::recv_exact(void* data, std::size_t bytes, long long deadline_at_ms,
                        bool eof_ok) {
    char* p          = static_cast<char*>(data);
    std::size_t done = 0;
    while (done < bytes) {
        if (!poll_until(fd_, POLLIN, deadline_at_ms)) {
            throw std::runtime_error("net: receive timed out (peer " + peer() +
                                     " sent nothing before the deadline)");
        }
        const ssize_t n = ::recv(fd_, p + done, bytes - done, 0);
        if (n < 0) {
            if (errno == EINTR) continue;
            throw_errno("recv failed");
        }
        if (n == 0) {
            if (done == 0 && eof_ok) return false;
            // A torn frame must never decode as a short one.
            throw std::runtime_error(
                "net: connection closed mid-frame (torn frame from " + peer() +
                ")");
        }
        done += static_cast<std::size_t>(n);
    }
    return true;
}

bool Socket::recv_frame(std::vector<u8>& payload, int deadline_ms) {
    const long long deadline = deadline_at(deadline_ms);
    u8 header[16];
    if (!recv_exact(header, sizeof(header), deadline, /*eof_ok=*/true)) {
        return false;
    }
    const u8* p     = header;
    const u8* end   = header + sizeof(header);
    const u64 magic = bytes::get_u64(p, end);
    const u64 size  = bytes::get_u64(p, end);
    if (magic != kFrameMagic) {
        throw std::runtime_error("net: bad frame magic from " + peer() +
                                 " (not a kagen peer?)");
    }
    if (size > kMaxFrameBytes) {
        throw std::runtime_error("net: implausible frame size " +
                                 std::to_string(size) + " from " + peer());
    }
    payload.resize(size);
    if (size > 0) {
        recv_exact(payload.data(), size, deadline, /*eof_ok=*/false);
    }
    return true;
}

std::vector<u8> Socket::recv_message(int deadline_ms, const char* what) {
    std::vector<u8> payload;
    if (!recv_frame(payload, deadline_ms)) {
        throw std::runtime_error("net: " + peer() +
                                 " closed the connection before sending its " + what);
    }
    return payload;
}

void Socket::recv_payload_to(int out_fd, u64 length, int deadline_ms) {
    if (deadline_ms > 0) set_recv_timeout(fd_, deadline_ms);
    try {
        fileio::copy_bytes(fd_, out_fd, length, /*allow_copy_file_range=*/false);
    } catch (const std::exception& e) {
        if (deadline_ms > 0) set_recv_timeout(fd_, 0);
        // EAGAIN from the SO_RCVTIMEO bound reads as a generic read failure
        // inside copy_bytes; name the actual cause here.
        throw std::runtime_error("net: file transfer from " + peer() +
                                 " failed (stalled or dead peer): " + e.what());
    }
    if (deadline_ms > 0) set_recv_timeout(fd_, 0);
}

Socket connect_to(const Endpoint& ep, int timeout_ms) {
    if (ep.host.empty()) {
        throw std::invalid_argument("net: connect endpoint needs a host");
    }
    const long long deadline = deadline_at(timeout_ms);
    std::string last_error   = "unknown error";
    // Exponential retry back-off, 1 ms doubling up to 50 ms: a worker that
    // dials just before the coordinator listens connects within a few ms
    // instead of paying a full fixed interval.
    constexpr long kMaxBackoffMs = 50;
    long backoff_ms              = 1;
    for (;;) {
        AddrInfoGuard addrs = resolve(ep, /*for_bind=*/false);
        for (struct addrinfo* ai = addrs.info; ai != nullptr; ai = ai->ai_next) {
            const int fd = ::socket(ai->ai_family,
                                    ai->ai_socktype | SOCK_CLOEXEC | SOCK_NONBLOCK,
                                    ai->ai_protocol);
            if (fd < 0) continue;
            Socket sock(fd);
            if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0 ||
                errno == EINPROGRESS) {
                if (poll_until(fd, POLLOUT, deadline)) {
                    int err       = 0;
                    socklen_t len = sizeof(err);
                    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) == 0 &&
                        err == 0) {
                        // Connected: back to blocking for the framed I/O.
                        const int flags = ::fcntl(fd, F_GETFL);
                        ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
                        return with_nodelay(std::move(sock));
                    }
                    last_error = std::strerror(err != 0 ? err : errno);
                } else {
                    last_error = "connect timed out";
                }
            } else {
                last_error = std::strerror(errno);
            }
        }
        // Refusals and timeouts retry until the deadline: the coordinator
        // and its workers may be launched in any order.
        if (deadline >= 0 && now_ms() >= deadline) {
            throw std::runtime_error(
                "net: cannot connect to " + ep.host + ":" +
                std::to_string(ep.port) + " within " + std::to_string(timeout_ms) +
                " ms: " + last_error);
        }
        struct timespec backoff{0, backoff_ms * 1000 * 1000};
        ::nanosleep(&backoff, nullptr);
        backoff_ms = std::min(backoff_ms * 2, kMaxBackoffMs);
    }
}

Listener::Listener(const Endpoint& ep) {
    AddrInfoGuard addrs    = resolve(ep, /*for_bind=*/true);
    std::string last_error = "no usable address";
    for (struct addrinfo* ai = addrs.info; ai != nullptr; ai = ai->ai_next) {
        const int fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                                ai->ai_protocol);
        if (fd < 0) {
            last_error = std::strerror(errno);
            continue;
        }
        const int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        if (::bind(fd, ai->ai_addr, ai->ai_addrlen) != 0 ||
            ::listen(fd, 64) != 0) {
            last_error = std::strerror(errno);
            fileio::close_or_warn(fd, "listener candidate");
            continue;
        }
        struct sockaddr_storage addr{};
        socklen_t len = sizeof(addr);
        if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) ==
            0) {
            if (addr.ss_family == AF_INET) {
                port_ = ntohs(reinterpret_cast<struct sockaddr_in*>(&addr)->sin_port);
            } else if (addr.ss_family == AF_INET6) {
                port_ =
                    ntohs(reinterpret_cast<struct sockaddr_in6*>(&addr)->sin6_port);
            }
        }
        fd_ = fd;
        return;
    }
    throw std::runtime_error("net: cannot listen on " + ep.host + ":" +
                             std::to_string(ep.port) + ": " + last_error);
}

Listener::~Listener() {
    fileio::close_or_warn(fd_, "listener");
}

Socket Listener::accept(int timeout_ms) {
    const long long deadline = deadline_at(timeout_ms);
    for (;;) {
        if (!poll_until(fd_, POLLIN, deadline)) {
            throw std::runtime_error("net: no connection arrived within " +
                                     std::to_string(timeout_ms) + " ms");
        }
        const int fd = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (fd >= 0) return with_nodelay(Socket(fd));
        if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
            errno == EWOULDBLOCK) {
            continue; // raced a dying connection; keep waiting for a live one
        }
        throw_errno("accept failed");
    }
}

} // namespace kagen::net
