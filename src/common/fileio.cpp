#include "common/fileio.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <vector>

#include <unistd.h>

namespace kagen::fileio {
namespace {

[[noreturn]] void throw_errno(const char* what) {
    throw std::runtime_error(std::string("fileio: ") + what + ": " +
                             std::strerror(errno));
}

/// Userspace fallback: EINTR-safe read/write loop through `buf`, grown to
/// at most 1 MiB (never shrunk, so a reused buffer is zero-filled once).
u64 copy_user(int in_fd, int out_fd, u64 length, std::vector<u8>& buf) {
    const auto want_size = static_cast<std::size_t>(std::min<u64>(length, u64{1} << 20));
    if (buf.size() < want_size) buf.resize(want_size);
    u64 copied = 0;
    while (copied < length) {
        const std::size_t want =
            static_cast<std::size_t>(std::min<u64>(length - copied, buf.size()));
        const ssize_t n = ::read(in_fd, buf.data(), want);
        if (n < 0) {
            if (errno == EINTR) continue;
            throw_errno("read failed");
        }
        if (n == 0) {
            throw std::runtime_error(
                "fileio: source ended " + std::to_string(length - copied) +
                " bytes early");
        }
        write_all(out_fd, buf.data(), static_cast<std::size_t>(n));
        copied += static_cast<u64>(n);
    }
    return copied;
}

} // namespace

void close_or_warn(int fd, const char* what) noexcept {
    if (fd < 0) return;
    if (::close(fd) != 0) {
        // errno is preserved for the message but NOT for the caller: these
        // call sites are cleanup paths where the original error (if any) is
        // already in flight and must not be clobbered silently — hence the
        // save/restore.
        const int saved = errno;
        std::fprintf(stderr, "kagen: warning: close(%s) failed: %s\n", what,
                     std::strerror(saved));
        errno = saved;
    }
}

void unlink_or_warn(const char* path, const char* what) noexcept {
    if (path == nullptr || *path == '\0') return;
    if (::unlink(path) != 0 && errno != ENOENT) {
        const int saved = errno;
        std::fprintf(stderr, "kagen: warning: unlink(%s: %s) failed: %s\n",
                     what, path, std::strerror(saved));
        errno = saved;
    }
}

void write_all(int fd, const void* data, std::size_t bytes) {
    const char* p = static_cast<const char*>(data);
    while (bytes > 0) {
        const ssize_t n = ::write(fd, p, bytes);
        if (n < 0) {
            if (errno == EINTR) continue;
            throw_errno("write failed");
        }
        p += n;
        bytes -= static_cast<std::size_t>(n);
    }
}

void pwrite_all(int fd, const void* data, std::size_t bytes, u64 offset) {
    const char* p = static_cast<const char*>(data);
    while (bytes > 0) {
        const ssize_t n = ::pwrite(fd, p, bytes, static_cast<off_t>(offset));
        if (n < 0) {
            if (errno == EINTR) continue;
            throw_errno("pwrite failed");
        }
        p += n;
        bytes -= static_cast<std::size_t>(n);
        offset += static_cast<u64>(n);
    }
}

CopyStats copy_bytes(int in_fd, int out_fd, u64 length,
                     bool allow_copy_file_range, std::vector<u8>* buffer) {
    CopyStats stats;
    if (length == 0) return stats;
#ifndef __linux__
    (void)allow_copy_file_range; // no kernel path to opt out of
#else
    while (allow_copy_file_range && stats.bytes_copied < length) {
        const u64 want = length - stats.bytes_copied;
        const ssize_t n =
            ::copy_file_range(in_fd, nullptr, out_fd, nullptr,
                              static_cast<std::size_t>(want), 0);
        if (n > 0) {
            stats.bytes_copied += static_cast<u64>(n);
            stats.cfr_bytes += static_cast<u64>(n);
            continue; // short kernel copies are normal; just keep going
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EXDEV || errno == EINVAL || errno == ENOSYS ||
                      errno == EOPNOTSUPP || errno == EBADF ||
                      errno == EPERM || errno == ETXTBSY)) {
            break; // this descriptor pair wants the userspace fallback
        }
        if (n < 0) throw_errno("copy_file_range failed");
        // n == 0: EOF on the source before `length` bytes existed.
        throw std::runtime_error(
            "fileio: source ended " +
            std::to_string(length - stats.bytes_copied) + " bytes early");
    }
#endif
    if (stats.bytes_copied < length) {
        std::vector<u8> own;
        stats.bytes_copied += copy_user(in_fd, out_fd, length - stats.bytes_copied,
                                        buffer != nullptr ? *buffer : own);
    }
    return stats;
}

} // namespace kagen::fileio
