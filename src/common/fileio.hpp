/// \file fileio.hpp
/// \brief Raw-descriptor bulk file plumbing shared by the coordinator-side
///        merge of the distributed runner (DESIGN.md §9).
///
/// Besides one run merge for a dedup file (graph/em_sort.hpp), the
/// distributed backend's sequential coordinator work is concatenating the
/// per-rank files into the merged output. Doing that with
/// a userspace read/fwrite loop moves every byte kernel → user buffer →
/// kernel; `copy_bytes` instead asks the kernel to splice the ranges
/// directly with copy_file_range(2) — zero userspace copies, and on
/// reflink-capable filesystems no data movement at all — falling back to an
/// EINTR-safe read/write loop where the syscall is unavailable or refuses
/// the descriptor pair (EXDEV on old kernels, EINVAL/ENOSYS/EOPNOTSUPP,
/// pipes/devices).
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace kagen::fileio {

/// Writes exactly `bytes` bytes to `fd`, retrying on EINTR and short
/// writes. Throws std::runtime_error (with errno text) on failure.
void write_all(int fd, const void* data, std::size_t bytes);

/// Writes exactly `bytes` bytes to `fd` at file offset `offset` with
/// pwrite(2), retrying on EINTR and short writes; the descriptor's own
/// offset is untouched, so several threads may fill disjoint ranges of one
/// file at once. Throws std::runtime_error (with errno text) on failure.
void pwrite_all(int fd, const void* data, std::size_t bytes, u64 offset);

/// Closes `fd` (if >= 0) on a path where failure cannot change the
/// outcome — destructors, error-unwind cleanup, read-only descriptors —
/// and reports a failure to stderr instead of swallowing it. close(2)
/// releases the descriptor even when it fails, so no retry is possible;
/// data-bearing descriptors must instead use a *checked* close before
/// declaring the data durable (see BinaryFileSink::finish and the
/// runner's merged-output close). `what` names the descriptor for the
/// diagnostic.
void close_or_warn(int fd, const char* what) noexcept;

/// unlink(2) for best-effort cleanup of scratch/partial files: ENOENT is
/// silent (already gone — the common double-cleanup case), every other
/// failure is reported to stderr. Never throws; callers on cleanup paths
/// cannot do anything better than proceed.
void unlink_or_warn(const char* path, const char* what) noexcept;

/// Outcome of one copy_bytes call.
struct CopyStats {
    u64 bytes_copied = 0; ///< total bytes moved (== requested length)
    u64 cfr_bytes    = 0; ///< bytes moved kernel-side via copy_file_range
};

/// Copies exactly `length` bytes from `in_fd`'s current file offset to
/// `out_fd`'s current file offset, advancing both. Prefers
/// copy_file_range(2); transparently falls back to a read/write loop (which
/// also handles EINTR and short transfers) when the kernel refuses.
/// `allow_copy_file_range = false` forces the fallback — the test hook for
/// pinning byte-identity of both paths, and what the
/// KAGEN_DISABLE_COPY_FILE_RANGE environment variable toggles in the
/// distributed runner. The fallback copies through `buffer`, grown to at
/// most 1 MiB and kept for the caller's next copy; null = a buffer of this
/// call's own. Throws std::runtime_error on any I/O failure, including
/// premature EOF on `in_fd`.
CopyStats copy_bytes(int in_fd, int out_fd, u64 length,
                     bool allow_copy_file_range = true, std::vector<u8>* buffer = nullptr);

} // namespace kagen::fileio
