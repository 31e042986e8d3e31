/// \file spill.hpp
/// \brief Disk-spill layer for bounded-memory ordered delivery.
///
/// The chunked engine's ordered path must hand chunk results to the sink in
/// canonical order, but chunks complete in whatever order their workers
/// finish them. Holding
/// every out-of-order chunk in RAM makes peak memory proportional to the
/// completion skew — unbounded in the worst case. This layer lets the
/// engine park chunks that complete too far ahead of the delivery cursor on
/// disk instead: `SpillFile` is a shared append-only scratch file of raw
/// edge segments, and `SpillSink` is an `EdgeSink` that streams its edges
/// into such a file and can replay them later, in emission order, into any
/// other sink. Replayed output is byte-identical to what the original
/// emission sequence would have produced (DESIGN.md §5).
///
/// Concurrency: `append` reserves its byte range under a short lock and
/// performs the write lock-free via positioned I/O (`pwrite`), so several
/// producers can spill at once and nobody blocks on anyone else's disk
/// write. `read`/`replay` use `pread` and never touch shared state; a
/// segment may be read as soon as `append` has returned it (publication of
/// the `Segment` value is the caller's synchronization point).
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sink/edge_sink.hpp"

namespace kagen::spill {

/// Edges per replay read: 64 KiB.
inline constexpr std::size_t kReplayBatchEdges = 4096;

/// Shared append-only scratch file of raw `Edge` segments. Anonymous by
/// default (created under $TMPDIR and unlinked immediately, so the space is
/// reclaimed even on crash); a named path keeps the file visible while the
/// object lives and unlinks it on destruction.
class SpillFile {
public:
    /// One contiguous run of edges inside the file.
    struct Segment {
        u64 offset = 0; ///< byte offset of the first edge
        u64 count  = 0; ///< number of edges
    };

    /// \param path scratch file location; empty = anonymous temp file.
    explicit SpillFile(const std::string& path = {});
    ~SpillFile();

    SpillFile(const SpillFile&)            = delete;
    SpillFile& operator=(const SpillFile&) = delete;

    /// Appends `count` edges and returns their segment. Thread-safe; the
    /// disk write happens outside the reservation lock.
    Segment append(const Edge* edges, std::size_t count);

    /// Reads up to `max_count` edges of `seg` starting at edge index
    /// `first` into `out`; returns the number read. Thread-safe against
    /// concurrent `append`s of other segments.
    std::size_t read(const Segment& seg, u64 first, Edge* out,
                     std::size_t max_count) const;

    /// Streams a whole segment into `sink` in bounded batches (never
    /// materializes the segment).
    void replay(const Segment& seg, EdgeSink& sink) const;

    /// Same, through a caller-owned scratch buffer — the ordered-delivery
    /// drainer replays through the first `kReplayBatchEdges` of an arena
    /// slab (pe/arena.hpp), so the replay path allocates nothing and the
    /// bounded-memory footprint stays budget + one chunk + a 64 KiB replay
    /// window.
    void replay(const Segment& seg, EdgeSink& sink, Edge* scratch,
                std::size_t scratch_cap) const;

    /// Total bytes ever appended.
    u64 bytes_spilled() const;

    /// Underlying descriptor (diagnostics/tests). Opened with O_CLOEXEC:
    /// a subprocess spawned while the coordinator holds a spill window open
    /// (dist/ forks workers in exactly this situation) must not inherit a
    /// writable handle onto the scratch file — tests/test_dist.cpp proves a
    /// worker cannot clobber it.
    int fd() const { return fd_; }

private:
    mutable std::mutex mutex_;
    int fd_ = -1;
    u64 end_ = 0;       ///< next free byte offset (guarded by mutex_)
    std::string path_;  ///< non-empty for named files (unlinked in dtor)
};

/// EdgeSink that parks its stream in a `SpillFile` instead of RAM: memory
/// stays O(buffer) no matter how many edges pass through. After `finish()`,
/// `replay` re-emits the exact original sequence into another sink.
/// Single-writer like every sink; the underlying file may be shared with
/// any number of other writers.
class SpillSink final : public EdgeSink {
public:
    explicit SpillSink(SpillFile& file) : file_(file) {}

    u64 num_edges() const { return num_edges_; }

    /// Replays the spilled edges, in emission order, into `sink` (batched
    /// through `deliver`; flushes nothing and finishes nothing on `sink`).
    void replay(EdgeSink& sink) const {
        for (const auto& seg : segments_) file_.replay(seg, sink);
    }

    /// Replay through a caller-owned scratch buffer (see SpillFile).
    void replay(EdgeSink& sink, Edge* scratch, std::size_t scratch_cap) const {
        for (const auto& seg : segments_) {
            file_.replay(seg, sink, scratch, scratch_cap);
        }
    }

protected:
    void consume(const Edge* edges, std::size_t count) override {
        segments_.push_back(file_.append(edges, count));
        num_edges_ += count;
    }

private:
    SpillFile& file_;
    std::vector<SpillFile::Segment> segments_;
    u64 num_edges_ = 0;
};

} // namespace kagen::spill
