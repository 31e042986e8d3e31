/// \file em_sort.hpp
/// \brief External-memory sort/dedup over binary edge-list files, split into
///        its two phases so each can run where its data lives.
///
/// `union_undirected` (pe/pe.hpp) produces the canonical deduplicated edge
/// set of a run by materializing every per-chunk list — impossible once the
/// graph exceeds RAM. This pass computes the same result from a *file*
/// produced by `BinaryFileSink`/`io::write_edge_list_binary`, with memory
/// bounded by an explicit budget, via the textbook two-phase scheme:
///
/// 1. **Run formation** (`form_runs`) — read the input in blocks that fit
///    the budget; canonicalize (optional) each edge and pack it into one
///    integer key, (u << b) | v with b = ⌈log2 n⌉; LSD radix sort the keys;
///    drop repeats; append the block to a run file as one sorted run. The
///    keys and their radix scratch are what the budget pays for:
///    2 · sizeof(key) bytes per edge, 16 B while 2b ≤ 64. A graph whose key
///    needs more than 64 bits takes the same path with a 128-bit key.
/// 2. **Merge** (`merge_runs`) — a loser tree over one batched `pread`
///    cursor per run emits the globally sorted sequence, dropping repeats
///    across runs, straight into the output `BinaryFileSink`.
///
/// `sort_dedup_file` is both phases over one file in one process. A
/// distributed run splits them: every rank forms runs from its own rank
/// file, in parallel and without communication, and the coordinator merges
/// all ranks' runs (net/coordinator.hpp, DESIGN.md §8).
///
/// With `canonicalize = true` the output file is bit-identical to
/// `io::write_edge_list_binary(pe::union_undirected(...))` over the same
/// edge stream; with `false` it matches `pe::union_directed` (sort+dedup
/// without endpoint swapping). So `as_generated` chunked file output plus
/// this pass equals the in-memory union pipeline for graphs of any size.
/// DESIGN.md §7 has the argument.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace kagen::em {

struct SortStats {
    u64 input_edges  = 0; ///< edges read from the input file
    u64 output_edges = 0; ///< unique edges written to the output file
    u64 runs         = 0; ///< sorted runs formed (1 = fit in budget)
};

/// Phase 1: forms sorted, duplicate-free runs from the binary edge-list
/// file `input_path` and appends them, back to back as raw 16-byte edges,
/// at `runs_fd`'s current offset. Allocates keys and scratch for
/// min(input edges, budget) — never more than `max_memory_bytes`, except
/// that a run holds at least 1024 edges. Returns the run table: the edge
/// count of each run, in file order.
/// \param n vertex count bounding every id, which sets the key width;
///        0 = derive each block's width from its largest id.
/// \param canonicalize orient each edge as (min, max) first — undirected
///        set semantics; `false` keeps directed edges as stored.
std::vector<u64> form_runs(const std::string& input_path, int runs_fd,
                           u64 max_memory_bytes, u64 n, bool canonicalize = true);

/// One producer's runs: back to back from byte `offset` of `fd`, run i
/// holding `lengths[i]` edges.
struct RunFile {
    int fd     = -1;
    u64 offset = 0;
    std::vector<u64> lengths;
};

/// A run of `merge_runs` that does not strictly increase.
struct RunOrderError : std::runtime_error {
    std::size_t source; ///< index of the offending RunFile
    RunOrderError(std::size_t src, const std::string& what)
        : std::runtime_error(what), source(src) {}
};

/// Phase 2: merges every run of `sources` into the binary edge-list file
/// `output_path`, dropping repeats across runs; returns the unique edge
/// count. Every run must strictly increase (form_runs writes them so);
/// one that does not throws RunOrderError naming its source. On any
/// failure the partial output file is removed.
u64 merge_runs(const std::vector<RunFile>& sources, const std::string& output_path);

/// Both phases over one file: sorts and deduplicates the binary edge-list
/// file `input_path` into `output_path` (same format), holding at most
/// ~`max_memory_bytes` of keys in RAM at once during run formation (plus
/// one merge batch per run while merging). The runs live in an anonymous
/// scratch file; key widths follow each block's largest id.
SortStats sort_dedup_file(const std::string& input_path,
                          const std::string& output_path, u64 max_memory_bytes,
                          bool canonicalize = true);

} // namespace kagen::em
