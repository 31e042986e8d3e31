#!/usr/bin/env python3
"""Determinism lint: machine-checks the project's reproducibility invariants.

The whole value proposition of this repo is that generated output is a pure
function of (config, seed) — bit-identical across threads, ranks, and
machines (DESIGN.md §12). That contract is easy to break with one careless
line: a libc RNG call, a wall-clock read feeding generation, iteration over a
hash container whose order leaks into an emitted stream, a float in a wire
struct (NaN payloads and x87 excess precision are not portable bytes), or an
I/O call whose failure is silently dropped. This lint greps src/ for exactly
those patterns and fails with file:line diagnostics.

Rules (ids are what the allowlist references):
  libc-rng            rand()/srand()/random()/drand48-family/rand_r/
                      std::random_device anywhere in src/ — all randomness
                      must come from the seeded counter PRNG (prng/rng.hpp).
  wall-clock          time()/gettimeofday()/clock()/ftime()/localtime()/
                      std::chrono::system_clock — wall-clock values must
                      never exist in generation code (monotonic time is
                      available via obs::monotonic_now(), see below).
  unordered-iteration range-for or .begin() over a std::unordered_* variable
                      — hash iteration order is libc- and run-dependent, so
                      it must never reach an emit/serialize path. Lookups
                      (find/emplace/operator[]) are fine and idiomatic.
  wire-float          float/double members in wire-layer structs
                      (WIRE_FILES: dist/report.hpp, net/protocol.hpp,
                      common/bytes.hpp) — doubles cross the wire as explicit
                      IEEE-754 bit patterns via bytes::put_f64/get_f64, never
                      as raw struct bytes. Every WIRE_FILES entry must exist:
                      a renamed wire header would otherwise drop out of the
                      rule silently.
  discarded-io        statement-position fwrite/fread/write/send/recv whose
                      return value is discarded — short writes and ENOSPC
                      must surface, not truncate files silently.
  sleep               sleep()/usleep()/nanosleep()/std::this_thread::
                      sleep_for/sleep_until in src/ — sleeps hide lost
                      wakeups and turn protocol bugs into flaky slowness;
                      deadlines belong on poll(2), not on naps.
  monotonic-clock     clock_gettime()/std::chrono::steady_clock — every
                      timestamp must flow through obs::monotonic_now()
                      (obs/trace.hpp), the codebase's single allowlisted
                      clock read. One clock site means the "timestamps
                      never feed generation" argument (DESIGN.md §13) is
                      auditable at one place instead of N.
  hot-path-alloc      heap-allocation calls (new, operator new,
                      make_unique/make_shared, push_back/emplace_back/
                      reserve/resize) in the chunked-engine sources (pe/) —
                      the steady-state emit->deliver->write loop is
                      allocation-free by design (arena slabs recycled
                      through the ordered-delivery queue, DESIGN.md §14,
                      gated by test_alloc_gate).
                      Setup/teardown and cold-path allocations are fine but
                      must be allowlisted with a justification saying why
                      they are not per-chunk or per-edge.

Allowlist: one entry per line in the file passed via --allowlist,
  <rule-id> <path-suffix> "<line substring>"  # justification
Every entry must carry a justification comment and must match at least one
current violation — stale entries fail the lint so the file cannot rot.
"""

import argparse
import re
import shlex
import sys
from pathlib import Path

# (rule, compiled regex). Matched per line, after comment stripping.
LINE_RULES = [
    ("libc-rng",
     re.compile(r"\b(s?rand|random|[dlm]rand48|rand_r)\s*\(|std::random_device")),
    ("wall-clock",
     re.compile(r"\b(time|gettimeofday|ftime|localtime|gmtime)\s*\(|"
                r"(?<![\w:])clock\s*\(|system_clock")),
    ("sleep",
     re.compile(r"\b(sleep|usleep|nanosleep)\s*\(|"
                r"this_thread::sleep_(for|until)")),
    ("monotonic-clock",
     re.compile(r"\bclock_gettime\s*\(|steady_clock")),
]

DISCARDED_IO = re.compile(
    r"^\s*(?:std::|::)?(fwrite|fread|write|send|recv)\s*\(")
# A statement continuation: the call is an operand of the previous line.
CONTINUATION_TAIL = re.compile(r"(\(|\|\||&&|=|\?|:|,|return|<<|>>)\s*$")
RESULT_USED_SAME_LINE = re.compile(r"\)\s*(==|!=|<|>|<=|>=)")

# Heap-allocation calls, flagged only under HOT_PATH_PREFIXES. Placement
# new (`new (mem) T`) is excluded — it does not allocate.
HOT_PATH_PREFIXES = ("pe/",)
HOT_PATH_ALLOC = re.compile(
    r"\bnew\s+[A-Za-z_:]|\boperator\s+new\b|std::make_(unique|shared)\b|"
    r"\.(push_back|emplace_back|reserve|resize)\s*\(")

UNORDERED_DECL = re.compile(r"std::unordered_\w+\s*<[^;]*>\s+(\w+)")
WIRE_FILES = ("dist/report.hpp", "net/protocol.hpp", "common/bytes.hpp")
WIRE_FLOAT = re.compile(r"^\s*(float|double)\s+\w+\s*(=[^=]|;|\{)")

BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)


def strip_comments(text: str) -> str:
    """Blanks comments and string literals, preserving line numbers."""
    out = []
    i, n = 0, len(text)
    mode = None  # None | '//' | '/*' | '"' | "'"
    while i < n:
        c = text[i]
        if mode is None:
            if c == "/" and i + 1 < n and text[i + 1] == "/":
                mode = "//"
                out.append("  ")
                i += 2
                continue
            if c == "/" and i + 1 < n and text[i + 1] == "*":
                mode = "/*"
                out.append("  ")
                i += 2
                continue
            if c in "\"'":
                mode = c
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif mode == "//":
            if c == "\n":
                mode = None
                out.append(c)
            else:
                out.append(" ")
        elif mode == "/*":
            if c == "*" and i + 1 < n and text[i + 1] == "/":
                mode = None
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:  # string/char literal
            if c == "\\" and i + 1 < n:
                out.append("  ")
                i += 2
                continue
            if c == mode:
                mode = None
                out.append(c)
            elif c == "\n":  # unterminated (raw string etc.) — bail out
                mode = None
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def scan_file(path: Path, rel: str):
    """Yields (rule, rel_path, line_no, line_text) violations."""
    text = path.read_text(encoding="utf-8", errors="replace")
    clean = strip_comments(text)
    lines = clean.splitlines()
    raw_lines = text.splitlines()

    unordered_vars = set()
    for m in UNORDERED_DECL.finditer(clean):
        unordered_vars.add(m.group(1))

    in_struct_depth = 0
    for idx, line in enumerate(lines):
        no = idx + 1
        raw = raw_lines[idx] if idx < len(raw_lines) else line

        for rule, rx in LINE_RULES:
            if rx.search(line):
                yield (rule, rel, no, raw.strip())

        if unordered_vars:
            range_for = re.search(r"for\s*\([^;)]*:\s*&?\s*(\w+)\s*\)", line)
            if range_for and range_for.group(1) in unordered_vars:
                yield ("unordered-iteration", rel, no, raw.strip())
            # begin() starts an iteration; end() alone is the find-idiom
            # sentinel comparison and stays legal.
            begin = re.search(r"\b(\w+)\s*(\.|->)\s*c?r?begin\s*\(", line)
            if begin and begin.group(1) in unordered_vars:
                yield ("unordered-iteration", rel, no, raw.strip())

        if rel.startswith(HOT_PATH_PREFIXES) and \
                not line.lstrip().startswith("#") and \
                HOT_PATH_ALLOC.search(line):
            yield ("hot-path-alloc", rel, no, raw.strip())

        if DISCARDED_IO.search(line):
            prev = lines[idx - 1].rstrip() if idx > 0 else ""
            if not CONTINUATION_TAIL.search(prev) and \
               not RESULT_USED_SAME_LINE.search(line):
                yield ("discarded-io", rel, no, raw.strip())

        if rel.endswith(WIRE_FILES):
            if re.search(r"\bstruct\s+\w+", line):
                in_struct_depth = 1
            elif in_struct_depth and re.match(r"\s*\};", line):
                in_struct_depth = 0
            if in_struct_depth and WIRE_FLOAT.search(line):
                yield ("wire-float", rel, no, raw.strip())


def load_allowlist(path: Path):
    entries = []
    if not path.exists():
        return entries
    for no, line in enumerate(path.read_text().splitlines(), 1):
        code = line.split("#", 1)[0].strip()
        if not code:
            continue
        parts = shlex.split(code)
        if len(parts) != 3:
            print(f"{path}:{no}: malformed allowlist entry (want: "
                  f'rule path-suffix "needle"  # why)', file=sys.stderr)
            sys.exit(2)
        if "#" not in line:
            print(f"{path}:{no}: allowlist entry has no justification "
                  f"comment", file=sys.stderr)
            sys.exit(2)
        entries.append({"rule": parts[0], "path": parts[1],
                        "needle": parts[2], "line_no": no, "used": False})
    return entries


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True, help="source tree to lint")
    ap.add_argument("--allowlist", required=True)
    args = ap.parse_args()

    root = Path(args.root)
    allow = load_allowlist(Path(args.allowlist))

    status = 0
    for wire in WIRE_FILES:
        if not (root / wire).is_file():
            print(f"WIRE_FILES names {wire}, which does not exist under "
                  f"{root} — point it at the header that now holds the wire "
                  f"structs", file=sys.stderr)
            status = 1

    violations = []
    for path in sorted(root.rglob("*")):
        if path.suffix not in {".hpp", ".cpp", ".h", ".cc"}:
            continue
        rel = path.relative_to(root).as_posix()
        for rule, rpath, no, text in scan_file(path, rel):
            waived = False
            for entry in allow:
                if entry["rule"] == rule and rpath.endswith(entry["path"]) \
                        and entry["needle"] in text:
                    entry["used"] = True
                    waived = True
                    break
            if not waived:
                violations.append((rule, rpath, no, text))

    for rule, rpath, no, text in violations:
        print(f"{rpath}:{no}: [{rule}] {text}")
        status = 1

    for entry in allow:
        if not entry["used"]:
            print(f"allowlist:{entry['line_no']}: stale entry "
                  f"({entry['rule']} {entry['path']}) matches nothing — "
                  f"remove it", file=sys.stderr)
            status = 1

    if status == 0:
        print(f"determinism lint: clean ({len(allow)} allowlisted sites)")
    return status


if __name__ == "__main__":
    sys.exit(main())
