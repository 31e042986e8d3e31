#!/usr/bin/env python3
"""Nesting-aware self times of a merged Chrome trace written by kagen_tool -trace.

usage: python3 perfbench/trace_report.py --self-times TRACE.json

Prints one JSON object with, for every rank (trace process) of the run, the
self time of each span name in seconds, plus the rank's label and its first
span start and last span end (microseconds on the trace clock, which is
CLOCK_MONOTONIC: the clock of Python's time.monotonic_ns()). A span's self
time is its duration minus the part of it that the spans nested inside it
on the same thread cover, so the self times of one thread never add up to
more than the thread was busy.

Schema validation stays in bench/bench_trace_report.py --check; run.py runs
both on every traced run.
"""
import argparse
import json
import sys
from collections import defaultdict


def self_times(doc):
    """Returns {pid: {"label", "self_s": {name: s}, "first_us", "last_us"}}."""
    labels = {}
    threads = defaultdict(list)  # (pid, tid) -> [(start_us, end_us, name)]
    for ev in doc["traceEvents"]:
        if ev.get("ph") == "M":
            labels[ev["pid"]] = ev["args"]["name"]
        elif ev.get("ph") == "X":
            threads[(ev["pid"], ev["tid"])].append(
                (ev["ts"], ev["ts"] + ev["dur"], ev["name"]))

    ranks = {}
    for (pid, _tid), spans in sorted(threads.items()):
        rank = ranks.setdefault(pid, {
            "label": labels.get(pid, f"pid {pid}"),
            "self_s": defaultdict(float),
            "first_us": float("inf"),
            "last_us": float("-inf"),
        })
        # Enclosing spans first: earlier start, then the longer one.
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack = []  # open spans: [end_us, name, duration_us, covered_us]

        def close(frame):
            end, name, dur, covered = frame
            rank["self_s"][name] += max(dur - covered, 0.0) * 1e-6

        for start, end, name in spans:
            while stack and stack[-1][0] <= start:
                close(stack.pop())
            if stack:
                parent = stack[-1]
                parent[3] += min(end, parent[0]) - start
            stack.append([end, name, end - start, 0.0])
            rank["first_us"] = min(rank["first_us"], start)
            rank["last_us"] = max(rank["last_us"], end)
        while stack:
            close(stack.pop())

    for rank in ranks.values():
        rank["self_s"] = dict(sorted(rank["self_s"].items()))
    return ranks


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--self-times", action="store_true", required=True,
                        help="print per-rank self time per span name as JSON")
    parser.add_argument("trace", help="merged Chrome trace JSON (from -trace)")
    args = parser.parse_args()
    try:
        with open(args.trace) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"trace_report: {args.trace}: {e}", file=sys.stderr)
        return 1
    json.dump({str(pid): r for pid, r in sorted(self_times(doc).items())},
              sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
