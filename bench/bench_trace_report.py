#!/usr/bin/env python3
"""Summarize (and validate) a merged Chrome trace produced by -trace.

Usage:
    bench_trace_report.py TRACE.json                   # utilization table
    bench_trace_report.py --check TRACE.json           # schema gate (CI)
    bench_trace_report.py --check --expect-ranks N ... # + coverage gate

The trace is the cross-rank merge written by the fork/TCP coordinators
(DESIGN.md §13): one Chrome `trace_event` process per rank plus one for
the coordinator, `ph:"X"` complete spans for the engine phases and
`ph:"i"` instants for budget parks, timestamps in
microseconds on the coordinator's clock.

Default mode prints a per-rank, per-phase utilization table: span count,
total busy time, and busy time as a share of that rank's wall span
(first event start to last event end). Threads within a rank overlap, so
shares can legitimately exceed 100% — the table is a load-balance lens,
not an accounting identity.

--check exits non-zero unless the file is structurally sound: the
traceEvents envelope, every event one of M/X/i with the fields Perfetto
needs, phase names drawn from the engine's fixed vocabulary, timestamps
and durations non-negative numbers. --expect-ranks N additionally
requires at least one span from every rank 0..N-1 — the CI smoke run
uses it to prove the telemetry frames from every worker survived the
merge.
"""
import argparse
import json
import sys

# Phase vocabulary, mirroring obs::phase_name() in src/obs/trace.cpp.
SPAN_PHASES = {
    "generate", "deliver", "spill_park", "spill_replay",
    "sink_write", "em_sort", "merge",
}
INSTANT_PHASES = {"budget_park"}
PHASES = SPAN_PHASES | INSTANT_PHASES


def fail(msg):
    print(f"bench_trace_report: {msg}", file=sys.stderr)
    sys.exit(1)


def is_num(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def validate(doc):
    """Returns a list of schema problems (empty = valid)."""
    problems = []
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        return ["top level must be an object with a 'traceEvents' list"]
    labelled = set()
    with_events = set()
    for i, ev in enumerate(doc["traceEvents"]):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("M", "X", "i"):
            problems.append(f"{where}: unknown ph {ph!r}")
            continue
        if not isinstance(ev.get("pid"), int):
            problems.append(f"{where}: pid missing or not an integer")
            continue
        if ph == "M":
            if ev.get("name") != "process_name" or \
                    not isinstance(ev.get("args", {}).get("name"), str):
                problems.append(f"{where}: metadata record without a "
                                f"process_name args.name")
            else:
                labelled.add(ev["pid"])
            continue
        with_events.add(ev["pid"])
        if not isinstance(ev.get("tid"), int):
            problems.append(f"{where}: tid missing or not an integer")
        if ev.get("name") not in PHASES:
            problems.append(f"{where}: phase {ev.get('name')!r} not in the "
                            f"engine vocabulary")
        if not is_num(ev.get("ts")) or ev.get("ts") < 0:
            problems.append(f"{where}: ts missing, non-numeric, or negative")
        if not isinstance(ev.get("args", {}).get("arg"), int):
            problems.append(f"{where}: args.arg missing or not an integer")
        if ph == "X":
            if not is_num(ev.get("dur")) or ev.get("dur") < 0:
                problems.append(f"{where}: span without a non-negative dur")
        else:
            if ev.get("s") != "t":
                problems.append(f"{where}: instant without thread scope "
                                f"(s: 't')")
    for pid in sorted(with_events - labelled):
        problems.append(f"pid {pid} has events but no process_name metadata")
    return problems


def report(doc):
    events = doc["traceEvents"]
    labels = {}
    # rank -> phase -> [count, total_us]; rank -> [min_ts, max_end]
    phases, walls, instants = {}, {}, {}
    for ev in events:
        pid = ev.get("pid")
        if ev.get("ph") == "M":
            labels[pid] = ev["args"]["name"]
            continue
        if ev.get("ph") == "i":
            instants.setdefault(pid, {}).setdefault(ev["name"], 0)
            instants[pid][ev["name"]] += 1
            continue
        if ev.get("ph") != "X":
            continue
        ts, dur = ev["ts"], ev["dur"]
        slot = phases.setdefault(pid, {}).setdefault(ev["name"], [0, 0.0])
        slot[0] += 1
        slot[1] += dur
        wall = walls.setdefault(pid, [ts, ts + dur])
        wall[0] = min(wall[0], ts)
        wall[1] = max(wall[1], ts + dur)

    print(f"{'rank':14s} {'phase':13s} {'spans':>6s} {'total_ms':>10s} "
          f"{'%wall':>7s}")
    for pid in sorted(phases):
        label = labels.get(pid, f"pid {pid}")
        wall_us = max(walls[pid][1] - walls[pid][0], 1e-9)
        for name in sorted(phases[pid], key=lambda n: -phases[pid][n][1]):
            count, total_us = phases[pid][name]
            print(f"{label:14s} {name:13s} {count:6d} {total_us / 1e3:10.3f} "
                  f"{total_us / wall_us * 100.0:6.1f}%")
        for name, count in sorted(instants.get(pid, {}).items()):
            print(f"{label:14s} {name:13s} {count:6d} {'(instant)':>10s} "
                  f"{'':>7s}")
        print(f"{label:14s} {'— wall':13s} {'':>6s} {wall_us / 1e3:10.3f}")
    n_spans = sum(c for p in phases.values() for c, _ in p.values())
    n_inst = sum(c for p in instants.values() for c in p.values())
    print(f"\n{len(phases)} rank(s), {n_spans} span(s), {n_inst} instant(s)")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", action="store_true",
                        help="validate the trace schema and exit")
    parser.add_argument("--expect-ranks", type=int, metavar="N", default=None,
                        help="with --check: require >=1 span from every "
                             "rank 0..N-1")
    parser.add_argument("trace", help="merged Chrome trace JSON (from -trace)")
    args = parser.parse_args()

    try:
        with open(args.trace) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{args.trace}: {e}")

    problems = validate(doc)
    if problems:
        for p in problems[:20]:
            print(f"bench_trace_report: {args.trace}: {p}", file=sys.stderr)
        if len(problems) > 20:
            print(f"bench_trace_report: ... and {len(problems) - 20} more",
                  file=sys.stderr)
        return 1

    if args.check:
        span_ranks = {ev["pid"] for ev in doc["traceEvents"]
                      if ev.get("ph") == "X"}
        if args.expect_ranks is not None:
            missing = sorted(set(range(args.expect_ranks)) - span_ranks)
            if missing:
                fail(f"{args.trace}: no spans from rank(s) "
                     f"{', '.join(map(str, missing))}")
        n = len(doc["traceEvents"])
        print(f"bench_trace_report: OK — {n} event(s), spans from "
              f"{len(span_ranks)} rank(s)")
        return 0

    report(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
