#!/usr/bin/env python3
"""Interleaved A/B of two commits on the benchmark's end-to-end metrics.

usage: python3 perfbench/ab.py [--parent REV] [--head REV] [--pairs N]
                               [--seed S] [--workload NAME ...]
                               [--scratch DIR]

Exports both commits with `git archive` into a scratch directory outside
the repository and copies this checkout's perfbench/ and BENCHMARK.json
over both, so the two sides run identical benchmark code and settings.
Then, for every pair, it runs `run.py --trace 0` on both sides for every
workload, with one seed and BENCHMARK.json's run_seconds, alternating which
side runs first. At least 10 pairs are run. For every (workload, metric) it
prints each side's median and quartiles over its successful runs, the share
of all pairs run that the head won (ties count for neither, a failed head
run counts as a loss), each side's failures, and a verdict:

  gain           the head won at least 9 in 10 of all pairs, the medians
                 differ by more than the parent's interquartile range, and
                 the head failed no more often than the parent
  regression     the head's median is worse than the parent's by more than
                 the metric's bound
  unresolved     the parent's interquartile range is wider than the bound,
                 and not every head run beats every parent run; or a side
                 has no successful run
  no regression  otherwise

Any failed run is listed at the end and makes the exit code 1.
"""
import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PAIRS = 10  # fewer cannot meet the 9-in-10 rule with one loss allowed


def export(rev, dest):
    """Writes the tree of `rev` to `dest`, then overlays the benchmark."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                               stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if archive.wait() != 0:
        raise SystemExit(f"ab.py: git archive {rev} failed")
    shutil.rmtree(dest / HERE.name, ignore_errors=True)
    shutil.copytree(HERE, dest / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")


def run_side(tree, workload, seed, seconds):
    """Returns ({metric: value}, "") or (None, the error's tail)."""
    argv = [sys.executable, str(tree / HERE.name / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.Popen(argv, cwd=tree, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=1200)
    except BaseException:
        proc.terminate()  # run.py stops its own children on SIGTERM
        proc.communicate()
        raise
    lines = out.decode().strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None or not result["correct"]:
        return None, err.decode(errors="replace")[-400:]
    return {name: m["value"] for name, m in result["metrics"].items()}, ""


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(pairs, name, better, bound):
    """pairs: [{"parent": metrics or None, "head": metrics or None}] of one
    workload. Returns (win fraction over all pairs, verdict)."""
    sign = 1.0 if better == "higher" else -1.0
    parent = [p["parent"][name] for p in pairs if p["parent"]]
    head = [p["head"][name] for p in pairs if p["head"]]
    wins = sum(1 for p in pairs if p["parent"] and p["head"]
               and sign * (p["head"][name] - p["parent"][name]) > 0)
    win_frac = wins / len(pairs)
    if not parent or not head:
        return win_frac, "unresolved"
    head_failed = sum(1 for p in pairs if not p["head"])
    parent_failed = sum(1 for p in pairs if not p["parent"])
    pm, hm = statistics.median(parent), statistics.median(head)
    q1, q3 = quartiles(parent)
    gain = sign * (hm - pm)
    if (win_frac >= 0.9 and gain > 0 and abs(hm - pm) > q3 - q1
            and head_failed <= parent_failed):
        return win_frac, "gain"
    if gain < -bound * abs(pm):
        return win_frac, "regression"
    beats_all = (min(head) > max(parent)) if sign > 0 else (max(head) < min(parent))
    if q3 - q1 > bound * abs(pm) and not beats_all:
        return win_frac, "unresolved"
    return win_frac, "no regression"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--head", default="HEAD")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="repeat to select several (default: all)")
    parser.add_argument("--scratch", help="directory for the two trees "
                        "(default: a new temporary directory)")
    args = parser.parse_args()
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS} (the 9-in-10 rule)")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    scratch = Path(args.scratch or tempfile.mkdtemp(prefix="kagen-ab-"))
    trees = {"parent": scratch / "parent", "head": scratch / "head"}
    runs = {w: [] for w in workloads}
    failures = []
    try:
        export(args.parent, trees["parent"])
        export(args.head, trees["head"])
        for i in range(args.pairs):
            order = ("parent", "head") if i % 2 == 0 else ("head", "parent")
            for w in workloads:
                pair = {}
                for side in order:
                    pair[side], err = run_side(trees[side], w, args.seed,
                                               bench["run_seconds"])
                    if pair[side] is None:
                        failures.append(f"pair {i} {w} {side}: {err}")
                runs[w].append(pair)
                print(f"pair {i + 1}/{args.pairs} {w} done", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"{'workload':18s} {'metric':16s} {'parent median [q1, q3]':>34s} "
          f"{'head median [q1, q3]':>34s} {'wins':>5s} {'failed p/h':>10s}  verdict")
    for w in workloads:
        pairs = runs[w]
        failed = (f"{sum(1 for p in pairs if not p['parent'])}/"
                  f"{sum(1 for p in pairs if not p['head'])}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            win_frac, v = verdict(pairs, name, metric["better"], metric["bound"])
            cols = []
            for side in ("parent", "head"):
                vals = [p[side][name] for p in pairs if p[side]]
                if not vals:
                    cols.append("no successful run")
                    continue
                q1, q3 = quartiles(vals)
                cols.append(f"{statistics.median(vals):.5g} [{q1:.5g}, {q3:.5g}]")
            print(f"{w:18s} {name:16s} {cols[0]:>34s} {cols[1]:>34s} "
                  f"{win_frac:5.2f} {failed:>10s}  {v} (pairs={len(pairs)})")
    for f in failures:
        print(f"FAILED {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
