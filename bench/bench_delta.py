#!/usr/bin/env python3
"""Print the delta between two google-benchmark JSON result files.

Usage: bench_delta.py [--fail-above PCT] BASELINE.json CURRENT.json [...CURRENT.json]

Matches benchmarks by name and prints real_time and the Medges/s counter
side by side with the relative change.

By default the exit code is 0 — the CI perf-smoke job is explicitly
non-gating (shared runners are far too noisy to fail a build on), the
point is a readable trend line between two runs. With --fail-above PCT the script becomes a regression gate: it
exits 1 if any benchmark present in both files slowed down by more than
PCT percent (real_time). Use that locally or on a quiet dedicated runner,
where the noise argument does not apply.
"""
import argparse
import json
import sys


def load(path):
    with open(path) as f:
        data = json.load(f)
    out = {}
    for b in data.get("benchmarks", []):
        out[b["name"]] = b
    return out


def fmt_rate(bench):
    rate = bench.get("Medges/s")
    return f"{rate:9.2f}" if isinstance(rate, (int, float)) else "        -"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--fail-above", type=float, metavar="PCT", default=None,
                        help="exit 1 if any matched benchmark's real_time "
                             "regressed by more than PCT percent")
    parser.add_argument("baseline", help="baseline google-benchmark JSON")
    parser.add_argument("current", nargs="+", help="current result JSON(s)")
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = {}
    for path in args.current:
        current.update(load(path))

    regressions = []
    print(f"{'benchmark':55s} {'base_ms':>9s} {'now_ms':>9s} {'d_time':>8s} "
          f"{'base_Me/s':>9s} {'now_Me/s':>9s}")
    for name in sorted(set(baseline) | set(current)):
        b, c = baseline.get(name), current.get(name)
        if b is None or c is None:
            status = "new" if b is None else "gone"
            print(f"{name:55s} [{status}]")
            continue
        bt, ct = b["real_time"], c["real_time"]
        delta = (ct - bt) / bt * 100.0 if bt else float("nan")
        print(f"{name:55s} {bt:9.2f} {ct:9.2f} {delta:+7.1f}% "
              f"{fmt_rate(b)} {fmt_rate(c)}")
        if args.fail_above is not None and delta > args.fail_above:
            regressions.append((name, delta))

    if args.fail_above is not None:
        if regressions:
            print(f"\nFAIL: {len(regressions)} benchmark(s) regressed beyond "
                  f"+{args.fail_above:.1f}%:", file=sys.stderr)
            for name, delta in regressions:
                print(f"  {name}: {delta:+.1f}%", file=sys.stderr)
            return 1
        print(f"\nOK: no benchmark regressed beyond +{args.fail_above:.1f}%")
        return 0

    print("\n(non-gating: deltas on shared runners are indicative only — "
          "see EXPERIMENTS.md)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
