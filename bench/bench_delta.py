#!/usr/bin/env python3
"""Print the delta between two google-benchmark JSON result files.

Usage: bench_delta.py [--fail-above PCT] BASELINE.json CURRENT.json [...CURRENT.json]
       bench_delta.py [--fail-above PCT] --baseline B1.json [--baseline B2.json ...]
                      CURRENT.json [...CURRENT.json]

Matches benchmarks by name and prints real_time and the Medges/s counter
side by side with the relative change. When a benchmark appears in several
files of one side (repeated runs, e.g. alternating bare/armed process
pairs), that side's value is the median over those files, so one noisy
process cannot decide the comparison.

By default the exit code is 0 — the CI perf-smoke job is explicitly
non-gating (shared runners are far too noisy to fail a build on), the
point is a readable trend line between two runs. With --fail-above PCT the script becomes a regression gate: it
exits 1 if any benchmark present in both files slowed down by more than
PCT percent (real_time). Use that locally or on a quiet dedicated runner,
where the noise argument does not apply.
"""
import argparse
import json
import statistics
import sys


def load(paths):
    """Benchmark name -> {"real_time", "Medges/s"}, each the median over the
    files in `paths` that contain the benchmark."""
    runs = {}
    for path in paths:
        with open(path) as f:
            data = json.load(f)
        for b in data.get("benchmarks", []):
            runs.setdefault(b["name"], []).append(b)
    out = {}
    for name, benches in runs.items():
        merged = {"real_time": statistics.median(b["real_time"] for b in benches)}
        rates = [b["Medges/s"] for b in benches
                 if isinstance(b.get("Medges/s"), (int, float))]
        if rates:
            merged["Medges/s"] = statistics.median(rates)
        out[name] = merged
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
    parser.add_argument("--baseline", action="append", default=[], metavar="FILE",
                        help="baseline google-benchmark JSON; repeat for "
                             "several runs (then every positional file is "
                             "a current result)")
    parser.add_argument("files", nargs="+",
                        help="BASELINE.json CURRENT.json..., or only "
                             "CURRENT.json... with --baseline")
    args = parser.parse_args()

    baseline_files, current_files = args.baseline, args.files
    if not baseline_files:
        if len(current_files) < 2:
            parser.error("need a baseline and at least one current result")
        baseline_files, current_files = current_files[:1], current_files[1:]
    baseline = load(baseline_files)
    current = load(current_files)

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
