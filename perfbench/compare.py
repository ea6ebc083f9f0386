#!/usr/bin/env python3
"""Compares two sets of benchmark result files (written by run.py under
<build root>/perfbench-results/) workload by workload.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result files or directories of them. Results are only
comparable from the same machine and settings: if any two fingerprints in
a workload differ (nproc, CPU model, build type, compiler, SYBIL_THREADS,
SYBIL_METRICS, fsync settings), the comparison is refused with exit code
3. Otherwise each end-to-end metric's median and quartiles are printed
per side, and a metric whose NEW median is worse than BASE by more than
its BENCHMARK.json bound is marked REGRESSION (exit code 1).
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(arg):
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out = []
    for f in files:
        data = json.loads(f.read_text())
        if "fingerprint" in data and not data["report"]["trace"]:
            out.append((f, data))
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def fingerprint_mismatch(entries):
    """Returns a message naming the first differing fingerprint field."""
    first_file, first = entries[0]
    for f, data in entries[1:]:
        for key in sorted(set(first["fingerprint"]) | set(data["fingerprint"])):
            a = first["fingerprint"].get(key)
            b = data["fingerprint"].get(key)
            if a != b:
                return (f"fingerprints differ in {key}: {a!r} ({first_file}) "
                        f"vs {b!r} ({f})")
    return None


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    base, new = load(argv[1]), load(argv[2])
    workloads = sorted({d["report"]["workload"] for _, d in base + new})
    if not workloads:
        print("compare: no untraced result files found", file=sys.stderr)
        return 2
    regressions = 0
    for w in workloads:
        side = {name: [(f, d) for f, d in entries if d["report"]["workload"] == w]
                for name, entries in (("base", base), ("new", new))}
        if not side["base"] or not side["new"]:
            print(f"{w}: results on one side only, skipped")
            continue
        why = fingerprint_mismatch(side["base"] + side["new"])
        if why:
            print(f"compare: refusing to compare {w}: {why}", file=sys.stderr)
            return 3
        print(f"{w}: {len(side['base'])} base runs, {len(side['new'])} new runs")
        for name, m in metrics.items():
            b = [d["metrics"][name]["value"] for _, d in side["base"]]
            n = [d["metrics"][name]["value"] for _, d in side["new"]]
            bq, nq = quartiles(b), quartiles(n)
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            worse = -change if m["better"] == "higher" else change
            verdict = "REGRESSION" if worse > m["bound"] else "ok"
            regressions += verdict != "ok"
            print(f"  {name:<14} base {bq[1]:>12.6g} [{bq[0]:.6g}, {bq[2]:.6g}]"
                  f"  new {nq[1]:>12.6g} [{nq[0]:.6g}, {nq[2]:.6g}]"
                  f"  {100 * change:+6.1f}% {m['unit']:<9} bound "
                  f"{100 * m['bound']:.0f}%  {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
