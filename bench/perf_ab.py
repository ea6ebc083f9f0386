#!/usr/bin/env python3
"""Interleaved A/B of perfbench between a base revision and this checkout.

    python3 bench/perf_ab.py --base HEAD --workload paper-table1 --pairs 10
    python3 bench/perf_ab.py --base HEAD~1 --workload svc-steady \\
        --workload svc-sharded --pairs 6 --seed 11 --out ab.json

The base revision is unpacked with `git archive` into a scratch directory
(default .bench_build/perf-ab/<sha>); the new side is the working tree
this script lives in, uncommitted changes included. Each checkout builds
its own perfbench binary under its own .bench_build. For every workload
the script then runs `perfbench/run.py` once on each side per pair,
alternating which side goes first, so slow drift of a shared host hits
both sides alike.

Every run's machine fingerprint must match the first run's; a mismatch
stops the comparison (exit 3). A run whose correctness checks fail is
reported and makes the exit code 1. The report gives, per metric: the
median of each side, the base side's interquartile range, how many pairs
the new side won (by the metric's "better" direction in BENCHMARK.json),
and the ratio of the medians, new / base. A change is "resolved" on a
metric when it wins at least 9 pairs in 10 and its median moved by more
than the base IQR.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("svc-steady", "svc-sharded", "paper-table1")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def unpack_base(rev, scratch):
    """Unpacks `rev` into scratch/<sha> once; returns the directory."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    dest = Path(scratch) / sha[:12]
    if not (dest / "perfbench" / "run.py").exists():
        dest.mkdir(parents=True, exist_ok=True)
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {sha} failed")
    return sha, dest


def run_once(checkout, workload, seed, seconds, trace):
    """One perfbench/run.py run in `checkout`; returns (result, fingerprint)."""
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = str(checkout / ".bench_build")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        log(done.stderr[-4000:])
        raise RuntimeError(f"run.py failed in {checkout} ({done.returncode})")
    result = json.loads(lines[-1])
    tag = f"{workload}-seed{seed}-trace{trace}.json"
    saved = checkout / ".bench_build" / "perfbench-results" / tag
    fingerprint = json.loads(saved.read_text())["fingerprint"]
    return result, fingerprint


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def report(workload, runs, better):
    """Prints the per-metric table for one workload; returns its rows."""
    rows = []
    pairs = len(runs["base"])
    print(f"{workload}: {pairs} interleaved pairs")
    print(f"  {'metric':<40} {'base median':>12} {'base IQR':>11} "
          f"{'new median':>12} {'wins':>6} {'new/base':>9}  verdict")
    for name in runs["base"][0]["metrics"]:
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        new = [r["metrics"][name]["value"] for r in runs["new"]]
        b_lo, b_med, b_hi = quartiles(base)
        n_med = statistics.median(new)
        higher = better.get(name, "lower") == "higher"
        wins = sum((n > b) if higher else (n < b) for b, n in zip(base, new))
        ratio = n_med / b_med if b_med else None
        moved = abs(n_med - b_med) > (b_hi - b_lo)
        gained = (n_med > b_med) if higher else (n_med < b_med)
        if wins * 10 >= 9 * pairs and moved and gained:
            verdict = "better"
        elif (pairs - wins) * 10 >= 9 * pairs and moved and not gained:
            verdict = "worse"
        else:
            verdict = "-"
        unit = runs["base"][0]["metrics"][name]["unit"]
        shown = f"{ratio:.4f}" if ratio is not None else "n/a"
        print(f"  {name:<40} {b_med:>12.6g} {b_hi - b_lo:>11.4g} "
              f"{n_med:>12.6g} {wins:>3}/{pairs:<2} {shown:>9}  "
              f"{verdict} ({unit})")
        rows.append({"metric": name, "unit": unit, "base": base, "new": new,
                     "base_median": b_med, "base_iqr": b_hi - b_lo,
                     "new_median": n_med, "wins": wins, "pairs": pairs,
                     "ratio": ratio, "verdict": verdict})
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD",
                    help="git revision to compare against (default HEAD)")
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    required=True, help="repeat for several workloads")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1,
                    help="first seed; pair k runs seed + k on both sides")
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", default=str(ROOT / ".bench_build" / "perf-ab"),
                    help="where the base revision is unpacked")
    ap.add_argument("--out", help="also write every run's metrics here (JSON)")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    sha, base_dir = unpack_base(args.base, args.scratch)
    sides = {"base": base_dir, "new": ROOT}
    log(f"perf_ab: base {sha[:12]} in {base_dir}, new = {ROOT}")

    failed = 0
    out = {"base": sha, "trace": args.trace, "workloads": {}}
    for workload in args.workload:
        runs = {"base": [], "new": []}
        first_fp = None
        for k in range(args.pairs):
            order = ("base", "new") if k % 2 == 0 else ("new", "base")
            for side in order:
                result, fp = run_once(sides[side], workload, args.seed + k,
                                      args.seconds, args.trace)
                if first_fp is None:
                    first_fp = fp
                elif fp != first_fp:
                    diff = sorted(key for key in set(fp) | set(first_fp)
                                  if fp.get(key) != first_fp.get(key))
                    log(f"perf_ab: refusing {workload}: fingerprint of the "
                        f"{side} run differs in {', '.join(diff)}")
                    return 3
                if not result["correct"]:
                    failed += 1
                    log(f"perf_ab: {workload} {side} pair {k}: "
                        f"{result['failed']} check(s) FAILED")
                runs[side].append(result)
                log(f"perf_ab: {workload} pair {k + 1}/{args.pairs} {side} done")
        out["workloads"][workload] = {"fingerprint": first_fp,
                                      "rows": report(workload, runs, better)}
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True))
    if failed:
        print(f"{failed} run(s) failed their correctness checks")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
