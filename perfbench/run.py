#!/usr/bin/env python3
"""End-to-end benchmark: builds the driver from source, runs one workload,
checks its outputs, and prints every metric by name with its unit.

    python3 perfbench/run.py --workload svc-steady --seed 1 --seconds 25 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced passes and reports the per-layer metrics,
the per-layer self-time table and the tracing overhead. The last line of
standard output is the result as one JSON object. Each run also writes a
result file, stamped with a machine fingerprint, under
<build root>/perfbench-results/ for compare.py. Run from the repository
root. The build root is $CARGO_TARGET_DIR, or .bench_build.
"""
import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("svc-steady", "svc-sharded", "paper-table1")
BINARY_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures and builds perfbench_e2e; returns its path or None."""
    out = build_root() / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return None
    return out / "perfbench_e2e"


def workload_env(workload):
    """svc-sharded's pump and sweep lanes meet at a barrier every batch,
    so on a shared host one stolen vCPU stalls them all: with a thread on
    every vCPU of a 4-vCPU host its pass time spread 17-20% across seeds.
    Half the vCPUs (2 there) keep the lanes parallel with pass-time
    spreads near 10%. The other workloads are serial."""
    env = dict(os.environ)
    env["SYBIL_IO_FSYNC"] = "0"
    threads = 1
    if workload == "svc-sharded":
        threads = max(1, min(4, (os.cpu_count() or 1) // 2))
    env["SYBIL_THREADS"] = str(threads)
    return env


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(report, env):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "build_type": report["build_type"],
        "compiler": report["compiler"],
        "SYBIL_THREADS": env["SYBIL_THREADS"],
        "SYBIL_METRICS": env.get("SYBIL_METRICS", "unset (on)"),
        "fsync": "wal=never SYBIL_IO_FSYNC=" + env["SYBIL_IO_FSYNC"],
    }


def select_metrics(spec, section, values, workload, applies):
    """Takes the metrics BENCHMARK.json lists for `section` from `values`.
    A per-layer metric the map does not apply to this workload reads 0; a
    metric missing where it applies is an error."""
    out = {}
    for m in spec[section]:
        name = m["name"]
        if name in values:
            value = values[name]
        elif section == "per_layer" and workload not in applies.get(name, ()):
            value = 0.0
        else:
            raise KeyError(f"{workload} did not report {section} metric {name}")
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def print_report(report, metrics, fp, trace):
    log_lines = [f"workload {report['workload']}  seed {report['seed']}  "
                 f"passes {report['passes']} (traced {report['traced_passes']})",
                 "fingerprint " + json.dumps(fp, sort_keys=True)]
    notes = report["notes"]
    if trace:
        untraced, traced = report["e2e"], report["e2e_traced"]
        log_lines.append("end-to-end, median untraced vs traced passes; "
                         "paired tracing overhead "
                         f"{report['per_layer']['bench.trace_overhead_s']:+.4g} s a pass:")
        for name in sorted(traced):
            a, b = untraced.get(name, 0.0), traced[name]
            rel = f"{100 * (b - a) / a:+.1f}%" if a else "n/a"
            log_lines.append(f"  {name:<16} {a:>14.6g} {b:>14.6g}  {rel}")
        layer = report["per_layer"]
        selfs = {k[:-len(".self_s")]: v for k, v in layer.items()
                 if k.endswith(".self_s")}
        selfs["(unattributed)"] = layer.get("bench.unattributed_s", 0.0)
        wall = report["e2e_traced"].get("pass_s", 0.0)
        log_lines.append(f"per-layer self time, median traced pass "
                         f"(wall {wall:.6g} s, stage-sum gap "
                         f"{layer.get('bench.stage_sum_gap_s', 0.0):.3g} s):")
        for name, v in sorted(selfs.items(), key=lambda kv: -kv[1]):
            share = 100 * v / wall if wall else 0.0
            log_lines.append(f"  {name:<24} {v:>12.6f} s  {share:5.1f}%")
    else:
        log_lines.append(f"step tail = p{float(notes.get('step_tail_percentile', 0)):g} "
                         f"of {notes.get('step_samples', '?')} steps "
                         f"({notes.get('step_samples_per_pass', '?')} a pass)")
    for name, m in metrics.items():
        log_lines.append(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
    log_lines.append(f"checks: {report['attempted']} attempted, "
                     f"{report['failed']} failed")
    for c in report["failed_checks"]:
        log_lines.append(f"  FAILED {c['name']}: {c['detail']}")
    print("\n".join(log_lines), flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("paper", "tiny"), default="paper",
                    help="tiny: the benchmark's own tests")
    ap.add_argument("--perturb", choices=("flags", "digest", "crash", "table1"),
                    help="use a wrong reference (tests of the checks)")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    applies = {m["name"]: m["workloads"]
               for m in json.loads((HERE / "map.json").read_text())["per_layer"]}
    binary = build()
    if binary is None or not binary.exists():
        return 2

    results = build_root() / "perfbench-results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    state = build_root() / "perfbench-state" / f"{tag}-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--state-dir", str(state),
           "--trace-out", str(results / f"{tag}.spans.jsonl")]
    if args.perturb:
        cmd += ["--perturb", args.perturb]
    env = workload_env(args.workload)
    started = time.monotonic()
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} exceeded {BINARY_TIMEOUT_S} s")
        return 3
    finally:
        shutil.rmtree(state, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"perfbench: driver exited with {done.returncode}")
        return 3
    report = json.loads(lines[-1])

    section = "per_layer" if args.trace else "end_to_end"
    values = report["per_layer"] if args.trace else report["e2e"]
    try:
        metrics = select_metrics(spec, section, values, args.workload, applies)
    except KeyError as e:
        log(f"perfbench: {e.args[0]}")
        return 3
    fp = fingerprint(report, env)
    correct = report["failed"] == 0
    (results / f"{tag}.json").write_text(json.dumps({
        "fingerprint": fp, "report": report, "metrics": metrics,
        "correct": correct, "elapsed_s": time.monotonic() - started,
    }, indent=1, sort_keys=True))
    print_report(report, metrics, fp, args.trace)
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
