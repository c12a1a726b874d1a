#!/usr/bin/env python3
"""The repository benchmark: builds the measuring program from source and runs
one workload.

    python3 perfbench/run.py --workload <fleet_honest|fleet_byzantine|upload_audit>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run it from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); trace dumps go to .bench_out/. The last line
of standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. See perfbench/README.md for what each workload and metric means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
CHILD_TIMEOUT_S = 170.0
# End-to-end metrics that are timings, and which way is worse, for the
# traced run's overhead against the untraced run.
TIMINGS = {
    "audits_per_s": "higher",
    "epoch_p50_ms": "lower",
    "epoch_tail_ms": "lower",
    "upload_blocks_per_s": "higher",
    "commit_p50_ms": "lower",
    "audit_p50_ms": "lower",
    "audit_tail_ms": "lower",
}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the measuring program; returns its path."""
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(SOURCE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def run_child(binary, args):
    """Runs the program (killed after CHILD_TIMEOUT_S); returns its result."""
    try:
        proc = subprocess.run([str(binary), *args], stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{binary.name} {' '.join(args)} timed out")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{binary.name} {' '.join(args)} failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def expected_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]])


def tracing_overhead_pct(untraced, traced):
    """The traced run's median loss against the untraced run over the
    end-to-end timings, in percent. The two runs are separate processes, so
    the figure carries their run-to-run noise."""
    losses = []
    for name, better in TIMINGS.items():
        base = untraced[name]["value"]
        value = traced[name]["value"]
        loss = (base - value) / base if better == "higher" else (value - base) / base
        losses.append(100.0 * loss)
    return statistics.median(losses)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.self_test:
        return subprocess.run([str(binary), "--self-test"]).returncode
    if args.workload is None:
        parser.error("--workload is required")

    e2e_names, layer_names = expected_names()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    untraced = run_child(binary, [*common, "--trace", "0"])
    runs = [untraced]
    if args.trace == 0:
        metrics = untraced["end_to_end"]
        names = e2e_names
    else:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-{args.seed}.json"
        traced = run_child(binary, [*common, "--trace", "1", "--trace-out", str(trace_file)])
        runs.append(traced)
        metrics = dict(traced["per_layer"])
        metrics["obs.tracing_overhead_pct"] = {
            "value": tracing_overhead_pct(untraced["end_to_end"], traced["end_to_end"]),
            "unit": "%"}
        names = layer_names
        log(f"spans written to {trace_file.relative_to(ROOT)}")

    missing = [n for n in names if n not in metrics]
    if missing:
        raise RuntimeError(f"metrics missing from the result: {', '.join(missing)}")
    for run in runs:
        for error in run["errors"]:
            log(f"check failed: {error}")
        log(f"{run['rounds']} rounds, median host-speed scale {run['host_scale']:.3f} "
            f"(set-up {run['setup_wall_s']:.3f} s of wall time); untimed input generation "
            f"{run['untimed_generation_s']:.1f} s, untimed checks {run['untimed_checks_s']:.1f} s")
    result = {
        "correct": all(run["correct"] for run in runs),
        "attempted": untraced["attempted"],
        "failed": untraced["failed"],
        "metrics": {name: metrics[name] for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, RuntimeError, OSError, ValueError) as error:
        log(f"error: {error}")
        sys.exit(1)
