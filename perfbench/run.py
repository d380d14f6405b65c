"""chibound benchmark: three campaign workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload exhaustive7 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --smoke --trace 1

``--trace 0`` prints the end-to-end metrics, measured untraced; ``--trace 1``
runs a fixed set of units untraced and then traced and prints the per-layer
metrics.  Every metric line reads ``name = value unit``; the last line of
standard output is one JSON object with keys correct, attempted, failed and
metrics.  The exit code is 0 only when every output passed its check.
Details, the layer map and the baseline are in perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibration import Calibrator, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("exhaustive7", "sample14", "stream")
SETUP_REPEATS = 5


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (the
    benchmark may run in a copy that is not a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {"nproc": os.cpu_count(), "loadavg_start": os.getloadavg(),
            "python": platform.python_version(), "commit": git_commit()}


def measure_setup(args) -> float:
    """Median, over fresh interpreters that import chibound and build the
    workload's inputs, of the time from start to exit in reference seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    with Calibrator() as calibrator:
        speed = calibrator.speed()
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            t0 = perf_counter()
            subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
            wall = perf_counter() - t0
            speed_after = calibrator.speed(wall)
            times.append(reference_seconds(wall, speed, speed_after))
            speed = speed_after
    return statistics.median(times)


def run_workload(args, workloads) -> int:
    env = environment()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    tracer = None
    if args.trace:
        metrics, units, tracer = workload.trace()
        info = {"units": len(units)}
    else:
        metrics, units, info = workload.measure(args.seconds)
        metrics["setup_s"] = (measure_setup(args), "s")
    attempted = sum(u.items for u in units)
    failed = sum(u.failed for u in units)
    errors = [f"unit {u.key}: {u.error}" for u in units if u.error]
    env["loadavg_end"] = os.getloadavg()
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / (f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
                     f"{'-smoke' if args.smoke else ''}.json")
    out.write_text(json.dumps({**result, "workload": args.workload, "seed": args.seed,
                               "env": env, "info": info, "errors": errors,
                               "spans": tracer.table() if tracer else None}, indent=1))
    for e in errors:
        print(f"perfbench: {args.workload}: {e}", file=sys.stderr)
    print(f"env {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed} trace {int(args.trace)} "
          f"units {len(units)} record {out.relative_to(ROOT)}")
    print(f"error_rate = {failed / attempted if attempted else 1.0!r} ratio "
          f"({failed} of {attempted} failed)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    for name, value in info.items():
        if isinstance(value, (int, float)):
            print(f"info {name} = {value!r}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own interpreter, so peak RSS stays per workload."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            print(f"perfbench: {name} printed no result", file=sys.stderr)
            status = 1
            continue
        if proc.returncode or not result["correct"]:
            status = 1
        rows.append((name, result))
    print("\nsummary")
    for name, result in rows:
        print(f"  {name}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}")
        for metric, m in result["metrics"].items():
            print(f"    {metric} = {m['value']!r} {m['unit']}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, one unit and one set-up: checks the harness")
    p.add_argument("--setup-only", action="store_true",
                   help="import chibound and build the inputs, then exit "
                        "(the fresh interpreter timed for setup_s)")
    args = p.parse_args(argv)

    # Benchmark the sources of this checkout, never an installed copy.
    if not (SRC / "chibound" / "__init__.py").is_file():
        print(f"perfbench: no chibound sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import chibound
    if Path(chibound.__file__).resolve().parent != SRC / "chibound":
        print(f"perfbench: imported chibound from {chibound.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    import workloads
    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed, args.smoke)
        return 0
    return run_workload(args, workloads)


def stop_children() -> None:
    """Wait for every process this run started: pool workers and calibration
    helpers, and multiprocessing's resource tracker if anything started it
    (it would otherwise outlive the run)."""
    import multiprocessing
    from multiprocessing import resource_tracker
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # closes its pipe and waits for it; a no-op if never started


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        stop_children()
