"""gpcq benchmark: end-to-end metrics untraced, per-layer metrics traced.

Usage (from the repository root):
  python3 perfbench/run.py --workload capacity --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 25

With --trace 0 the last line reports setup_s, wall_s, value_bits and
peak_rss_mb; with --trace 1 it reports the per-layer metrics of one traced
pass. ``--workload all`` runs every workload untraced and prints a table.
The last line of standard output is always one JSON object with the keys
correct, attempted, failed and metrics. A line before it, starting with
``facts``, records the machine and the run.

Each workload runs in its own worker process (worker.py) with BLAS pinned
to one thread. Set-up is timed from starting a worker to its READY line.
Workers that only set up are started until SETUP_MIN_PROBES of them have
run and they took SETUP_PROBE_S together; then one more sets up and times
the passes. The median set-up time is reported. Both setup_s and wall_s
are rescaled to a reference CPU speed that the worker samples while it
works (see worker.py), so that a shared machine changing speed moves them
less; the raw times are on the facts line. This process needs only the
standard library. Linux only: workers pin themselves to one CPU.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("capacity", "blocklength2", "simulate_flip", "simulate_cq")
SETUP_MIN_PROBES = 6
SETUP_PROBE_S = 3.0
SETUP_TIMEOUT_S = 60.0
TOTAL_TIMEOUT_S = 170.0
BLAS_THREADS = "1"
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "value_bits": "bits", "peak_rss_mb": "MB"}
RUN_FACTS = ("raw_wall_s", "wall_s_samples", "raw_wall_s_samples", "distinct_seeds", "raw_setup_s_samples")
TRACE_FACTS = ("missing", "wall_s", "traced_wall_s", "raw_wall_s", "raw_traced_wall_s")


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def check_layout() -> None:
    missing = [p for p in ("src/gpcq/__init__.py", "channels/flip.chan", "channels/purecq.chan") if not (ROOT / p).is_file()]
    if missing:
        raise BenchError(f"not a gpcq checkout, missing: {', '.join(missing)}")


def start_worker(workload: str, seed: int, mode: str, seconds: float, deadline: float):
    """Run one worker; return (seconds until READY, the factor that rescales
    set-up to reference speed, parsed RESULT or None)."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - started, 1.0), proc.kill)
    timer.start()
    ready_s, speed, result = None, None, None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and ready_s is None:
                ready_s = time.perf_counter() - started
            elif line.startswith("SPEED "):
                speed = float(line.split()[1])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready_s is None or speed is None or (mode != "setup" and result is None):
        raise BenchError(f"{workload} worker ({mode}) failed with exit code {code}")
    return ready_s, speed, result


def run_untraced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    setups, raw_setups = [], []
    # Set-up is short for some workloads, so probe until both a minimum
    # count and a minimum total time are reached; the median is robust.
    while len(raw_setups) < SETUP_MIN_PROBES or sum(raw_setups) < SETUP_PROBE_S:
        probe_deadline = min(deadline, time.perf_counter() + SETUP_TIMEOUT_S)
        ready_s, speed, _ = start_worker(workload, seed, "setup", 0.0, probe_deadline)
        raw_setups.append(ready_s)
        setups.append(ready_s * speed)
    ready_s, speed, result = start_worker(workload, seed, "time", seconds, deadline)
    raw_setups.append(ready_s)
    setups.append(ready_s * speed)
    result.update(setup_s=statistics.median(setups), raw_setup_s_samples=raw_setups)
    return result


def summary(result: dict) -> dict:
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def e2e_metrics(result: dict, prefix: str = "") -> dict:
    return {f"{prefix}{name}": {"value": result[name], "unit": unit} for name, unit in E2E_UNITS.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all" and args.trace:
        ap.error("--workload all runs untraced")

    facts = {
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "blas_threads": int(BLAS_THREADS),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    try:
        check_layout()
        deadline = time.perf_counter() + TOTAL_TIMEOUT_S
        if args.workload == "all":
            results = {}
            for name in WORKLOADS:
                results[name] = run_untraced(name, args.seed, args.seconds, time.perf_counter() + TOTAL_TIMEOUT_S)
        elif args.trace:
            _, _, result = start_worker(args.workload, args.seed, "trace", 0.0, deadline)
        else:
            result = run_untraced(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.workload == "all":
        facts.update(next(iter(results.values()))["facts"])
        print(f"{'workload':<14} {'setup_s':>10} {'wall_s':>10} {'raw_wall_s':>10} {'value_bits':>12} {'peak_rss_mb':>12} {'failed/attempted':>17}")
        metrics = {}
        for name, res in results.items():
            print(
                f"{name:<14} {res['setup_s']:>8.3f} s {res['wall_s']:>8.3f} s {res['raw_wall_s']:>8.3f} s {res['value_bits']:>7.4f} bits"
                f" {res['peak_rss_mb']:>9.1f} MB {res['failed']:>8}/{res['attempted']}"
            )
            metrics.update(e2e_metrics(res, prefix=f"{name}."))
        total = {
            "failed": sum(r["failed"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "metrics": metrics,
        }
        print("facts " + json.dumps(facts))
        print(json.dumps(summary(total)))
        return 0

    facts.update(result.pop("facts"))
    if args.trace:
        facts.update({key: result[key] for key in TRACE_FACTS})
        metrics = result["metrics"]
    else:
        facts.update({key: result[key] for key in RUN_FACTS})
        metrics = e2e_metrics(result)
    facts["failed_checks"] = result["failed_checks"]
    print("facts " + json.dumps(facts))
    result["metrics"] = metrics
    print(json.dumps(summary(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
