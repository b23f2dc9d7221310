"""One benchmark process: set up a workload, then time or trace its passes.

Started by run.py, never by hand. It prints ``READY`` as soon as set-up is
done (the parent times set-up up to that line), then ``SPEED <factor>``,
the factor that rescales set-up to reference speed, and, unless it only
probes set-up, one ``RESULT <json>`` line at the end.

A worker runs on one CPU. A sampler thread times a short fixed loop every
SAMPLE_INTERVAL_S. On a shared machine the CPU's
speed changes within seconds; the samples taken during a span of work give
the speed during that span, and the span's time is rescaled to the speed
at which the loop takes SAMPLE_REF_S.

Modes:
  setup  set up and exit
  time   timed passes for --seconds, then a timed rerun of the first seed
  trace  one untraced pass, then the same seed again with tracing installed
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import statistics
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

SAMPLE_INTERVAL_S = 0.025
SAMPLE_ROUNDS = 20
# Seconds one sample loop takes at reference speed: about its median on the
# 2-core machine the baselines in baselines.json were taken on.
SAMPLE_REF_S = 0.0011


def program_seed(seed: int, index: int) -> int:
    """Restart and trial seed of the index-th pass of a run."""
    return seed * 1000 + index


def numpy_facts() -> dict:
    facts = {"numpy": np.__version__, "python": sys.version.split()[0]}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        facts["blas"] = "unknown"
    return facts


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failed_names: list[str] = []

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if name not in self.failed_names:
                self.failed_names.append(name)

    def absorb(self, res) -> None:
        for name, ok in res.checks:
            self.add(name, ok)


def timed(sampler, fn, *args):
    """Run fn; return its result, its seconds and its seconds at reference speed."""
    begin = time.perf_counter()
    out = fn(*args)
    end = time.perf_counter()
    return out, end - begin, (end - begin) * sampler.factor(begin, end)


class SpeedSampler(threading.Thread):
    """Samples the CPU's speed with a fixed loop that calls no gpcq code.

    Each sample is SAMPLE_ROUNDS rounds of a batched 4x4 eigvalsh, a small
    kron and a short Python sum, about a millisecond of work, taken every
    SAMPLE_INTERVAL_S. The NumPy functions are bound at construction, so a
    traced run's wrappers never see these calls.
    """

    def __init__(self):
        super().__init__(daemon=True)
        rng = np.random.default_rng(0)
        herm = rng.standard_normal((6, 4, 4))
        self._herm = herm + herm.transpose(0, 2, 1)
        self._small, self._block = rng.standard_normal((2, 2)), rng.standard_normal((8, 8))
        self._eigvalsh, self._kron = np.linalg.eigvalsh, np.kron
        self._sample()  # the first call loads LAPACK; keep it out of the samples
        self._halt = threading.Event()
        self._lock = threading.Lock()
        self._samples: list[tuple[float, float]] = []

    def _sample(self) -> tuple[float, float]:
        start = time.perf_counter()
        acc = 0.0
        for _ in range(SAMPLE_ROUNDS):
            acc += float(self._eigvalsh(self._herm).sum())
            acc += float(self._kron(self._small, self._block)[0, 0])
            acc += sum(j * 0.5 for j in range(40))
        return start, time.perf_counter() - start

    def run(self) -> None:
        while not self._halt.wait(SAMPLE_INTERVAL_S):
            sample = self._sample()
            with self._lock:
                self._samples.append(sample)

    def factor(self, begin: float, end: float) -> float:
        """Factor that rescales a time measured in [begin, end] to reference speed."""
        with self._lock:
            inside = [d for t, d in self._samples if begin <= t <= end] or [d for _, d in self._samples[-1:]]
        return SAMPLE_REF_S / statistics.fmean(inside) if inside else 1.0

    def close(self) -> None:
        self._halt.set()
        self.join()


def run_time(state, run_pass, seed: int, seconds: float, sampler: SpeedSampler, checks: Checks) -> dict:
    start = time.perf_counter()
    times, scaled, values = [], [], []

    def one(index: int) -> str:
        res, seconds, at_reference = timed(sampler, run_pass, state, program_seed(seed, index))
        checks.absorb(res)
        times.append(seconds)
        scaled.append(at_reference)
        values.append(res.value_bits)
        return res.fingerprint()

    first = one(0)
    index = 1
    # Start another pass only if it and the rerun of the first seed still
    # fit in the window.
    while time.perf_counter() - start + statistics.median(times) + times[0] <= seconds:
        one(index)
        index += 1
    checks.add("rerun of the first seed gives identical outputs", one(0) == first)
    return {
        "wall_s": statistics.median(scaled),
        "raw_wall_s": statistics.median(times),
        "wall_s_samples": scaled,
        "raw_wall_s_samples": times,
        "distinct_seeds": index,
        "value_bits": statistics.median(values),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_trace(state, run_pass, seed: int, sampler: SpeedSampler, checks: Checks) -> dict:
    """Per-layer metrics of one traced pass. The overhead compares it with an
    untraced pass of the same seed, both at reference speed; the layer times
    are raw and include the sampler's share."""
    from tracing import Tracer

    plain, raw_plain_s, plain_s = timed(sampler, run_pass, state, program_seed(seed, 0))
    checks.absorb(plain)
    tracer = Tracer()
    tracer.install()
    try:
        traced, raw_traced_s, traced_s = timed(sampler, run_pass, state, program_seed(seed, 0))
    finally:
        tracer.uninstall()
    checks.absorb(traced)
    checks.add("traced pass gives the untraced outputs", traced.fingerprint() == plain.fingerprint())
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = {"value": traced_s - plain_s, "unit": "s"}
    return {
        "metrics": metrics,
        "missing": tracer.missing,
        "wall_s": plain_s,
        "traced_wall_s": traced_s,
        "raw_wall_s": raw_plain_s,
        "raw_traced_wall_s": raw_traced_s,
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
    args = ap.parse_args()

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sampler = SpeedSampler()
    sampler.start()
    begin = time.perf_counter()
    try:
        import workloads

        setup, run_pass = workloads.WORKLOADS[args.workload]
        state = setup()
        print("READY", flush=True)
        print(f"SPEED {sampler.factor(begin, time.perf_counter())!r}", flush=True)
        if args.mode == "setup":
            return
        checks = Checks()
        if args.mode == "time":
            out = run_time(state, run_pass, args.seed, args.seconds, sampler, checks)
        else:
            out = run_trace(state, run_pass, args.seed, sampler, checks)
    finally:
        sampler.close()
    out.update(attempted=checks.attempted, failed=checks.failed, failed_checks=checks.failed_names, facts=numpy_facts())
    print("RESULT " + json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
