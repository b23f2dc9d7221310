"""The benchmark's workloads: set-up, one timed pass, and output checks.

Every workload calls gpcq's public API on the bundled corpus the way
scripts/capacity_report.py and scripts/rate_error_sweep.py do. Calls go
through the module objects (``noncausal.noncausal_lower_bound``), so the
traced run's wrappers see the benchmark's own top-level calls as well.

A pass receives a program seed; the runner derives one per pass from the
benchmark seed, so a run samples several restart and trial seeds and a
rerun of the first one checks that outputs repeat exactly.
"""

from __future__ import annotations

import hashlib
import math
import pathlib
from dataclasses import dataclass, field

import numpy as np

import gpcq.causal as causal
import gpcq.channel as channel
import gpcq.coding as coding
import gpcq.noncausal as noncausal

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ("flip", "stuck", "skew", "purecq")
TOL = 1e-6

# Sizes, rescaled from the scripts' defaults so that one pass takes a few
# seconds on one core and a run measures several passes.
CAPACITY_RESTARTS = 4  # capacity_report.py uses 16
BL2_CHANNELS = ("stuck", "purecq")
BL2_N1_RESTARTS = 4
BL2_N2_RESTARTS = 3
# One alternating round per n=2 start. A start that runs to convergence
# takes 1.6-4.2 s on stuck and purecq, depending on the seed, and a run has
# room for only a few of them, so run medians differed by 45% from seed to
# seed. One round (an ascent of up to 50 gradient steps and one strategy
# sweep) costs about the same on every seed and still exercises every part
# of the n=2 solve.
BL2_N2_MAX_ROUNDS = 1
FLIP_RATES = (0.5, 1.2)
FLIP_NS = (2, 4, 6)
FLIP_TRIALS = 6  # rate_error_sweep.py uses 100
CQ_RATES = (0.25, 1.2)
CQ_NS = (4, 5)
CQ_TRIALS = 6
SIM_K = 2
SIM_DELTA = 0.2

STUCK_CAUSAL = math.log2(1 + 0.7 * 0.3 ** (3 / 7))
PURECQ = 0.3991239633071448
# Frozen test values: (causal capacity, non-causal n=1 bound) per channel.
FROZEN = {
    "flip": (1.0, 1.0),
    "stuck": (STUCK_CAUSAL, 0.7),
    "skew": (1.0, 1.0),
    "purecq": (PURECQ, PURECQ),
}

HALF = np.full((2, 2), 0.5)
# Uniform q with x = u XOR s. On purecq this witness attains the frozen
# optimum; the identity map x = u would send both auxiliary letters to the
# maximally mixed state (value 0).
FLIP_GP_WITNESS = (HALF, np.array([[0, 1], [1, 0]]))
CQ_GP_WITNESS = FLIP_GP_WITNESS


@dataclass
class PassResult:
    """What one pass produced: values to fingerprint, the summed certified
    value, and named output checks."""

    outputs: list = field(default_factory=list)
    value_bits: float = 0.0
    checks: list[tuple[str, bool]] = field(default_factory=list)

    def check(self, name: str, ok) -> None:
        self.checks.append((name, bool(ok)))

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        _feed(digest, self.outputs)
        return digest.hexdigest()


def _feed(digest, obj) -> None:
    if isinstance(obj, (list, tuple)):
        digest.update(b"[")
        for item in obj:
            _feed(digest, item)
        digest.update(b"]")
    elif isinstance(obj, np.ndarray):
        digest.update(f"{obj.dtype}{obj.shape}".encode())
        digest.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, float):
        digest.update(obj.hex().encode())
    else:
        digest.update(repr(obj).encode())


def load_corpus(names) -> dict:
    return {name: channel.load_channel(str(ROOT / "channels" / f"{name}.chan")) for name in names}


# -- capacity ---------------------------------------------------------------


def setup_capacity() -> dict:
    return {"channels": load_corpus(CORPUS)}


def pass_capacity(state: dict, seed: int) -> PassResult:
    res = PassResult()
    for name, ch in state["channels"].items():
        sol = causal.causal_capacity(ch)
        wit = noncausal.noncausal_lower_bound(ch, n=1, restarts=CAPACITY_RESTARTS, seed=seed)
        res.outputs += [sol.value, sol.gap, sol.q, wit.value, wit.q_given_s, wit.strategy]
        res.value_bits += sol.value + wit.value
        frozen_causal, frozen_noncausal = FROZEN[name]
        res.check(f"{name}: causal gap finite and <= {TOL}", math.isfinite(sol.gap) and sol.gap <= TOL)
        res.check(f"{name}: noncausal >= causal", wit.value >= sol.value - TOL)
        res.check(f"{name}: causal frozen value", abs(sol.value - frozen_causal) <= TOL)
        res.check(f"{name}: noncausal frozen value", abs(wit.value - frozen_noncausal) <= TOL)
    return res


# -- blocklength2 -----------------------------------------------------------


def setup_blocklength2() -> dict:
    return {"channels": load_corpus(BL2_CHANNELS)}


def pass_blocklength2(state: dict, seed: int) -> PassResult:
    res = PassResult()
    for name, ch in state["channels"].items():
        single = noncausal.noncausal_lower_bound(ch, n=1, restarts=BL2_N1_RESTARTS, seed=seed)
        seed_witness = noncausal.product_witness(single.q_given_s, single.strategy, ch.num_inputs)
        pair = noncausal.noncausal_lower_bound(
            ch, n=2, restarts=BL2_N2_RESTARTS, seed=seed, seed_witnesses=(seed_witness,),
            max_rounds=BL2_N2_MAX_ROUNDS,
        )
        res.outputs += [single.value, single.q_given_s, single.strategy, pair.value, pair.q_given_s, pair.strategy]
        res.value_bits += single.value + pair.value
        res.check(f"{name}: n=2 >= n=1", pair.value >= single.value - TOL)
        res.check(f"{name}: n=1 frozen value", abs(single.value - FROZEN[name][1]) <= TOL)
    return res


# -- simulate_flip and simulate_cq -----------------------------------------


def _curve(ch, scheme, rates, ns, trials, seed, **witness):
    return coding.simulate_rate_error_curve(
        ch, scheme, rates=list(rates), n_list=list(ns), trials=trials, seed=seed,
        K=SIM_K, delta=SIM_DELTA, **witness,
    )


def _record_rows(res: PassResult, label: str, rows) -> None:
    for r in rows:
        res.outputs.append([r.scheme, r.n, r.rate, r.M, r.err, r.ci_low, r.ci_high, r.declares])
        res.check(
            f"{label} n={r.n} rate={r.rate}: error and declare mass in [0,1]",
            0.0 <= r.err <= 1.0 and 0.0 <= r.declares <= 1.0,
        )


def _warm(ch, scheme, rates, ns, **witness) -> None:
    """One trial per (n, rate) fills schur_weyl's module-level caches."""
    _curve(ch, scheme, rates, ns, 1, 0, **witness)


def setup_simulate_flip() -> dict:
    flip = load_corpus(["flip"])["flip"]
    sol = causal.causal_capacity(flip)
    causal_witness = (sol.q, np.asarray(sol.strategy.columns, dtype=np.int64))
    gp_value = noncausal.gp_objective(flip, *FLIP_GP_WITNESS).value
    _warm(flip, "noncausal-sqrt", FLIP_RATES, FLIP_NS, gp_witness=FLIP_GP_WITNESS)
    _warm(flip, "causal-sequential", FLIP_RATES, FLIP_NS, causal_witness=causal_witness)
    return {"flip": flip, "causal_witness": causal_witness, "value_bits": gp_value + sol.value}


def pass_simulate_flip(state: dict, seed: int) -> PassResult:
    flip = state["flip"]
    res = PassResult(value_bits=state["value_bits"])
    sqrt_rows = _curve(flip, "noncausal-sqrt", FLIP_RATES, FLIP_NS, FLIP_TRIALS, seed, gp_witness=FLIP_GP_WITNESS)
    seq_rows = _curve(
        flip, "causal-sequential", FLIP_RATES, FLIP_NS, FLIP_TRIALS, seed,
        causal_witness=state["causal_witness"],
    )
    _record_rows(res, "noncausal-sqrt", sqrt_rows)
    _record_rows(res, "causal-sequential", seq_rows)
    # At desk-scale trial counts only the square-root curve falls reliably
    # with n at rate 0.5; the sequential one is checked for range only.
    half = [r.err for r in sorted(sqrt_rows, key=lambda r: r.n) if r.rate == 0.5]
    res.check("noncausal-sqrt rate=0.5: error falls strictly over n=2,4,6", all(a > b for a, b in zip(half, half[1:])))
    for r in sqrt_rows + seq_rows:
        if r.rate == 1.2:
            res.check(f"{r.scheme} n={r.n} rate=1.2: error > 0.3", r.err > 0.3)
    return res


def setup_simulate_cq() -> dict:
    purecq = load_corpus(["purecq"])["purecq"]
    gp_value = noncausal.gp_objective(purecq, *CQ_GP_WITNESS).value
    _warm(purecq, "noncausal-sqrt", CQ_RATES, CQ_NS, gp_witness=CQ_GP_WITNESS)
    return {"purecq": purecq, "value_bits": gp_value}


def pass_simulate_cq(state: dict, seed: int) -> PassResult:
    res = PassResult(value_bits=state["value_bits"])
    rows = _curve(state["purecq"], "noncausal-sqrt", CQ_RATES, CQ_NS, CQ_TRIALS, seed, gp_witness=CQ_GP_WITNESS)
    _record_rows(res, "noncausal-sqrt", rows)
    return res


WORKLOADS = {
    "capacity": (setup_capacity, pass_capacity),
    "blocklength2": (setup_blocklength2, pass_blocklength2),
    "simulate_flip": (setup_simulate_flip, pass_simulate_flip),
    "simulate_cq": (setup_simulate_cq, pass_simulate_cq),
}
