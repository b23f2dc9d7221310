"""Finite-blocklength lower bounds with non-causal state knowledge.

The n-letter objective trades the Holevo information of the auxiliary
ensemble against the classical information leaked about the state block.
Only certified-from-below values are reported: the objective is evaluated
exactly at explicit witnesses and improved by alternating a closed-form
multiplicative step on the auxiliary conditionals (a Blahut-Arimoto-style
update that never lowers the objective) with greedy strategy sweeps.
Concavity is unknown, so restarts plus structured seeds stand in for a
global solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .causal import causal_capacity
from .channel import StateChannel, classical_embedding, product_extension
from .errors import GpcqError, PreconditionViolated, ShapeMismatch
from .quantum import kl_divergence
from .util import compositions, rng_for

ALT_EPS = 1e-7
ASCENT_ITERS = 200
DEFAULT_AUX_CAP = 16
# The ascent step takes logs of the eigenvalues of the derived states; they
# are floored so singular states give finite (large) weights. Steps are kept
# only if they raise the exact objective, so the floor shapes the step, not
# the values.
EIG_FLOOR = 1e-12


def default_aux_size(num_states: int, num_inputs: int, n: int) -> int:
    if n == 1:
        return num_states * (num_inputs + 1)
    return min((2 * num_states * num_inputs) ** n, DEFAULT_AUX_CAP)


def mutual_information(joint: np.ndarray) -> float:
    """I between the axes of a 2-D joint pmf, in bits."""
    joint = np.asarray(joint, dtype=float)
    total = joint.sum()
    if not math.isclose(total, 1.0, abs_tol=1e-8):
        raise GpcqError(f"joint mass {total} is not 1")
    rows = joint.sum(axis=1)
    cols = joint.sum(axis=0)
    mask = joint > 0
    outer = rows[:, None] * cols[None, :]
    return float(np.sum(joint[mask] * (np.log2(joint[mask]) - np.log2(outer[mask]))))


@dataclass(frozen=True)
class GPObjectiveReport:
    value: float
    holevo: float
    leak: float


def _objective(p: np.ndarray, tensor: np.ndarray, q_given_s: np.ndarray, strategy: np.ndarray) -> GPObjectiveReport:
    """Unscaled objective chi - leak for one block channel."""
    num_states = p.size
    w = p[:, None] * q_given_s
    picked = tensor[np.arange(num_states)[:, None], strategy]
    A = np.einsum("su,suij->uij", w, picked)

    vals = np.clip(np.linalg.eigvalsh(A), 0.0, None)
    mask = vals > 1e-18
    tr_alog = np.sum(np.where(mask, vals * np.log2(np.where(mask, vals, 1.0)), 0.0))

    q_u = w.sum(axis=0)
    qpos = q_u > 0
    q_log = float(np.sum(q_u[qpos] * np.log2(q_u[qpos])))

    rho_vals = np.clip(np.linalg.eigvalsh(A.sum(axis=0)), 0.0, None)
    rpos = rho_vals > 1e-18
    s_bar = float(-np.sum(rho_vals[rpos] * np.log2(rho_vals[rpos])))

    chi = s_bar + float(tr_alog) - q_log

    wpos = w > 0
    outer = p[:, None] * q_u[None, :]
    leak = float(np.sum(w[wpos] * (np.log2(w[wpos]) - np.log2(outer[wpos]))))
    return GPObjectiveReport(chi - leak, chi, leak)


def gp_objective(ch: StateChannel, q_given_s: np.ndarray, strategy: np.ndarray, n: int = 1) -> GPObjectiveReport:
    """Per-symbol objective of a witness on an (already extended) channel."""
    q_given_s = np.asarray(q_given_s, dtype=float)
    strategy = np.asarray(strategy, dtype=np.int64)
    if q_given_s.shape != strategy.shape or q_given_s.shape[0] != ch.num_states:
        raise ShapeMismatch(
            f"witness shapes {q_given_s.shape}/{strategy.shape} do not match channel with {ch.num_states} states"
        )
    if np.any(np.abs(q_given_s.sum(axis=1) - 1.0) > 1e-8):
        raise GpcqError("conditional rows must sum to 1")
    if np.any((strategy < 0) | (strategy >= ch.num_inputs)):
        raise GpcqError("strategy entries out of input range")
    rep = _objective(ch.p.probs, ch.tensor(), q_given_s, strategy)
    return GPObjectiveReport(rep.value / n, rep.holevo / n, rep.leak)


def _cross_term(p, tensor, q, strategy) -> np.ndarray:
    """c(s,u) = tr rho_{s,x(s,u)}(log A_u - log rho_bar), in bits.

    With f = S(rho_bar) + sum_u tr A_u log A_u + sum_s p(s) H(q(.|s)) the
    partial derivative in q(u|s) is p(s)[c(s,u) - log q(u|s)] up to a per-row
    constant. One batched eigh over the A_u and rho_bar does the work of a
    single objective evaluation.
    """
    num_states, num_u = q.shape
    picked = tensor[np.arange(num_states)[:, None], strategy]
    A = np.einsum("su,suij->uij", p[:, None] * q, picked)
    vals, vecs = np.linalg.eigh(np.concatenate([A, A.sum(axis=0, keepdims=True)]))
    logs = (vecs * np.log2(np.maximum(vals, EIG_FLOOR))[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
    return np.einsum("suij,uji->su", picked, logs[:num_u] - logs[num_u]).real


def _q_step(p, tensor, q, strategy) -> np.ndarray:
    """One multiplicative step: q(u|s) proportional to 2^c(s,u) in every row.

    Let G(q; q') = sum_s p(s) sum_u q(u|s)[c'(s,u) - log q(u|s)] with c' taken
    at q'. Then G(q'; q') = f(q') and, with omega = sum_u |u><u| (x) A_u,
    f(q) - G(q; q') = D(omega||omega') - D(rho_bar||rho_bar') >= 0 by data
    processing under the partial trace over U. The step maximises G(.; q')
    row by row, so it never lowers f and stays inside the simplex.
    """
    c = _cross_term(p, tensor, q, strategy)
    step = np.exp2(c - c.max(axis=1, keepdims=True))
    return step / step.sum(axis=1, keepdims=True)


def _ascend_q(p, tensor, q, strategy, cur):
    """_q_step from q (objective cur) while the exact objective rises; returns (q, f, steps, evals)."""
    steps = evals = 0
    for _ in range(ASCENT_ITERS):
        cand = _q_step(p, tensor, q, strategy)
        val = _objective(p, tensor, cand, strategy).value
        evals += 1
        if not val > cur:
            break
        q, cur, steps = cand, val, steps + 1
    return q, cur, steps, evals


def _sweep_strategy(p, tensor, q, strategy, num_inputs: int):
    strategy = strategy.copy()
    cur = _objective(p, tensor, q, strategy).value
    num_states, num_u = strategy.shape
    for s in range(num_states):
        for u in range(num_u):
            best_x, best_val = int(strategy[s, u]), cur
            for x in range(num_inputs):
                if x == strategy[s, u]:
                    continue
                strategy[s, u] = x
                val = _objective(p, tensor, q, strategy).value
                if val > best_val + 1e-12:
                    best_x, best_val = x, val
            strategy[s, u] = best_x
            cur = best_val
    return strategy, cur


def _alternate(p, tensor, q, strategy, num_inputs, max_rounds):
    """Returns (q, strategy, value, accepted ascent steps, objective evaluations)."""
    val = _objective(p, tensor, q, strategy).value
    steps, evals = 0, 1
    for _ in range(max_rounds):
        q, _, round_steps, round_evals = _ascend_q(p, tensor, q, strategy, val)
        strategy, new_val = _sweep_strategy(p, tensor, q, strategy, num_inputs)
        # The sweep evaluates once, then once per alternative input of each cell.
        steps += round_steps
        evals += round_evals + 1 + strategy.size * (num_inputs - 1)
        if new_val <= val + ALT_EPS:
            val = max(val, new_val)
            break
        val = new_val
    return q, strategy, val, steps, evals


def trim_witness(q_given_s: np.ndarray, strategy: np.ndarray, tol: float = 1e-9):
    """Drop unused auxiliary letters and merge exact duplicates.

    Letters with the same strategy column and proportional conditional
    weights produce identical derived states and posteriors, so summing
    their weights preserves the objective exactly while shrinking the
    alphabet (solvers often split one optimal letter across several).
    """
    active = np.where(q_given_s.max(axis=0) > tol)[0]
    if active.size == 0:
        active = np.array([0])
    q = q_given_s[:, active]
    q = q / q.sum(axis=1, keepdims=True)
    strat = strategy[:, active]

    keep: list[int] = []
    for u in range(q.shape[1]):
        merged = False
        for v in keep:
            if not np.array_equal(strat[:, u], strat[:, v]):
                continue
            cross = np.outer(q[:, u], q[:, v])
            if np.max(np.abs(cross - cross.T)) <= tol:
                q[:, v] += q[:, u]
                merged = True
                break
        if not merged:
            keep.append(u)
    q = q[:, keep]
    q = q / q.sum(axis=1, keepdims=True)
    return q, strat[:, keep]


def product_witness(q_given_s: np.ndarray, strategy: np.ndarray, num_inputs: int, n: int = 2):
    """n-fold product of a single-letter witness, matching product channel orderings.

    Block indices follow the product channel layout: the first letter is the
    most significant digit for states, auxiliaries, and inputs alike.
    """
    q_given_s = np.asarray(q_given_s, dtype=float)
    strategy = np.asarray(strategy, dtype=np.int64)
    qn, stratn = q_given_s, strategy
    for _ in range(n - 1):
        rows, cols = qn.shape[0] * q_given_s.shape[0], qn.shape[1] * q_given_s.shape[1]
        qn = np.einsum("au,bv->abuv", qn, q_given_s).reshape(rows, cols)
        stratn = (stratn[:, None, :, None] * num_inputs + strategy[None, :, None, :]).reshape(rows, cols)
    return qn, stratn


@dataclass(frozen=True)
class GPWitness:
    """Best witness found: per-symbol value with the realizing conditionals."""

    n: int
    value: float
    holevo: float
    leak: float  # I(U; S^n) per block; leak_per_symbol divides it by n
    q_given_s: np.ndarray
    strategy: np.ndarray
    aux_size: int
    restart_index: int
    restarts: int
    restart_values: tuple[float, ...]  # per symbol, one per start in start order
    ascent_steps: int  # accepted q-steps, summed over starts
    objective_evals: int  # exact objective evaluations, summed over starts

    @property
    def leak_per_symbol(self) -> float:
        return self.leak / self.n


def noncausal_lower_bound(
    ch: StateChannel,
    n: int = 1,
    aux_size: int | None = None,
    restarts: int = 32,
    seed: int = 0,
    max_rounds: int = 40,
    seed_witnesses: tuple = (),
) -> GPWitness:
    """Certified lower bound on the per-symbol non-causal rate at blocklength n.

    The first start is the single-letter causal solution, lifted to
    blocklength n as an n-fold product witness: it leaks nothing about the
    state and attains the causal capacity per symbol, and the ascent only
    accepts improvements, so the bound dominates the causal value by
    construction.
    Explicit witnesses follow, each run at its own auxiliary size; remaining
    restarts are random. Ties keep the smallest restart index.
    """
    ch_n = ch if n == 1 else product_extension(ch, n)
    p = ch_n.p.probs
    tensor = ch_n.tensor()
    num_states, num_inputs = ch_n.num_states, ch_n.num_inputs
    if aux_size is None:
        aux_size = default_aux_size(ch.num_states, ch.num_inputs, n)
    if aux_size < 1:
        raise PreconditionViolated("aux_size", aux_size, ">= 1")

    causal = causal_capacity(ch)
    q_rows = np.tile(causal.q, (ch.num_states, 1))
    strat = np.asarray(causal.strategy.columns, dtype=np.int64).T
    starts = [product_witness(q_rows, strat, ch.num_inputs, n=n)]
    for q_seed, strat_seed in seed_witnesses:
        starts.append((np.asarray(q_seed, dtype=float), np.asarray(strat_seed, dtype=np.int64)))
    num_random = max(restarts - len(starts), 1)
    for r in range(num_random):
        rng = rng_for(seed, n, r)
        q0 = rng.dirichlet(np.ones(aux_size), size=num_states)
        strat0 = rng.integers(0, num_inputs, size=(num_states, aux_size))
        starts.append((q0, strat0))

    results = [_alternate(p, tensor, q0, strat0, num_inputs, max_rounds) for q0, strat0 in starts]
    values = [res[2] for res in results]
    best_idx = int(np.argmax(values))  # the first maximum, so ties keep the smallest index
    q_best, strat_best = results[best_idx][:2]
    report = _objective(p, tensor, q_best, strat_best)
    return GPWitness(
        n=n,
        value=report.value / n,
        holevo=report.holevo / n,
        leak=report.leak,
        q_given_s=q_best,
        strategy=strat_best,
        aux_size=q_best.shape[1],
        restart_index=best_idx,
        restarts=len(starts),
        restart_values=tuple(v / n for v in values),
        ascent_steps=sum(res[3] for res in results),
        objective_evals=sum(res[4] for res in results),
    )


@dataclass(frozen=True)
class ClassicalGP:
    """Classical state-dependent channel: prior p over states, pmf table w."""

    p: np.ndarray
    w: np.ndarray

    @classmethod
    def from_channel(cls, ch: StateChannel) -> "ClassicalGP":
        emb = classical_embedding(ch)
        if not emb.classical:
            raise GpcqError(
                "channel outputs do not commute; no classical reduction",
                commutator=emb.max_commutator_norm,
            )
        w = np.empty((ch.num_states, ch.num_inputs, ch.dim))
        for i, s in enumerate(ch.state_alphabet):
            for j, x in enumerate(ch.input_alphabet):
                w[i, j] = emb.table[(s, x)]
        return cls(ch.p.probs.copy(), w)


def _classical_objective_batch(p, w, e_map, Q):
    """Objective at a batch of conditional tables Q of shape (B, S, U)."""
    B, num_states, num_u = Q.shape
    joint = p[None, :, None] * Q
    q_u = joint.sum(axis=1)
    wy = w[np.arange(num_states)[None, :], e_map]
    puy = np.einsum("bsu,usy->buy", joint, wy)
    py = puy.sum(axis=1)

    def masked_sum(a, logarg):
        with np.errstate(divide="ignore", invalid="ignore"):
            t = a * np.log2(np.where(a > 0, logarg, 1.0))
        return np.where(a > 0, t, 0.0)

    denom_uy = q_u[:, :, None] * py[:, None, :]
    i_uy = masked_sum(puy, puy / np.where(denom_uy > 0, denom_uy, 1.0)).sum(axis=(1, 2))
    denom_su = p[None, :, None] * q_u[:, None, :]
    i_us = masked_sum(joint, joint / np.where(denom_su > 0, denom_su, 1.0)).sum(axis=(1, 2))
    return i_uy - i_us


def _simplex_grid(k: int, resolution: int) -> np.ndarray:
    pts = np.array(list(compositions(resolution, k)), dtype=float)
    return pts / resolution


def classical_gp_oracle(
    cgp: ClassicalGP,
    aux_size: int = 2,
    grid_step: float = 0.1,
    refine_rounds: int = 10,
    top_seeds: int = 3,
    chunk: int = 65536,
    eval_budget: int = 8_000_000,
) -> float:
    """Grid-plus-refinement maximization of the classical trade-off objective.

    Exhausts deterministic input maps; for each, scans a product grid over
    the per-state auxiliary conditionals and polishes the best few grid
    points with shrinking local grids. The grid resolution shrinks from
    1/grid_step until the total evaluation count fits the budget. The
    objective is not concave, so this is a high-confidence lower bound used
    as a cross-check oracle.
    """
    p, w = cgp.p, cgp.w
    num_states, num_inputs, _ = w.shape
    num_maps = num_inputs ** (aux_size * num_states)
    res = max(2, round(1.0 / grid_step))
    while res > 2:
        count = math.comb(res + aux_size - 1, aux_size - 1) ** num_states * num_maps
        if count <= eval_budget:
            break
        res -= 1
    grid = _simplex_grid(aux_size, res)
    G = grid.shape[0]
    total = G**num_states
    local = _simplex_grid(aux_size, 8)

    best_overall = -math.inf
    for flat_map in range(num_maps):
        digits = np.base_repr(flat_map, base=num_inputs).zfill(aux_size * num_states)
        e_map = np.array([int(c) for c in digits], dtype=np.int64).reshape(aux_size, num_states)

        scored = []
        for start in range(0, total, chunk):
            idx = np.arange(start, min(start + chunk, total))
            Q = np.empty((idx.size, num_states, aux_size))
            rem = idx.copy()
            for s in range(num_states - 1, -1, -1):
                Q[:, s, :] = grid[rem % G]
                rem //= G
            vals = _classical_objective_batch(p, w, e_map, Q)
            order = np.argsort(vals)[-top_seeds:]
            scored.extend((float(vals[i]), Q[i]) for i in order)
        scored.sort(key=lambda t: t[0], reverse=True)

        for base_val, base_q in scored[:top_seeds]:
            cur_val, cur_q = base_val, base_q
            width = 2.0 * grid_step
            for _ in range(refine_rounds):
                cands = []
                for s in range(num_states):
                    mixed = (1 - width) * cur_q[None, s, :] + width * local
                    for row in mixed:
                        c = cur_q.copy()
                        c[s] = row
                        cands.append(c)
                cands = np.stack(cands)
                vals = _classical_objective_batch(p, w, e_map, cands)
                i = int(np.argmax(vals))
                if vals[i] > cur_val:
                    cur_val, cur_q = float(vals[i]), cands[i]
                width *= 0.5
            best_overall = max(best_overall, cur_val)
    return best_overall


def classical_leak_check(q_given_s: np.ndarray, p: np.ndarray) -> float:
    """Leak I(U; S) of a witness, for comparisons against pinched surrogates."""
    joint = p[:, None] * q_given_s
    return mutual_information(joint)


def witness_conditionals_close(q_a: np.ndarray, q_b: np.ndarray, tol: float) -> bool:
    """Row-wise divergence closeness of two witness conditional tables."""
    if q_a.shape != q_b.shape:
        raise ShapeMismatch(f"shapes {q_a.shape} and {q_b.shape} differ")
    worst = max(kl_divergence(a, b) for a, b in zip(q_a, q_b))
    return worst <= tol
