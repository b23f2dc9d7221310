"""Classical reference oracles that the quantum solvers are checked against.

classical_embedding reduces a channel whose states pairwise commute to a
classical pmf table, classical_channel_capacity is certified
Blahut-Arimoto, shannon_strategy_oracle the classical causal capacity over
Shannon strategies, and classical_gp_oracle a grid-plus-refinement search
of the classical non-causal trade-off objective. Only tests call them.
"""

import math
from dataclasses import dataclass

import numpy as np

from gpcq.causal import strategy_columns
from gpcq.channel import StateChannel
from gpcq.errors import GpcqError
from gpcq.quantum import pinch
from gpcq.util import compositions

# classical_embedding reduces a channel only when no two of its states have a
# commutator above TAU_COMM in spectral norm.
TAU_COMM = 1e-9
# Blahut-Arimoto iterations allowed before classical_channel_capacity gives
# up on reaching its certified stop.
CLASSICAL_MAX_ITER = 10**6
# classical_gp_oracle polishes the best ORACLE_TOP_SEEDS grid points of each
# input map, scoring the grid ORACLE_CHUNK points at a time.
ORACLE_TOP_SEEDS = 3
ORACLE_CHUNK = 65536


def classical_embedding(ch: StateChannel) -> tuple[np.ndarray | None, float]:
    """Classical reduction w(y | s, x) of a channel whose states pairwise commute.

    Returns (w, worst): ``worst`` is the largest commutator of two channel
    states in spectral norm, and ``w`` is None when it is above TAU_COMM.
    Otherwise ``w`` is the (|S|, |X|, dim) array of every state pinched in
    one shared orthonormal eigenbasis, in which each state is diagonal.
    """
    mats = ch.tensor.reshape(-1, ch.dim, ch.dim)
    comm = mats[:, None] @ mats[None, :] - mats[None, :] @ mats[:, None]
    worst = float(np.linalg.norm(comm, 2, axis=(-2, -1)).max())
    if worst > TAU_COMM:
        return None, worst
    basis = _common_eigenbasis(mats)
    w = np.stack([pinch(m, basis) for m in mats])
    return w.reshape(ch.num_states, ch.num_inputs, ch.dim), worst


def _common_eigenbasis(mats) -> np.ndarray:
    """Eigenbasis of a deterministic random combination of commuting Hermitians."""
    for attempt in range(8):
        rng = np.random.default_rng(1234 + attempt)
        coeffs = rng.normal(size=len(mats))
        h = sum(c * m for c, m in zip(coeffs, mats))
        h = (h + h.conj().T) / 2.0
        _, basis = np.linalg.eigh(h)
        off = 0.0
        for m in mats:
            rot = basis.conj().T @ m @ basis
            off = max(off, float(np.max(np.abs(rot - np.diag(np.diagonal(rot))))))
        if off <= 1e-7:
            return basis
    raise GpcqError(
        "failed to jointly diagonalize a commuting family (degenerate combination)"
    )


def classical_channel_capacity(W: np.ndarray, tol: float = 1e-9) -> float:
    """Capacity of a discrete memoryless channel by Blahut-Arimoto iteration.

    Rows of W are output pmfs per input. For any input pmf q the largest
    divergence max_x D(W_x || qW) bounds the capacity from above, so the
    iteration stops once that bound is within tol of the mutual information
    I(q; W), which is returned. Raises GpcqError, with the final gap, when
    CLASSICAL_MAX_ITER iterations do not reach that stop.
    """
    W = np.asarray(W, dtype=float)
    log_w = np.log2(np.where(W > 0, W, 1.0))
    q = np.full(W.shape[0], 1.0 / W.shape[0])
    for _ in range(CLASSICAL_MAX_ITER):
        out = q @ W
        div = np.sum(W * (log_w - np.log2(np.where(out > 0, out, 1.0))), axis=1)
        value = float(q @ div)
        gap = float(div.max()) - value
        if gap <= tol:
            return value
        q = q * np.exp2(div - div.max())
        q /= q.sum()
    raise GpcqError(
        f"Blahut-Arimoto gap {gap} still above {tol} after {CLASSICAL_MAX_ITER} iterations",
        gap=gap,
        iterations=CLASSICAL_MAX_ITER,
    )


def shannon_strategy_oracle(w: np.ndarray, p: np.ndarray) -> float:
    """Classical causal capacity via the strategy channel, for cross-checking.

    w has shape (num_states, num_inputs, num_outputs). Each of the |X|^|S|
    strategies is one input letter of a classical channel whose row is the
    state-averaged output pmf; its capacity is the causal capacity.
    """
    w = np.asarray(w, dtype=float)
    p = np.asarray(p, dtype=float)
    num_states, num_inputs, _ = w.shape
    cols = strategy_columns(num_states, num_inputs)
    rows = np.einsum("s,usy->uy", p, w[np.arange(num_states)[None, :], cols])
    return classical_channel_capacity(rows)


@dataclass(frozen=True)
class ClassicalGP:
    """Classical state-dependent channel: prior p over states, pmf table w."""

    p: np.ndarray
    w: np.ndarray

    @classmethod
    def from_channel(cls, ch: StateChannel) -> "ClassicalGP":
        w, worst = classical_embedding(ch)
        if w is None:
            raise GpcqError("channel outputs do not commute; no classical reduction", commutator=worst)
        return cls(ch.p.copy(), w)


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
        for start in range(0, total, ORACLE_CHUNK):
            idx = np.arange(start, min(start + ORACLE_CHUNK, total))
            Q = np.empty((idx.size, num_states, aux_size))
            rem = idx.copy()
            for s in range(num_states - 1, -1, -1):
                Q[:, s, :] = grid[rem % G]
                rem //= G
            vals = _classical_objective_batch(p, w, e_map, Q)
            order = np.argsort(vals)[-ORACLE_TOP_SEEDS:]
            scored.extend((float(vals[i]), Q[i]) for i in order)
        scored.sort(key=lambda t: t[0], reverse=True)

        for base_val, base_q in scored[:ORACLE_TOP_SEEDS]:
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
