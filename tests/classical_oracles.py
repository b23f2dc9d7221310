"""Classical reference oracles that the quantum solvers are checked against.

classical_embedding reduces a channel whose states pairwise commute to a
classical pmf table, classical_channel_capacity a certified capacity
(Blahut-Arimoto, then Newton on candidate supports),
shannon_strategy_oracle the classical causal capacity over Shannon
strategies, and classical_gp_oracle a grid-plus-refinement search
of the classical non-causal trade-off objective. Only tests call them.
"""

import itertools
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
# classical_channel_capacity's Blahut-Arimoto steps, on the full channel and
# then on each candidate support, and its Newton steps per support.
CLASSICAL_BA_STEPS = 300
NEWTON_MAX_ITER = 50
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


def _divergences(q: np.ndarray, W: np.ndarray, log_w: np.ndarray) -> np.ndarray:
    """D(W_x || qW) in bits for every row x; inf for a row with mass outside the output's support."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = W * (log_w - np.log2(q @ W))
    return np.sum(np.where(W > 0, terms, 0.0), axis=1)


def _value_and_gap(q: np.ndarray, W: np.ndarray, log_w: np.ndarray) -> tuple[float, float]:
    """I(q; W) and the certified gap max_x D(W_x || qW) - I(q; W)."""
    div = _divergences(q, W, log_w)
    value = float(q @ np.where(q > 0, div, 0.0))
    return value, float(div.max()) - value


def _blahut_arimoto(W: np.ndarray, log_w: np.ndarray, steps: int) -> np.ndarray:
    """Input pmf after ``steps`` Blahut-Arimoto steps from the uniform one."""
    q = np.full(W.shape[0], 1.0 / W.shape[0])
    for _ in range(steps):
        div = _divergences(q, W, log_w)
        q = q * np.exp2(div - div.max())
        q /= q.sum()
    return q


def _equalize(q: np.ndarray, W: np.ndarray, log_w: np.ndarray) -> np.ndarray:
    """Newton's method on D(W_a || qW) = C for every row a, with sum(q) = 1 and q > 0.

    dD_a/dq_b = -sum_y W_ay W_by / (qW)_y / ln 2 =: -M_ab, so a step solves
    M dq + C 1 = D, 1.dq = 0. Each step is halved until the spread of the
    divergences shrinks with q positive; the iteration stops where it cannot.
    """
    k = W.shape[0]
    div = _divergences(q, W, log_w)
    spread = float(np.ptp(div))
    for _ in range(NEWTON_MAX_ITER):
        if spread == 0.0:
            break
        jac = np.ones((k + 1, k + 1))
        out = q @ W
        jac[:k, :k] = (W / np.where(out > 0, out, 1.0)) @ W.T / math.log(2)
        jac[k, k] = 0.0
        try:
            step = np.linalg.solve(jac, np.append(div, 0.0))[:k]
        except np.linalg.LinAlgError:
            break
        t = 1.0
        while t > 1e-12:
            cand = q + t * step
            if np.all(cand > 0):
                cand /= cand.sum()
                cand_div = _divergences(cand, W, log_w)
                if np.ptp(cand_div) < spread:
                    break
            t *= 0.5
        else:
            break
        q, div, spread = cand, cand_div, float(np.ptp(cand_div))
    return q


def classical_channel_capacity(W: np.ndarray, tol: float = 1e-9) -> float:
    """Capacity of a discrete memoryless channel, certified to within tol.

    Rows of W are output pmfs per input. For any input pmf q the largest
    divergence max_x D(W_x || qW) bounds the capacity from above (the
    minimax form of capacity; Csiszar-Korner), and I(q; W) bounds it from
    below; the value I(q; W) is returned once they are within tol.
    CLASSICAL_BA_STEPS Blahut-Arimoto steps come first. Some capacity-
    achieving q has at most |Y| rows (a vertex of the optimal set), and on
    its support every D(W_a || qW) equals the capacity, so then every row
    subset A of at most |Y| rows, heaviest Blahut-Arimoto weight first, gets
    CLASSICAL_BA_STEPS steps on W_A and Newton's method on that equalizer;
    the first q whose full-alphabet gap is within tol is returned. This
    reaches the stop where the plain iteration creeps between near-duplicate
    rows. Raises GpcqError, with the best gap, when no subset certifies.
    """
    W = np.asarray(W, dtype=float)
    log_w = np.log2(np.where(W > 0, W, 1.0))
    num_inputs, num_outputs = W.shape
    weights = _blahut_arimoto(W, log_w, CLASSICAL_BA_STEPS)
    value, best_gap = _value_and_gap(weights, W, log_w)
    if best_gap <= tol:
        return value
    subsets = [
        list(rows)
        for size in range(1, min(num_inputs, num_outputs) + 1)
        for rows in itertools.combinations(range(num_inputs), size)
    ]
    subsets.sort(key=lambda rows: -weights[rows].sum())
    for rows in subsets:
        q_rows = _blahut_arimoto(W[rows], log_w[rows], CLASSICAL_BA_STEPS)
        q = np.zeros(num_inputs)
        q[rows] = _equalize(q_rows, W[rows], log_w[rows])
        value, gap = _value_and_gap(q, W, log_w)
        if gap <= tol:
            return value
        best_gap = min(best_gap, gap)
    raise GpcqError(
        f"no support of at most {num_outputs} rows certifies the capacity: best gap {best_gap} above {tol}",
        gap=best_gap,
        supports=len(subsets),
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
