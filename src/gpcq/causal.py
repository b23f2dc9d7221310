"""Capacity with state known causally at the encoder.

A Shannon strategy maps each state letter to an input letter; averaging the
channel over the state turns it into one derived state per strategy. The
causal capacity is the Holevo maximum over distributions on all |X|^|S|
strategies (Shannon 1958), so one certified maximization over that derived
ensemble computes it. The maximization takes pairwise Frank-Wolfe steps,
and its duality gap certifies the returned value from below. Each step's
length is a safeguarded Newton search on the slope along the pair: the
slope's derivative is the divided difference of the logarithm in rho_bar's
eigenbasis, so the eigh that gives a point's slope gives its derivative too,
and the search bisects its bracket where rho_bar loses support. Solves count
their eigendecompositions. The same solve over the constant strategies alone
gives the state-averaged Holevo value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np

from .channel import StateChannel, derived_states
from .errors import CapExceeded, GpcqError, PreconditionViolated
from .quantum import TAU_SUPP, divergence_profile, von_neumann_entropy

# Largest strategy count |X|^|S| solved for; the only guard against channel
# files whose strategy ensemble would not fit in memory.
STRATEGY_CAP = 2**16
INNER_EPS = 1e-6
INNER_MAX_ITER = 10**5
# Most points one step-length search evaluates: 60 halvings narrow any
# bracket in [0, 1] to below 1e-18.
LINE_MAX_EVALS = 60


@dataclass(frozen=True)
class Strategy:
    """Deterministic input choice per (state, auxiliary letter).

    columns[u][s] is the input index used when the state is s and the
    auxiliary letter is u, so each column is one Shannon strategy. Columns
    are kept in the lexicographic order of ``itertools.product``.
    """

    columns: tuple[tuple[int, ...], ...]


def strategy_columns(num_states: int, num_inputs: int) -> np.ndarray:
    """All |X|^|S| Shannon strategies as rows of input indices, in lexicographic order.

    Raises CapExceeded before allocating when the count exceeds STRATEGY_CAP.
    """
    count = num_inputs**num_states
    if count > STRATEGY_CAP:
        raise CapExceeded(
            f"{count} strategies exceed cap {STRATEGY_CAP}", count=count, cap=STRATEGY_CAP
        )
    return np.array(list(iproduct(range(num_inputs), repeat=num_states)), dtype=np.int64)


def _as_strategy(columns: np.ndarray) -> Strategy:
    return Strategy(tuple(map(tuple, columns.tolist())))


@dataclass(frozen=True)
class InnerSolution:
    """Certified maximizer of Holevo information over the weight simplex.

    ``decompositions`` counts eigendecompositions: one per letter for the
    states' entropies and one per eigh of rho_bar, at the uniform start, at
    each step's candidate and at each point the step-length search
    evaluates, the full step q[away] included.
    """

    value: float
    gap: float
    q: np.ndarray
    iterations: int
    converged: bool
    decompositions: int


def _stats(weights: np.ndarray, states: np.ndarray, entropies: np.ndarray):
    """Holevo value, per-letter divergences D(rho_u || rho_bar) and rho_bar's eigh at q."""
    eig = np.linalg.eigh(np.einsum("u,uij->ij", weights, states))
    s_bar, divergences = divergence_profile(states, eig, entropies)
    return s_bar - float(weights @ entropies), divergences, eig


def _shifted(q: np.ndarray, toward: int, away: int, gamma: float) -> np.ndarray:
    """q with weight gamma moved from away to toward."""
    point = q.copy()
    point[toward] += gamma
    point[away] -= gamma
    point = np.clip(point, 0.0, None)
    return point / point.sum()


def _slope_derivative(eig, delta: np.ndarray) -> float:
    """Derivative of the slope along delta = rho_toward - rho_away, from rho_bar's eigh.

    -(1/ln 2) sum_ij |Delta_ij|^2 f[l_i, l_j] over the support of rho_bar,
    with Delta delta in rho_bar's eigenbasis and f[a, b] = (ln a - ln b)/(a - b),
    f[a, a] = 1/a, the divided difference of the logarithm (Bhatia, Matrix
    Analysis, Ch. V).
    """
    vals, vecs = eig
    keep = vals > TAU_SUPP
    vals, vecs = vals[keep], vecs[:, keep]
    low, diff = np.minimum.outer(vals, vals), np.abs(np.subtract.outer(vals, vals))
    divided = np.divide(np.log1p(diff / low), diff, out=1.0 / low, where=diff > 0)
    rotated = vecs.conj().T @ delta @ vecs
    return -float(np.sum((rotated.real**2 + rotated.imag**2) * divided)) / math.log(2)


def _step_length(q, toward, away, states, entropies, div, eig) -> tuple[float, int]:
    """Length of the pairwise step from q, and the decompositions spent finding it.

    The search inner_maximize describes, on the slope s(g) = D(rho_toward ||
    rho_bar) - D(rho_away || rho_bar) at q + g (e_toward - e_away). Its first
    point is g = 0, where the iterate's div and eig give s and s'. It returns
    the last Newton point, not a bracket midpoint.
    """

    def slope(gamma):
        # A letter the step empties can leave the support of rho_bar: its
        # infinite divergence then makes the slope -inf, and the search
        # must shrink the step. Opposite infinities give no slope; shrink too.
        _, d, e = _stats(_shifted(q, toward, away, gamma), states, entropies)
        total = float(d[toward] - d[away])
        return -math.inf if math.isnan(total) else total, e

    lo, hi = 0.0, float(q[away])
    if slope(hi)[0] >= 0:
        return hi, 1
    delta = states[toward] - states[away]
    point, s, evals = 0.0, float(div[toward] - div[away]), 1
    for _ in range(LINE_MAX_EVALS):
        derivative = _slope_derivative(eig, delta)
        new = point - s / derivative if -math.inf < derivative < 0 else math.nan
        if abs(new - point) <= 4 * math.ulp(point):
            break
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
            if hi - lo <= 4 * math.ulp(hi):
                break
        point = new
        s, eig = slope(point)
        evals += 1
        if s > 0:
            lo = point
        else:
            hi = point
    return new, evals


def inner_maximize(states: np.ndarray, eps: float = INNER_EPS) -> InnerSolution:
    """Maximize Holevo information over weights by pairwise Frank-Wolfe steps.

    Each step moves weight from the used letter of smallest divergence
    D(rho_u || rho_bar) to the letter of largest, as far as the slope along
    that pair stays positive, and is kept only if the value rises; the solve
    stops when no step does. The full step q[away] is taken when the slope
    is still nonnegative there. Otherwise Newton steps on the slope, its
    derivative from _slope_derivative, run inside the bracket [0, q[away]]
    that the slope's sign narrows; a step that leaves the bracket, or a
    derivative that is not finite and negative (rho_bar losing support),
    falls back to the midpoint. The search stops when its step or its
    bracket is a few ulps. Each point it tries costs one eigh of rho_bar,
    which gives the slope and its derivative; ``decompositions`` counts
    these as InnerSolution says. The returned gap bounds the distance to the
    optimum: for any weights q, max_u D(rho_u || rho_bar(q)) is an upper
    bound on the optimal value, so value + gap >= optimum regardless of
    convergence.
    ``iterations`` counts the iterations actually run, also when a solve
    stalls before INNER_MAX_ITER. Non-finite states, a NaN gap, or a final gap
    that is not finite raise GpcqError; an infinite gap mid-solve is an honest
    bound and the ascent goes on. An eps below 0, which no gap can meet,
    raises PreconditionViolated; eps = 0 is allowed.
    """
    if not eps >= 0:
        raise PreconditionViolated("eps", eps, ">= 0")
    states = np.asarray(states, dtype=complex)
    if not np.all(np.isfinite(states)):
        raise GpcqError("ensemble states have non-finite entries")
    num = states.shape[0]
    entropies = von_neumann_entropy(states)
    if num == 1:
        return InnerSolution(0.0, 0.0, np.ones(1), 0, True, 1)

    q = np.full(num, 1.0 / num)
    chi, div, eig = _stats(q, states, entropies)
    decompositions = num + 1
    it = 0
    for it in range(1, INNER_MAX_ITER + 1):
        gap = float(np.max(div) - chi)
        if math.isnan(gap):
            raise GpcqError("inner solve produced a NaN duality gap", iteration=it)
        if gap <= eps:
            return InnerSolution(chi, max(gap, 0.0), q, it, True, decompositions)

        toward = int(np.argmax(div))
        active = np.where(q > 1e-15)[0]
        away = int(active[np.argmin(div[active])])
        gamma, evals = _step_length(q, toward, away, states, entropies, div, eig)
        cand = _shifted(q, toward, away, gamma)
        cand_chi, cand_div, cand_eig = _stats(cand, states, entropies)
        decompositions += evals + 1
        if not cand_chi > chi:
            break
        q, chi, div, eig = cand, cand_chi, cand_div, cand_eig

    gap = float(np.max(div) - chi)
    if not math.isfinite(gap):
        raise GpcqError(f"inner solve ended with a non-finite duality gap after {it} iterations")
    return InnerSolution(chi, max(gap, 0.0), q, it, gap <= eps, decompositions)


@dataclass(frozen=True)
class CausalSolution:
    """Certified causal capacity with its optimal strategy support.

    ``strategy`` and ``q`` hold only the strategies with positive weight, so
    ``aux_size`` is the support size; ``strategies_searched`` is |X|^|S|.
    """

    value: float
    gap: float
    aux_size: int
    q: np.ndarray
    strategy: Strategy
    strategies_searched: int
    iterations: int
    converged: bool
    decompositions: int  # the inner solve's, as InnerSolution counts them


def causal_capacity(
    ch: StateChannel,
    eps: float = INNER_EPS,
) -> CausalSolution:
    """Message capacity with causal state knowledge at the encoder.

    Runs one certified inner maximization over the derived states of all
    |X|^|S| Shannon strategies and keeps the strategies with positive weight;
    dropping zero weights leaves the value and the gap unchanged.
    """
    columns = strategy_columns(ch.num_states, ch.num_inputs)
    strategy = columns.T
    states = derived_states(ch.p, ch.tensor, np.ones(strategy.shape), strategy)
    sol = inner_maximize(states, eps=eps)
    support = sol.q > 0
    return CausalSolution(
        value=sol.value,
        gap=sol.gap,
        aux_size=int(support.sum()),
        q=sol.q[support],
        strategy=_as_strategy(columns[support]),
        strategies_searched=len(columns),
        iterations=sol.iterations,
        converged=sol.converged,
        decompositions=sol.decompositions,
    )


def state_averaged_holevo(ch: StateChannel, eps: float = INNER_EPS) -> InnerSolution:
    """Holevo capacity of the state-averaged channel, the rate without state knowledge.

    Input x gives the state sum_s p(s) rho[s, x]: the derived state of the
    constant strategy x, which is one of the Shannon strategies the causal
    solve weighs, so the causal capacity is never below this value.
    """
    constant = np.tile(np.arange(ch.num_inputs), (ch.num_states, 1))
    states = derived_states(ch.p, ch.tensor, np.ones(constant.shape), constant)
    return inner_maximize(states, eps=eps)
