"""Capacity with state known causally at the encoder.

A Shannon strategy maps each state letter to an input letter; averaging the
channel over the state turns it into one derived state per strategy. The
causal capacity is the Holevo maximum over distributions on all |X|^|S|
strategies (Shannon 1958), so one certified maximization over that derived
ensemble computes it. The maximization takes pairwise Frank-Wolfe steps,
and its duality gap certifies the returned value from below. The same solve
over the constant strategies alone gives the state-averaged Holevo value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np

from .channel import StateChannel, derived_states
from .errors import CapExceeded, GpcqError, PreconditionViolated
from .quantum import divergence_profile, von_neumann_entropy

# Largest strategy count |X|^|S| solved for; the only guard against channel
# files whose strategy ensemble would not fit in memory.
STRATEGY_CAP = 2**16
INNER_EPS = 1e-6
INNER_MAX_ITER = 10**5


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
    """Certified maximizer of Holevo information over the weight simplex."""

    value: float
    gap: float
    q: np.ndarray
    iterations: int
    converged: bool


def _stats(weights: np.ndarray, states: np.ndarray, entropies: np.ndarray):
    """Holevo value and per-letter divergences D(rho_u || rho_bar) at q."""
    rho_bar = np.einsum("u,uij->ij", weights, states)
    s_bar, divergences = divergence_profile(states, rho_bar, entropies)
    return s_bar - float(weights @ entropies), divergences


def inner_maximize(states: np.ndarray, eps: float = INNER_EPS) -> InnerSolution:
    """Maximize Holevo information over weights by pairwise Frank-Wolfe steps.

    Each step moves weight from the used letter of smallest divergence
    D(rho_u || rho_bar) to the letter of largest, as far as the slope along
    that pair stays positive, and is kept only if the value rises; the solve
    stops when no step does. The returned gap bounds the distance to the
    optimum: for any weights q, max_u D(rho_u || rho_bar(q)) is an upper bound
    on the optimal value, so value + gap >= optimum regardless of convergence.
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
        return InnerSolution(0.0, 0.0, np.ones(1), 0, True)

    def shifted(gamma):
        # The current iterate q with weight gamma moved from away to toward.
        point = q.copy()
        point[toward] += gamma
        point[away] -= gamma
        point = np.clip(point, 0.0, None)
        return point / point.sum()

    def slope(gamma):
        # A letter the step empties can leave the support of rho_bar: its
        # infinite divergence then makes the slope -inf, and the bisection
        # must shrink the step. Opposite infinities give no slope; shrink too.
        _, div = _stats(shifted(gamma), states, entropies)
        total = float(div[toward] - div[away])
        return -math.inf if math.isnan(total) else total

    q = np.full(num, 1.0 / num)
    chi, div = _stats(q, states, entropies)
    it = 0
    for it in range(1, INNER_MAX_ITER + 1):
        gap = float(np.max(div) - chi)
        if math.isnan(gap):
            raise GpcqError("inner solve produced a NaN duality gap", iteration=it)
        if gap <= eps:
            return InnerSolution(chi, max(gap, 0.0), q, it, True)

        toward = int(np.argmax(div))
        active = np.where(q > 1e-15)[0]
        away = int(active[np.argmin(div[active])])
        gamma = float(q[away])
        if slope(gamma) < 0:
            lo, hi = 0.0, gamma
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if slope(mid) > 0:
                    lo = mid
                else:
                    hi = mid
            gamma = 0.5 * (lo + hi)
        cand = shifted(gamma)
        cand_chi, cand_div = _stats(cand, states, entropies)
        if not cand_chi > chi:
            break
        q, chi, div = cand, cand_chi, cand_div

    gap = float(np.max(div) - chi)
    if not math.isfinite(gap):
        raise GpcqError(f"inner solve ended with a non-finite duality gap after {it} iterations")
    return InnerSolution(chi, max(gap, 0.0), q, it, gap <= eps)


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
