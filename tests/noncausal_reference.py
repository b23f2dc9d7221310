"""Reference strategy sweep, q-ascent and alternation that the batched search is checked against.

These are the non-causal search loops the way the package ran them before
it scored a sweep cell's inputs together and carried the ascent's letter
states and decompositions: every sweep candidate is one full exact
objective evaluation, and every q-step rebuilds the derived states from
the witness and decomposes them afresh. An ascent candidate is scored from
the eigenvalues of its own eigh, the decomposition its next step would
use, rather than from eigvalsh; the two LAPACK drivers agree only to the
last bits. The package must reproduce these loops bit for bit.

restarted_search is the n = 1 bound the package computed before its
concave ascent: these loops from the causal witness and random restarts.
"""

import numpy as np

from gpcq.causal import causal_capacity
from gpcq.channel import derived_states, letter_states
from gpcq.noncausal import (
    ALT_EPS,
    ASCENT_ITERS,
    _alternate,
    _objective,
    _q_step,
    _score,
    _stack,
    noncausal_upper_bound,
)
from gpcq.util import rng_for


def stack_eigh(p, tensor, q, strategy):
    """eigh of the witness's stack [A_u; rho_bar], its derived states built afresh."""
    return np.linalg.eigh(_stack(derived_states(p, tensor, q, strategy)))


def ascend_q(p, tensor, q, strategy, cur):
    """_q_step from q (objective cur) while the exact objective rises; returns (q, f, steps, evals)."""
    steps = evals = 0
    for _ in range(ASCENT_ITERS):
        cand = _q_step(letter_states(tensor, strategy), *stack_eigh(p, tensor, q, strategy))
        val = _score(p, p[:, None] * cand, stack_eigh(p, tensor, cand, strategy)[0]).value
        evals += 1
        if not val > cur:
            break
        q, cur, steps = cand, val, steps + 1
    return q, cur, steps, evals


def sweep_strategy(p, tensor, q, strategy, num_inputs: int):
    """One greedy pass over the cells, one objective evaluation per alternative input; returns (strategy, value)."""
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


def alternate(p, tensor, q, strategy, num_inputs, max_rounds):
    """Returns (q, strategy, value, accepted ascent steps, objective evaluations, rounds)."""
    val = _objective(p, tensor, q, strategy).value
    steps, evals, rounds = 0, 1, 0
    for _ in range(max_rounds):
        q, _, round_steps, round_evals = ascend_q(p, tensor, q, strategy, val)
        strategy, new_val = sweep_strategy(p, tensor, q, strategy, num_inputs)
        steps += round_steps
        evals += round_evals + 1 + strategy.size * (num_inputs - 1)
        rounds += 1
        converged = new_val <= val + ALT_EPS
        val = new_val
        if converged:
            break
    return q, strategy, val, steps, evals, rounds


def search(p, tensor, num_inputs, starts, max_rounds, closes):
    """alternate on each start in turn, stopping after the first whose value closes; returns (best index, runs).

    This is the non-causal search the way the package ran it before it
    batched its random starts: one start at a time, each run to its end.
    The best index is the first maximum, so ties keep the smallest index.
    """
    runs = []
    for q, strategy in starts:
        runs.append(alternate(p, tensor, q, strategy, num_inputs, max_rounds))
        if closes(runs[-1][2]):
            break
    return int(np.argmax([run[2] for run in runs])), runs


def restarted_search(ch, restarts: int, seed: int, max_rounds: int = 40) -> float:
    """The n = 1 value of the restarted search: the causal witness, then random starts, until one closes.

    Random start r has |S|(|X| + 1) letters drawn from rng_for(seed, 1, r).
    The starts run through the package's batched _alternate, which the
    tests hold to alternate() above bit for bit, as one batch after the
    causal start; the best value among the starts read is returned.
    """
    causal = causal_capacity(ch)
    upper = noncausal_upper_bound(ch)
    target = upper.value + upper.gap - ALT_EPS
    batches = [(np.tile(causal.q, (ch.num_states, 1))[None], np.asarray(causal.strategy.columns).T[None])]
    if restarts > 1:
        aux = ch.num_states * (ch.num_inputs + 1)
        rngs = [rng_for(seed, 1, r) for r in range(restarts - 1)]
        batches.append((
            np.stack([rng.dirichlet(np.ones(aux), size=ch.num_states) for rng in rngs]),
            np.stack([rng.integers(0, ch.num_inputs, size=(ch.num_states, aux)) for rng in rngs]),
        ))
    values = []
    for q, strategy in batches:
        for _, _, run in _alternate(ch.p, ch.tensor, q, strategy, ch.num_inputs, max_rounds):
            values.append(run.value)
            if run.value >= target:
                return max(values)
    return max(values)
