"""Finite-blocklength lower bounds with non-causal state knowledge.

The n-letter objective trades the Holevo information of the auxiliary
ensemble against the classical information leaked about the state block.
Only certified-from-below values are reported: the objective is evaluated
exactly at explicit witnesses and improved by alternating a closed-form
multiplicative step on the auxiliary conditionals (a Blahut-Arimoto-style
update that never lowers the objective) with greedy strategy sweeps.
Concavity is unknown, so restarts plus structured seeds stand in for a
global solve. The informed-decoder bound caps every blocklength's value
from above, and the restarts stop once a start reaches it.

Every candidate is scored from scratch, in the same operation order as a
full evaluation, so the search's values and witnesses do not depend on how
candidates are batched. A sweep cell (s, u) changes only A_u and rho_bar,
so all inputs of a cell are scored from one eigvalsh of their candidate
A_u and rho_bar. The ascent gathers the strategy's letter states once, and
one eigh of a candidate's [A_u; rho_bar] stack gives both its score and,
once it is accepted, the logarithms of the next step; so an ascent makes
one decomposition per scored candidate plus one for its start.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .causal import InnerSolution, causal_capacity, inner_maximize
from .channel import (
    StateChannel,
    derived_states,
    letter_states,
    memory_budget_bytes,
    product_extension,
)
from .errors import BudgetExceeded, GpcqError, NonFinite, PreconditionViolated, ShapeMismatch
from .quantum import entropy_bits
from .util import rng_for

ALT_EPS = 1e-7
ASCENT_ITERS = 200
DEFAULT_AUX_CAP = 16
# The ascent step takes logs of the eigenvalues of the derived states; they
# are floored so singular states give finite (large) weights. Steps are kept
# only if they raise the exact objective, so the floor shapes the step, not
# the values.
EIG_FLOOR = 1e-12
TRIM_TOL = 1e-6  # trim_witness's weight and proportionality tolerance



def default_aux_size(num_states: int, num_inputs: int, n: int) -> int:
    if n == 1:
        return num_states * (num_inputs + 1)
    return min((2 * num_states * num_inputs) ** n, DEFAULT_AUX_CAP)


@dataclass(frozen=True)
class GPObjectiveReport:
    value: float
    holevo: float
    leak: float


def _derived(w: np.ndarray, letters: np.ndarray) -> np.ndarray:
    """A_u = sum_s w(s,u) letters[s,u], derived_states' einsum on letter states gathered once."""
    return np.einsum("su,suij->uij", w, letters)


def _stack(A: np.ndarray) -> np.ndarray:
    """The stack [A_u; rho_bar] with rho_bar = sum_u A_u last, the one input of every decomposition."""
    return np.concatenate([A, A.sum(axis=0, keepdims=True)])


def _objective(p: np.ndarray, tensor: np.ndarray, q_given_s: np.ndarray, strategy: np.ndarray) -> GPObjectiveReport:
    """Unscaled objective chi - leak for one block channel."""
    return _score(p, q_given_s, np.linalg.eigvalsh(_stack(derived_states(p, tensor, q_given_s, strategy))))


def _entropy_and_leak(p: np.ndarray, q_given_s: np.ndarray) -> tuple[float, float]:
    """H(q) and the leak I(S; U) = D(w || p (x) q) of the joint w(s,u) = p(s) q(u|s), in bits.

    The leak is taken against the prior p rather than the row sums of w:
    those differ from p in the last bit, and restarts on a flat optimum tie
    at that level. kl_divergence would give +inf off the support of p (x) q,
    but w(s,u) > 0 implies p(s) q(u) > 0, so every term with w(s,u) > 0 is
    finite (+inf only if p(s) q(u) underflows, as there); terms with
    w(s,u) = 0 are 0, so no mask or gather is needed.
    """
    w = p[:, None] * q_given_s
    q_u = w.sum(axis=0)
    off = w == 0
    terms = w * (np.log2(w + off) - np.log2(p[:, None] * q_u + off))
    return float(entropy_bits(q_u)), float(np.add.reduce(terms.ravel()))


def _score(p: np.ndarray, q_given_s: np.ndarray, vals: np.ndarray) -> GPObjectiveReport:
    """The objective of a witness from the spectra of its stack [A_u; rho_bar], rho_bar last.

    omega = sum_u |u><u| (x) A_u has the spectra of all the A_u = q(u) rho_u,
    so chi = S(rho_bar) - S(omega) + H(q). The spectra may come from eigvalsh
    or eigh, which are different LAPACK drivers and agree only to the last bits.
    """
    entropy_q, leak = _entropy_and_leak(p, q_given_s)
    chi = float(entropy_bits(vals[-1]) - entropy_bits(vals[:-1].ravel()) + entropy_q)
    return GPObjectiveReport(chi - leak, chi, leak)


def _check_witness(ch: StateChannel, q_given_s, strategy) -> tuple[np.ndarray, np.ndarray]:
    """A witness as (conditionals, strategy) arrays, checked against an (already extended) channel.

    Both tables are (states, aux); conditional rows are finite pmfs and
    strategy entries are integer input indices.
    """
    q_given_s = np.asarray(q_given_s, dtype=float)
    table = np.asarray(strategy, dtype=float)
    if q_given_s.ndim != 2 or q_given_s.shape != table.shape or q_given_s.shape[0] != ch.num_states:
        raise ShapeMismatch(
            f"witness shapes {q_given_s.shape}/{table.shape} do not match channel with {ch.num_states} states"
        )
    if not np.all(np.isfinite(q_given_s)):
        raise NonFinite("conditional entries must be finite")
    if np.any(q_given_s < 0):
        raise GpcqError("conditional entries must be non-negative")
    if np.any(np.abs(q_given_s.sum(axis=1) - 1.0) > 1e-8):
        raise GpcqError("conditional rows must sum to 1")
    if not np.all(np.isfinite(table)):
        raise NonFinite("strategy entries must be finite")
    if np.any(table != np.rint(table)):
        raise GpcqError("strategy entries must be integers")
    if np.any((table < 0) | (table >= ch.num_inputs)):
        raise GpcqError("strategy entries out of input range")
    return q_given_s, table.astype(np.int64)


def gp_objective(ch: StateChannel, q_given_s: np.ndarray, strategy: np.ndarray, n: int = 1) -> GPObjectiveReport:
    """Per-symbol objective of a witness on an (already extended) channel."""
    q_given_s, strategy = _check_witness(ch, q_given_s, strategy)
    rep = _objective(ch.p, ch.tensor, q_given_s, strategy)
    return GPObjectiveReport(rep.value / n, rep.holevo / n, rep.leak)


def _cross_term(letters: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """c(s,u) = tr rho_{s,x(s,u)}(log A_u - log rho_bar), in bits.

    letters are the strategy's letter states and (vals, vecs) the eigh of
    the witness's _stack of derived states A_u and rho_bar. With
    f = S(rho_bar) + sum_u tr A_u log A_u + sum_s p(s) H(q(.|s)) the partial
    derivative in q(u|s) is p(s)[c(s,u) - log q(u|s)] up to a per-row
    constant. The decomposition is the one that scored the witness, so the
    cross term makes none of its own.
    """
    num_u = letters.shape[1]
    logs = (vecs * np.log2(np.maximum(vals, EIG_FLOOR))[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
    return np.einsum("suij,uji->su", letters, logs[:num_u] - logs[num_u]).real


def _q_step(letters: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """One multiplicative step from the eigh of a witness's _stack: q(u|s) proportional to 2^c(s,u) in every row.

    Let G(q; q') = sum_s p(s) sum_u q(u|s)[c'(s,u) - log q(u|s)] with c' taken
    at q'. Then G(q'; q') = f(q') and, with omega = sum_u |u><u| (x) A_u,
    f(q) - G(q; q') = D(omega||omega') - D(rho_bar||rho_bar') >= 0 by data
    processing under the partial trace over U. The step maximises G(.; q')
    row by row, so it never lowers f and stays inside the simplex.
    """
    c = _cross_term(letters, vals, vecs)
    step = np.exp2(c - c.max(axis=1, keepdims=True))
    return step / step.sum(axis=1, keepdims=True)


def _ascend_q(p, tensor, q, strategy, cur):
    """_q_step from q (objective cur) while the exact objective rises; returns (q, f, steps, evals).

    The letter states are gathered once. Each candidate is scored from the
    eigenvalues of one eigh of its _stack, and an accepted candidate's
    decomposition is the next step's, so a call makes evals + 1 of them:
    the start's and one per scored candidate. That is steps + 2 when a
    rejected candidate ends the ascent before ASCENT_ITERS.
    """
    letters = letter_states(tensor, strategy)
    vals, vecs = np.linalg.eigh(_stack(_derived(p[:, None] * q, letters)))
    steps = evals = 0
    for _ in range(ASCENT_ITERS):
        cand = _q_step(letters, vals, vecs)
        cand_vals, cand_vecs = np.linalg.eigh(_stack(_derived(p[:, None] * cand, letters)))
        val = _score(p, cand, cand_vals).value
        evals += 1
        if not val > cur:
            break
        q, vals, vecs, cur, steps = cand, cand_vals, cand_vecs, val, steps + 1
    return q, cur, steps, evals


def _sweep_strategy(p, tensor, q, strategy, num_inputs: int):
    """One greedy pass over the cells (s, u) in order; returns (strategy, value).

    The pass starts from the witness's exact objective, scored from one
    eigvalsh of its [A_u; rho_bar] stack. A cell's inputs change only A_u
    and rho_bar, so a cell scores all of them at once: one einsum gives the
    candidate A_u (column u's letter state at s replaced by each input's),
    each candidate rho_bar sums A with row u replaced, and one eigvalsh over
    those 2|X| states gives every S(rho_bar) and, with row u of the current
    omega spectrum replaced, every S(omega). H(q) and the leak do not move
    with the strategy and are computed once. Taking the inputs in order, an
    input replaces the best so far only if it scores more than 1e-12 higher.
    A pass makes 1 + |S||U| decompositions.
    """
    strategy = strategy.copy()
    num_states, num_u = strategy.shape
    w = p[:, None] * q
    entropy_q, leak = _entropy_and_leak(p, q)
    letters = letter_states(tensor, strategy)
    A = _derived(w, letters)
    stack_vals = np.linalg.eigvalsh(_stack(A))
    cur = _score(p, q, stack_vals).value
    spectra = stack_vals[:-1]
    for s in range(num_states):
        for u in range(num_u):
            cand_letters = np.repeat(letters[:, u : u + 1], num_inputs, axis=1)
            cand_letters[s] = tensor[s]
            cand_A = _derived(np.repeat(w[:, u : u + 1], num_inputs, axis=1), cand_letters)
            stack = np.repeat(A[None], num_inputs, axis=0)
            stack[:, u] = cand_A
            vals = np.linalg.eigvalsh(np.concatenate([cand_A, stack.sum(axis=1)]))
            omega = np.repeat(spectra[None], num_inputs, axis=0)
            omega[:, u] = vals[:num_inputs]
            chi = entropy_bits(vals[num_inputs:]) - entropy_bits(omega.reshape(num_inputs, -1)) + entropy_q
            current = best_x = int(strategy[s, u])
            for x, val in enumerate((chi - leak).tolist()):
                if x != current and val > cur + 1e-12:
                    best_x, cur = x, val
            if best_x != current:
                strategy[s, u] = best_x
                letters[s, u] = tensor[s, best_x]
                A[u] = cand_A[best_x]
                spectra[u] = vals[best_x]
    return strategy, cur


def _alternate(p, tensor, q, strategy, num_inputs, max_rounds):
    """Returns (q, strategy, value, accepted ascent steps, candidate scorings, rounds run, decompositions).

    A round alternates an ascent and a sweep; the ascent's own value decides
    only which of its steps to keep, and the sweep rescores its result, so
    the value returned is always the returned witness's _objective (an
    ascent step that gains less than the eigh/eigvalsh difference may
    leave it a few ulps below the round's start).
    Decompositions are the eigvalsh and eigh calls: one for the first
    witness, evals + 1 per ascent and 1 + |S||U| per sweep.
    """
    val = _objective(p, tensor, q, strategy).value
    steps, evals, rounds, decompositions = 0, 1, 0, 1
    for _ in range(max_rounds):
        q, _, round_steps, round_evals = _ascend_q(p, tensor, q, strategy, val)
        strategy, new_val = _sweep_strategy(p, tensor, q, strategy, num_inputs)
        # A sweep counts as the scoring of its starting witness plus one per alternative input of each cell.
        rounds += 1
        steps += round_steps
        evals += round_evals + 1 + strategy.size * (num_inputs - 1)
        decompositions += (round_evals + 1) + (1 + strategy.size)
        converged = new_val <= val + ALT_EPS
        val = new_val
        if converged:
            break
    return q, strategy, val, steps, evals, rounds, decompositions


def trim_witness(q_given_s: np.ndarray, strategy: np.ndarray):
    """Drop auxiliary letters with no weight above TRIM_TOL and merge duplicates.

    Letters with the same strategy column and proportional conditional
    weights produce identical derived states and posteriors, so summing
    their weights preserves the objective exactly while shrinking the
    alphabet (solvers often split one optimal letter across several).
    """
    active = np.where(q_given_s.max(axis=0) > TRIM_TOL)[0]
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
            if np.max(np.abs(cross - cross.T)) <= TRIM_TOL:
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
class GPUpperBound:
    """Informed-decoder bound on the per-symbol non-causal rate; value + gap is certified from above."""

    value: float
    gap: float
    per_state: tuple[InnerSolution, ...]  # the Holevo solve of each state's channel, in state order


def noncausal_upper_bound(ch: StateChannel) -> GPUpperBound:
    """The capacity with the state known at both ends, sum_s p(s) C_chi(rho_{s,.}).

    Telling the decoder the state word can only help (Gel'fand-Pinsker 1980;
    El Gamal-Kim, Network Information Theory, Ch. 7). Per block,
    chi(U;B^n) - I(U;S^n) <= I(U;B^n S^n) - I(U;S^n) = I(U;B^n|S^n)
    <= I(X^n;B^n|S^n) <= n sum_s p(s) C_chi(rho_{s,.}), so this single-letter
    number bounds the per-symbol objective at every blocklength. Each state
    takes one certified inner_maximize; the p-weighted sum of their values
    and gaps is returned, and value + gap bounds the optimum from above.
    """
    per_state = tuple(inner_maximize(ch.tensor[s]) for s in range(ch.num_states))
    value = float(ch.p @ np.array([sol.value for sol in per_state]))
    gap = float(ch.p @ np.array([sol.gap for sol in per_state]))
    return GPUpperBound(value, gap, per_state)


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
    # Candidate scorings, summed over starts: the first witness, every q-step
    # tried, and per sweep its starting witness and each alternative input of each cell.
    objective_evals: int
    rounds: int  # alternating rounds (ascent, then sweep) run, summed over starts
    # eigvalsh and eigh calls of the starts' searches, summed over starts: per start
    # one for the first witness, per ascent one per scored candidate plus one for
    # its start, and per sweep one for its starting witness plus one per cell.
    decompositions: int
    upper: float  # noncausal_upper_bound's value, per symbol
    upper_gap: float  # its gap: upper + upper_gap is certified from above
    leak_per_symbol: float  # leak / n
    # The bracket is closed: the value is within ALT_EPS of the certified upper bound.
    certified_optimal: bool


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
    Explicit witnesses follow, each run at its own auxiliary size and checked
    against the blocklength-n channel as gp_objective checks; these always
    run, and random starts fill up to ``restarts`` starts, possibly none,
    each drawn from its own generator only when the search reaches it.
    Ties keep the smallest restart index. The starts run in that order and
    stop after the first whose per-symbol value is within ALT_EPS of
    noncausal_upper_bound's certified value, so ``restarts`` is a maximum
    (unless explicit witnesses pass it) and the witness reports the starts
    that ran.
    An n, restarts or aux_size below 1 raises PreconditionViolated, and an
    aux_size whose per-start arrays exceed memory_budget_bytes() raises
    BudgetExceeded before any start runs.
    """
    if n < 1:
        raise PreconditionViolated("n", n, ">= 1")
    if restarts < 1:
        raise PreconditionViolated("restarts", restarts, ">= 1")
    ch_n = ch if n == 1 else product_extension(ch, n)
    p = ch_n.p
    tensor = ch_n.tensor
    num_states, num_inputs = ch_n.num_states, ch_n.num_inputs
    if aux_size is None:
        aux_size = default_aux_size(ch.num_states, ch.num_inputs, n)
    if aux_size < 1:
        raise PreconditionViolated("aux_size", aux_size, ">= 1")

    # What a start holds at its peak: the |S| aux letter states (complex dim x dim) with the larger of the
    # ascent's four (aux + 1)-stacks (eigh vectors; in the cross term the scaled vectors, their conjugate and
    # product) and a sweep cell's A, its |S||X| + |X| candidate letter states and A_u, and two |X|-fold stacks
    # of A (the last cell's is freed once the next is built); the cell's |X| aux dim omega spectra, six (|S|, aux)
    # witness tables and the (aux + 1) dim stack spectra; the block channel and 16 KiB that do not grow with aux.
    sweep = (1 + 2 * num_inputs) * aux_size + (num_states + 1) * num_inputs
    matrices = num_states * (aux_size + num_inputs) + max(4 * (aux_size + 1), sweep)
    floats = (num_inputs * ch_n.dim + 6 * num_states) * aux_size + (aux_size + 1) * ch_n.dim
    start_bytes = 16 * ch_n.dim**2 * matrices + 8 * floats + 2**14
    budget = memory_budget_bytes()
    if start_bytes > budget:
        raise BudgetExceeded(
            f"aux_size {aux_size} needs {start_bytes} bytes per start, budget is {budget}", start_bytes=start_bytes
        )

    causal = causal_capacity(ch)
    q_rows = np.tile(causal.q, (ch.num_states, 1))
    strat = np.asarray(causal.strategy.columns, dtype=np.int64).T
    starts = [product_witness(q_rows, strat, ch.num_inputs, n=n)]
    starts += [_check_witness(ch_n, q_seed, strat_seed) for q_seed, strat_seed in seed_witnesses]

    def random_starts():
        for r in range(restarts - len(starts)):
            rng = rng_for(seed, n, r)
            q0 = rng.dirichlet(np.ones(aux_size), size=num_states)
            yield q0, rng.integers(0, num_inputs, size=(num_states, aux_size))

    upper = noncausal_upper_bound(ch)
    results = []
    for q0, strat0 in itertools.chain(starts, random_starts()):
        results.append(_alternate(p, tensor, q0, strat0, num_inputs, max_rounds))
        if results[-1][2] / n >= upper.value + upper.gap - ALT_EPS:
            break
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
        restarts=len(results),
        restart_values=tuple(v / n for v in values),
        ascent_steps=sum(res[3] for res in results),
        objective_evals=sum(res[4] for res in results),
        rounds=sum(res[5] for res in results),
        decompositions=sum(res[6] for res in results),
        upper=upper.value,
        upper_gap=upper.gap,
        leak_per_symbol=report.leak / n,
        certified_optimal=report.value / n >= upper.value + upper.gap - ALT_EPS,
    )
