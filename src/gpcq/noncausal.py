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

Starts run in batches along a leading start axis: one eigh, eigvalsh or
einsum call serves every live start, and a start leaves the live arrays
when its ascent stops rising or its rounds end. Explicit starts run one per
batch; random ones are drawn a batch at a time, as many as
memory_budget_bytes() holds at the per-start count that bounds aux_size.
Results are read in start order and the search stops at the first start
that closes the bracket, discarding the later starts of its batch. A
start's arithmetic and counters are those of running it alone; only the
number of LAPACK calls falls.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

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
from .quantum import entropy_bits, xlogx_bits
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


def _derived(w: np.ndarray, letters: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A_u = sum_s w(s,u) letters[s,u] per start, derived_states' einsum on letter states gathered once."""
    return np.einsum("...su,...suij->...uij", w, letters, out=out)


def _stack(A: np.ndarray) -> np.ndarray:
    """The stack [A_u; rho_bar] with rho_bar = sum_u A_u last, the one input of every decomposition."""
    return np.concatenate([A, np.add.reduce(A, axis=-3, keepdims=True)], axis=-3)


def _objective(p: np.ndarray, tensor: np.ndarray, q_given_s: np.ndarray, strategy: np.ndarray) -> GPObjectiveReport:
    """Unscaled objective chi - leak for one block channel."""
    vals = np.linalg.eigvalsh(_stack(derived_states(p, tensor, q_given_s, strategy)))
    rep = _score(p, p[:, None] * q_given_s, vals)
    return GPObjectiveReport(float(rep.value), float(rep.holevo), float(rep.leak))


def _entropy_and_leak(p: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """H(q) and the leak I(S; U) = D(w || p (x) q) of the joint w(s,u) = p(s) q(u|s), in bits, per start.

    The leak is taken against the prior p rather than the row sums of w:
    those differ from p in the last bit, and restarts on a flat optimum tie
    at that level. kl_divergence would give +inf off the support of p (x) q,
    but w(s,u) > 0 implies p(s) q(u) > 0, so every term with w(s,u) > 0 is
    finite (+inf only if p(s) q(u) underflows, as there); terms with
    w(s,u) = 0 are 0, so no mask or gather is needed.
    """
    q_u = np.add.reduce(w, axis=-2, keepdims=True)
    off = w == 0
    terms = w * (np.log2(w + off) - np.log2(p[:, None] * q_u + off))
    return entropy_bits(q_u[..., 0, :]), np.add.reduce(terms.reshape(terms.shape[:-2] + (-1,)), axis=-1)


def _score(p: np.ndarray, w: np.ndarray, vals: np.ndarray) -> GPObjectiveReport:
    """The objective of witnesses from their joints w(s,u) = p(s) q(u|s) and the spectra of their stacks [A_u; rho_bar].

    rho_bar is last in each stack. Any leading start axes of w and vals give one value per start.
    omega = sum_u |u><u| (x) A_u has the spectra of all the A_u = q(u) rho_u,
    so chi = S(rho_bar) - S(omega) + H(q). The spectra may come from eigvalsh
    or eigh, which are different LAPACK drivers and agree only to the last bits.
    """
    entropy_q, leak = _entropy_and_leak(p, w)
    terms = xlogx_bits(vals)
    minus_omega = np.add.reduce(terms[..., :-1, :].reshape(vals.shape[:-2] + (-1,)), axis=-1)
    chi = minus_omega - np.add.reduce(terms[..., -1, :], axis=-1) + entropy_q
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
    """c(s,u) = tr rho_{s,x(s,u)}(log A_u - log rho_bar), in bits, over any leading start axes.

    letters are the strategy's letter states and (vals, vecs) the eigh of
    the witness's _stack of derived states A_u and rho_bar. With
    f = S(rho_bar) + sum_u tr A_u log A_u + sum_s p(s) H(q(.|s)) the partial
    derivative in q(u|s) is p(s)[c(s,u) - log q(u|s)] up to a per-row
    constant. The decomposition is the one that scored the witness, so the
    cross term makes none of its own.
    """
    num_u = letters.shape[-3]
    logs = (vecs * np.log2(np.maximum(vals, EIG_FLOOR))[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    return np.einsum("...suij,...uji->...su", letters, logs[..., :num_u, :, :] - logs[..., num_u:, :, :]).real


def _q_step(letters: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """One multiplicative step from the eigh of a witness's _stack: q(u|s) proportional to 2^c(s,u) in every row.

    Let G(q; q') = sum_s p(s) sum_u q(u|s)[c'(s,u) - log q(u|s)] with c' taken
    at q'. Then G(q'; q') = f(q') and, with omega = sum_u |u><u| (x) A_u,
    f(q) - G(q; q') = D(omega||omega') - D(rho_bar||rho_bar') >= 0 by data
    processing under the partial trace over U. The step maximises G(.; q')
    row by row, so it never lowers f and stays inside the simplex.
    """
    c = _cross_term(letters, vals, vecs)
    step = np.exp2(c - np.maximum.reduce(c, axis=-1, keepdims=True))
    return step / np.add.reduce(step, axis=-1, keepdims=True)


def _ascend_q(p, tensor, q, strategy, cur):
    """_q_step from each start's q (objective cur) while its exact objective rises.

    q and strategy are (starts, |S|, |U|) and cur has one entry per start;
    returns per start (q, f, steps, evals, capped), capped when the ascent
    ran ASCENT_ITERS steps. The letter states are gathered once. Each
    candidate is scored from the eigenvalues of one eigh of its _stack, and
    an accepted candidate's decomposition is the next step's, so a start
    makes evals + 1 of them: its first and one per scored candidate. That is
    steps + 2 when a rejected candidate ends its ascent before ASCENT_ITERS.
    A start whose candidate does not rise leaves the live arrays, so every
    call serves only the starts still ascending.
    """
    q_out, f_out, evals = np.empty_like(q), np.empty_like(cur), np.empty(len(q), dtype=np.int64)
    capped = np.zeros(len(q), dtype=bool)
    live = np.arange(len(q))
    p_col, letters = p[:, None], letter_states(tensor, strategy)
    vals, vecs = np.linalg.eigh(_stack(_derived(p_col * q, letters)))
    for it in range(ASCENT_ITERS):
        cand = _q_step(letters, vals, vecs)
        w = p_col * cand
        vals, vecs = np.linalg.eigh(_stack(_derived(w, letters)))
        val = _score(p, w, vals).value
        rise = val > cur
        rises = rise.tolist()
        if False in rises:
            fall = ~rise
            ended = live[fall]
            q_out[ended], f_out[ended], evals[ended] = q[fall], cur[fall], it + 1
            if True not in rises:
                break
            live, letters, cand, vals, vecs, val = (a[rise] for a in (live, letters, cand, vals, vecs, val))
        q, cur = cand, val
    else:
        q_out[live], f_out[live], evals[live], capped[live] = q, cur, ASCENT_ITERS, True
    return q_out, f_out, evals - 1 + capped, evals, capped


def _sweep_strategy(p, tensor, q, strategy, num_inputs: int):
    """One greedy pass of every start over the cells (s, u) in order; returns (strategy, value) per start.

    q and strategy are (starts, |S|, |U|). The pass starts from each
    witness's exact objective, scored from one eigvalsh of its [A_u; rho_bar]
    stack. A cell's inputs change only A_u and rho_bar, so a cell scores all
    of them for every start at once: one einsum gives the candidate A_u
    (column u's letter state at s replaced by each input's), each candidate
    rho_bar sums the |X|-fold stack of A with row u replaced, and one
    eigvalsh over those 2|X| states per start gives every S(rho_bar) and,
    with row u of the current omega spectrum's x log x terms replaced, every
    S(omega). The stack and the omega terms are built once per pass, and row
    u is put back after each cell. H(q) and the leak do not move with the strategy
    and are computed once. Taking the inputs in order, an input replaces the
    best so far only if it scores more than 1e-12 higher. A pass makes
    1 + |S||U| decompositions per start.
    """
    strategy = strategy.copy()
    num_starts, num_states, num_u = strategy.shape
    w = p[:, None] * q
    entropy_q, leak = _entropy_and_leak(p, w)
    letters = letter_states(tensor, strategy)
    A = _derived(w, letters)
    stack_vals = np.linalg.eigvalsh(_stack(A))
    cur = _score(p, w, stack_vals).value.tolist()
    row_terms = xlogx_bits(stack_vals[:, :-1])  # the x log x terms of each A_u's spectrum
    stack = np.repeat(A[:, None], num_inputs, axis=1)
    omega = np.repeat(row_terms[:, None], num_inputs, axis=1)
    # A cell's decomposition input: its |X| candidate A_u, then their |X| candidate rho_bar.
    cell = np.empty((num_starts, 2 * num_inputs) + A.shape[-2:], dtype=A.dtype)
    cand_A = cell[:, :num_inputs]
    # A cell's candidate letter states (column u's, row s replaced by each input's) and their weights.
    cand_letters = np.empty((num_starts, num_states, num_inputs) + A.shape[-2:], dtype=letters.dtype)
    w_cells = np.broadcast_to(w[..., None], w.shape + (num_inputs,))
    entropy_q, leak = entropy_q[:, None], leak[:, None]
    for s in range(num_states):
        for u in range(num_u):
            cand_letters[:] = letters[:, :, u, None]
            cand_letters[:, s] = tensor[s]
            _derived(w_cells[:, :, u], cand_letters, out=cand_A)
            stack[:, :, u] = cand_A
            np.add.reduce(stack, axis=2, out=cell[:, num_inputs:])
            terms = xlogx_bits(np.linalg.eigvalsh(cell))
            omega[:, :, u] = terms[:, :num_inputs]
            chi = np.add.reduce(omega.reshape(num_starts, num_inputs, -1), axis=-1)
            chi -= np.add.reduce(terms[:, num_inputs:], axis=-1)
            scores = (chi + entropy_q - leak).tolist()
            for r, row in enumerate(scores):
                current = best_x = int(strategy[r, s, u])
                for x, val in enumerate(row):
                    if x != current and val > cur[r] + 1e-12:
                        best_x, cur[r] = x, val
                if best_x != current:
                    strategy[r, s, u] = best_x
                    letters[r, s, u] = tensor[s, best_x]
                    A[r, u] = cand_A[r, best_x]
                    row_terms[r, u] = terms[r, best_x]
            stack[:, :, u] = A[:, None, u]
            omega[:, :, u] = row_terms[:, None, u]
    return strategy, np.array(cur)


class _Run(NamedTuple):
    """What one start of an _alternate batch did, counted as if it ran alone."""

    value: float
    ascent_steps: int  # accepted q-steps
    objective_evals: int  # candidate scorings
    rounds: int
    decompositions: int  # eigvalsh and eigh decompositions
    capped: bool  # stopped at max_rounds, not by the ALT_EPS rule
    ascents_capped: int  # ascents that ran ASCENT_ITERS steps


def _alternate(p, tensor, q, strategy, num_inputs, max_rounds, closes=lambda value: False):
    """Alternate ascents and sweeps on a batch of starts, q and strategy (starts, |S|, |U|).

    A round is an ascent and a sweep; the ascent's own value decides only
    which of its steps to keep, and the sweep rescores its result, so the
    value returned is always the returned witness's _objective (an ascent
    step that gains less than the eigh/eigvalsh difference may leave it a
    few ulps below the round's start). A start leaves the live arrays once
    its round gains at most ALT_EPS or it has run max_rounds rounds, so
    every round serves only the starts still running; each start's
    arithmetic is that of running it alone. Decompositions are the eigvalsh
    and eigh calls a start would make alone: one for its first witness,
    evals + 1 per ascent and 1 + |S||U| per sweep.

    Returns one (q, strategy, _Run) per start, in start order. Finished
    starts are read in that order, and the batch stops at the first whose
    block value satisfies closes: the results end there, and later starts,
    finished or not, are discarded.
    """
    cells = strategy[0].size
    w = p[:, None] * q
    val = _score(p, w, np.linalg.eigvalsh(_stack(_derived(w, letter_states(tensor, strategy))))).value
    runs = [None] * len(q)
    live = np.arange(len(q))
    # Per live start: accepted q-steps, ascent scorings and capped ascents, summed over its rounds.
    steps, evals, ascents_capped = np.zeros((3, len(q)), dtype=np.int64)
    converged = np.zeros(len(q), dtype=bool)
    read = 0
    for rounds in itertools.count():
        done = converged | (rounds >= max_rounds)
        ended = [i for i, end in enumerate(done.tolist()) if end]
        if ended:
            for i in ended:
                # A sweep counts as the scoring of its starting witness plus one per alternative input of each cell.
                runs[live[i]] = q[i].copy(), strategy[i].copy(), _Run(
                    value=float(val[i]),
                    ascent_steps=int(steps[i]),
                    objective_evals=1 + int(evals[i]) + rounds * (1 + cells * (num_inputs - 1)),
                    rounds=rounds,
                    decompositions=1 + int(evals[i]) + rounds * (2 + cells),
                    capped=not converged[i],
                    ascents_capped=int(ascents_capped[i]),
                )
            while read < len(runs) and runs[read] is not None:
                read += 1
                if closes(runs[read - 1][2].value):
                    return runs[:read]
            if read == len(runs):
                return runs
            live, q, strategy, val, steps, evals, ascents_capped = (
                a[~done] for a in (live, q, strategy, val, steps, evals, ascents_capped)
            )
        q, _, round_steps, round_evals, round_capped = _ascend_q(p, tensor, q, strategy, val)
        strategy, new_val = _sweep_strategy(p, tensor, q, strategy, num_inputs)
        steps, evals, ascents_capped = steps + round_steps, evals + round_evals, ascents_capped + round_capped
        converged = new_val <= val + ALT_EPS
        val = new_val


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
    # eigvalsh and eigh decompositions of the starts' searches, each start's counted
    # as if it ran alone (a batch shares one call among its starts), summed over
    # starts: per start one for the first witness, per ascent one per scored
    # candidate plus one for its start, and per sweep one for its starting witness
    # plus one per cell.
    decompositions: int
    restart_rounds: tuple[int, ...]  # rounds run by each start, in start order
    # Per start: it stopped at max_rounds, not because a round gained at most ALT_EPS.
    restart_capped: tuple[bool, ...]
    ascents_capped: int  # ascents that ran ASCENT_ITERS steps, summed over starts
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
    run, and random starts fill up to ``restarts`` starts, possibly none.
    Ties keep the smallest restart index. The starts are read in that order
    and the search stops after the first whose per-symbol value is within
    ALT_EPS of noncausal_upper_bound's certified value, so ``restarts`` is a
    maximum (unless explicit witnesses pass it) and the witness reports the
    starts that ran.
    The lifted start and each explicit witness run alone; random starts run
    in batches of min(remaining, memory_budget_bytes() // start_bytes), each
    start drawn from its own generator when the search reaches its batch. A
    batch stops once a start closes the bracket and every earlier start of
    the batch has finished, and discards its later starts. Values, witnesses
    and counters are those of running the starts one by one: the counters
    count each start's decompositions, not the LAPACK calls a batch shares.
    An n, restarts, max_rounds or aux_size below 1 raises
    PreconditionViolated, and an aux_size whose per-start arrays exceed
    memory_budget_bytes() raises BudgetExceeded before any start runs.
    """
    for name, value in (("n", n), ("restarts", restarts), ("max_rounds", max_rounds)):
        if value < 1:
            raise PreconditionViolated(name, value, ">= 1")
    ch_n = ch if n == 1 else product_extension(ch, n)
    p = ch_n.p
    tensor = ch_n.tensor
    num_states, num_inputs = ch_n.num_states, ch_n.num_inputs
    if aux_size is None:
        aux_size = default_aux_size(ch.num_states, ch.num_inputs, n)
    if aux_size < 1:
        raise PreconditionViolated("aux_size", aux_size, ">= 1")

    # What a start holds at its peak. A batch of k starts holds k times this, and the search holds one batch
    # and the best witness so far (two of the witness tables below), so a batch takes budget // start_bytes
    # starts. Counted: the |S| aux letter states (complex dim x dim) with the largest of the ascent's four
    # (aux + 1)-stacks (eigh vectors; in the cross term the scaled vectors, their conjugate and product), its
    # compaction when starts leave (a copy of the live starts' letter states and eigh vectors beside the old),
    # and a sweep cell's A, its |S||X| + |X| candidate letter states and A_u, and its |X|-fold stack of A, with
    # room for one more; the cell's |X| aux dim omega terms, six (|S|, aux) witness tables and the (aux + 1) dim
    # stack spectra; the block channel and 16 KiB that do not grow with aux.
    sweep = (1 + 2 * num_inputs) * aux_size + (num_states + 1) * num_inputs
    compaction = num_states * aux_size + 2 * (aux_size + 1)
    matrices = num_states * (aux_size + num_inputs) + max(4 * (aux_size + 1), compaction, sweep)
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

    def batches():
        for q0, strat0 in starts:
            yield q0[None], strat0[None]
        num_random, size = restarts - len(starts), budget // start_bytes
        for first in range(0, num_random, size):
            rngs = [rng_for(seed, n, r) for r in range(first, min(first + size, num_random))]
            yield (
                np.stack([rng.dirichlet(np.ones(aux_size), size=num_states) for rng in rngs]),
                np.stack([rng.integers(0, num_inputs, size=(num_states, aux_size)) for rng in rngs]),
            )

    upper = noncausal_upper_bound(ch)
    target = upper.value + upper.gap - ALT_EPS
    runs, best = [], None
    for q0, strat0 in batches():
        for q_run, strat_run, run in _alternate(
            p, tensor, q0, strat0, num_inputs, max_rounds, closes=lambda value: value / n >= target
        ):
            if best is None or run.value > best[0]:  # strict, so ties keep the smallest index
                best = run.value, len(runs), q_run, strat_run
            runs.append(run)
        del q0, strat0  # before the next batch is drawn
        if runs[-1].value / n >= target:
            break
    _, best_idx, q_best, strat_best = best
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
        restarts=len(runs),
        restart_values=tuple(run.value / n for run in runs),
        ascent_steps=sum(run.ascent_steps for run in runs),
        objective_evals=sum(run.objective_evals for run in runs),
        rounds=sum(run.rounds for run in runs),
        decompositions=sum(run.decompositions for run in runs),
        restart_rounds=tuple(run.rounds for run in runs),
        restart_capped=tuple(run.capped for run in runs),
        ascents_capped=sum(run.ascents_capped for run in runs),
        upper=upper.value,
        upper_gap=upper.gap,
        leak_per_symbol=report.leak / n,
        certified_optimal=report.value / n >= target,
    )
