"""Non-causal lower bound: witness objective, ascent, and classical oracle."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpcq.causal import causal_capacity, state_averaged_holevo
from gpcq.channel import BUDGET_ENV_VAR, build_channel, derived_states, letter_states, product_extension
from gpcq.coding import simulate_rate_error_curve
from gpcq.errors import BudgetExceeded, GpcqError, NonFinite, PreconditionViolated, ShapeMismatch
import gpcq.noncausal as noncausal
from gpcq.noncausal import (
    ALT_EPS,
    ASCENT_ITERS,
    _alternate,
    _ascend_q,
    _cross_term,
    _objective,
    _q_step,
    _stack,
    _sweep_strategy,
    default_aux_size,
    gp_objective,
    noncausal_lower_bound,
    noncausal_upper_bound,
    product_witness,
    trim_witness,
)
from gpcq.quantum import kl_divergence
from gpcq.util import rng_for

import noncausal_reference as reference
from classical_oracles import ClassicalGP, classical_gp_oracle
from conftest import random_density_matrix

UNIFORM_Q = np.array([[0.5, 0.5], [0.5, 0.5]])
# Float rounding of an exact value may put a certified lower bound a few ulps
# above the upper bound (flip's n=1 bound has read 1.0000000000000004 against
# the upper bound 1), so bracket orderings hold to this tolerance.
BRACKET_TOL = 1e-12
INVERTING = np.array([[0, 1], [1, 0]])


def random_cq_channel(rng, dim, num_states, num_inputs, random_ranks=False):
    """Channel with random outputs, full-rank or each of a rank drawn from 1..dim, and a random state prior."""
    states = {
        (str(s), str(x)): random_density_matrix(dim, rng, rank=int(rng.integers(1, dim + 1)) if random_ranks else None)
        for s in range(num_states)
        for x in range(num_inputs)
    }
    p = rng.dirichlet(np.ones(num_states))
    return build_channel(
        [str(s) for s in range(num_states)], [str(x) for x in range(num_inputs)], dim, states, p
    )


def random_sizes(rng):
    """|S|, |X| and dim, each drawn from {2, 3}."""
    return (int(v) for v in rng.integers(2, 4, size=3))


def witness_letters(ch, n):
    """Auxiliary letters of the tests' random witnesses: |S|(|X| + 1) at n = 1, the search's default at n >= 2."""
    return ch.num_states * (ch.num_inputs + 1) if n == 1 else default_aux_size(ch.num_states, ch.num_inputs, n)


def interior_witnesses(ch, num_u, rng, count=2):
    """Random witnesses with every q(u|s) >= 1/(2|U|)."""
    for _ in range(count):
        q = 0.5 * rng.dirichlet(np.ones(num_u), size=ch.num_states) + 0.5 / num_u
        yield q, rng.integers(0, ch.num_inputs, size=q.shape)


def corpus_blocks(suite, n):
    for name, ch in suite.items():
        yield name, ch, (ch if n == 1 else product_extension(ch, n))


def mutual_information(joint: np.ndarray) -> float:
    """I between the axes of a 2-D joint pmf, in bits: D(joint || product of its marginals)."""
    joint = np.asarray(joint, dtype=float)
    total = joint.sum()
    if not math.isclose(total, 1.0, abs_tol=1e-8):
        raise GpcqError(f"joint mass {total} is not 1")
    return kl_divergence(joint, np.outer(joint.sum(axis=1), joint.sum(axis=0)))


class TestMutualInformation:
    def test_frozen_example(self):
        joint = np.array([[0.4, 0.1], [0.1, 0.4]])
        assert mutual_information(joint) == pytest.approx(0.27807190511263785, abs=1e-12)

    def test_independent_is_zero(self):
        joint = np.outer([0.3, 0.7], [0.25, 0.75])
        assert mutual_information(joint) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_correlation(self):
        assert mutual_information(np.eye(3) / 3) == pytest.approx(np.log2(3), abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(GpcqError, match="not 1"):
            mutual_information(np.full((2, 2), 0.3))


class TestGPObjective:
    def test_flip_inverting_witness_is_one_bit(self, flip):
        rep = gp_objective(flip, UNIFORM_Q, INVERTING)
        assert rep.value == pytest.approx(1.0, abs=1e-12)
        assert rep.holevo == pytest.approx(1.0, abs=1e-12)
        assert rep.leak == pytest.approx(0.0, abs=1e-12)

    def test_state_independent_conditional_has_zero_leak(self, purecq):
        rep = gp_objective(purecq, UNIFORM_Q, np.array([[0, 1], [0, 1]]))
        assert rep.leak == pytest.approx(0.0, abs=1e-12)
        assert rep.value == pytest.approx(rep.holevo, abs=1e-12)

    def test_input_blind_strategy_never_wins(self, suite, rng):
        # If the chosen input ignores the auxiliary letter, the auxiliary
        # variable talks to the output only through the state, so the
        # Holevo term never beats the leak.
        for ch in suite.values():
            for _ in range(5):
                q = rng.dirichlet(np.ones(3), size=2)
                strat = np.tile(rng.integers(0, 2, size=(2, 1)), (1, 3))
                rep = gp_objective(ch, q, strat)
                assert rep.value <= 1e-9

    def test_value_bounded_by_log_dim(self, suite, rng):
        for ch in suite.values():
            for _ in range(10):
                q = rng.dirichlet(np.ones(2), size=2)
                strat = rng.integers(0, 2, size=(2, 2))
                rep = gp_objective(ch, q, strat)
                assert rep.value <= np.log2(ch.dim) + 1e-9

    def test_shape_mismatch(self, flip):
        with pytest.raises(ShapeMismatch):
            gp_objective(flip, UNIFORM_Q, np.zeros((2, 3), dtype=int))
        with pytest.raises(ShapeMismatch):
            gp_objective(flip, np.array([[1.0, 0.0]]), np.zeros((1, 2), dtype=int))

    def test_rejects_bad_rows_and_entries(self, flip):
        with pytest.raises(GpcqError, match="sum to 1"):
            gp_objective(flip, np.array([[0.5, 0.4], [0.5, 0.5]]), INVERTING)
        with pytest.raises(GpcqError, match="input range"):
            gp_objective(flip, UNIFORM_Q, np.array([[0, 2], [1, 0]]))


def squared(q, strat, num_inputs):
    """product_witness at n = 2 by np.kron, for tables of any shapes and entries."""
    q, strat = np.asarray(q), np.asarray(strat)
    ones = np.ones_like(strat)
    return np.kron(q, q), np.kron(strat, ones) * num_inputs + np.kron(ones, strat)


WITNESS_CALLERS = {
    "gp_objective": lambda ch, wit: gp_objective(ch, *wit),
    # Explicit starts apply at n >= 2: the witness is squared into a blocklength-2 one, flaws included.
    "seed_witnesses": lambda ch, wit: noncausal_lower_bound(
        ch, n=2, restarts=1, max_rounds=1, seed_witnesses=(squared(*wit, ch.num_inputs),)
    ),
    "gp_witness": lambda ch, wit: simulate_rate_error_curve(
        ch, "noncausal-sqrt", [0.5], [2], trials=1, seed=0, gp_witness=wit
    ),
    # A causal witness is (q, columns): the rows q(u|s) = q(u) with strategy columns.T.
    "causal_witness": lambda ch, wit: simulate_rate_error_curve(
        ch, "causal-sequential", [0.5], [2], trials=1, seed=0, causal_witness=wit
    ),
}


@pytest.mark.parametrize(
    "caller, q, strat, error, match",
    [
        ("seed_witnesses", np.full((2, 3), 1 / 3), INVERTING, ShapeMismatch, "shapes"),
        ("gp_witness", np.full((2, 3), 1 / 3), INVERTING, ShapeMismatch, "shapes"),
        ("seed_witnesses", UNIFORM_Q, np.array([[0, 2], [1, 0]]), GpcqError, "input range"),
        ("gp_witness", UNIFORM_Q, np.array([[0, 2], [1, 0]]), GpcqError, "input range"),
        ("seed_witnesses", np.array([[0.9, 0.9], [0.5, 0.5]]), INVERTING, GpcqError, "sum to 1"),
        ("gp_witness", np.array([[0.9, 0.9], [0.5, 0.5]]), INVERTING, GpcqError, "sum to 1"),
        ("seed_witnesses", np.array([[1.5, -0.5], [0.5, 0.5]]), INVERTING, GpcqError, "non-negative"),
        ("gp_objective", np.array([[1.5, -0.5], [0.5, 0.5]]), INVERTING, GpcqError, "non-negative"),
        ("gp_witness", np.array([[1.5, -0.5], [0.5, 0.5]]), INVERTING, GpcqError, "non-negative"),
        ("gp_objective", np.array([[np.nan, 0.5], [0.5, 0.5]]), INVERTING, NonFinite, "finite"),
        ("seed_witnesses", np.array([[np.nan, 0.5], [0.5, 0.5]]), INVERTING, NonFinite, "finite"),
        ("gp_objective", UNIFORM_Q, np.array([[0.7, 1.9], [1.2, 0.0]]), GpcqError, "integers"),
        ("gp_objective", UNIFORM_Q, np.array([[np.nan, 1.0], [1.0, 0.0]]), NonFinite, "finite"),
        ("causal_witness", np.array([0.5, 0.5]), np.array([[0, 5], [1, 0]]), GpcqError, "input range"),
        ("causal_witness", np.array([0.5, 0.5]), np.array([[0, 1, 0], [1, 0, 1]]), ShapeMismatch, "shapes"),
        ("causal_witness", np.array([np.nan, 1.0]), INVERTING, NonFinite, "finite"),
        ("causal_witness", np.array([-0.5, 1.5]), INVERTING, GpcqError, "non-negative"),
        ("causal_witness", np.array([0.9, 0.9]), INVERTING, GpcqError, "sum to 1"),
        ("causal_witness", np.array([0.5, 0.5]), np.array([[0.7, 1.0], [1.0, 0.0]]), GpcqError, "integers"),
    ],
)
def test_every_witness_entry_point_checks_the_witness(flip, caller, q, strat, error, match):
    with pytest.raises(error, match=match):
        WITNESS_CALLERS[caller](flip, (q, strat))


def explicit_objective(ch, q, strat):
    """chi, leak by per-letter eigvalsh and explicit sums, independent of gpcq.quantum."""

    def vn(mat):
        return -sum(v * np.log2(v) for v in np.linalg.eigvalsh(mat) if v > 0)

    p = ch.p
    rho = ch.tensor
    num_s, num_u = q.shape
    q_u = [sum(p[s] * q[s, u] for s in range(num_s)) for u in range(num_u)]
    rho_bar = sum(p[s] * q[s, u] * rho[s][strat[s, u]] for s in range(num_s) for u in range(num_u))
    chi = vn(rho_bar)
    leak = 0.0
    for u in range(num_u):
        if q_u[u] > 0:
            rho_u = sum(p[s] * q[s, u] * rho[s][strat[s, u]] for s in range(num_s)) / q_u[u]
            chi -= q_u[u] * vn(rho_u)
        for s in range(num_s):
            if p[s] * q[s, u] > 0:
                leak += p[s] * q[s, u] * np.log2(q[s, u] / q_u[u])
    return chi, leak


class TestObjectiveKernel:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3]),
        st.integers(2, 3),
        st.integers(1, 5),
    )
    def test_matches_per_letter_eigvalsh_and_explicit_sums(self, seed, dim, num_states, num_u):
        # Random-rank outputs and letters with zero weight in some or all rows.
        rng = np.random.default_rng(seed)
        states = {
            (str(s), str(x)): random_density_matrix(dim, rng, rank=int(rng.integers(1, dim + 1)))
            for s in range(num_states)
            for x in range(2)
        }
        p = rng.dirichlet(np.ones(num_states))
        ch = build_channel([str(s) for s in range(num_states)], ["0", "1"], dim, states, p)
        q = rng.dirichlet(np.ones(num_u), size=num_states)
        q[:, 1:] *= rng.random((num_states, num_u - 1)) > 0.3
        q[:, 1:][:, rng.random(num_u - 1) < 0.3] = 0.0
        q /= q.sum(axis=1, keepdims=True)
        strat = rng.integers(0, 2, size=(num_states, num_u))
        chi, leak = explicit_objective(ch, q, strat)
        rep = gp_objective(ch, q, strat)
        assert rep.holevo == pytest.approx(chi, abs=1e-12)
        assert rep.leak == pytest.approx(leak, abs=1e-12)
        assert rep.value == pytest.approx(chi - leak, abs=1e-12)


class TestAscentGradient:
    @pytest.mark.parametrize("n", [1, 2])
    def test_closed_form_matches_central_differences(self, suite, n):
        # p(s)(c(s,u) - log q(u|s)) is the gradient up to a per-row constant.
        # Interior witnesses keep the central differences away from the log
        # singularity at q = 0.
        rng = np.random.default_rng(1506 + n)
        h = 1e-6
        for name, ch, ch_n in corpus_blocks(suite, n):
            p, tensor = ch_n.p, ch_n.tensor
            num_u = witness_letters(ch, n)
            for q, strat in interior_witnesses(ch_n, num_u, rng):
                fd = np.zeros_like(q)
                for s in range(q.shape[0]):
                    for u in range(num_u):
                        bump = np.zeros_like(q)
                        bump[s, u] = h
                        up = _objective(p, tensor, q + bump, strat).value
                        down = _objective(p, tensor, q - bump, strat).value
                        fd[s, u] = (up - down) / (2 * h)
                fd -= fd.mean(axis=1, keepdims=True)
                stack = _stack(derived_states(p, tensor, q, strat))
                cross = _cross_term(letter_states(tensor, strat), *np.linalg.eigh(stack))
                grad = p[:, None] * (cross - np.log2(q))
                grad -= grad.mean(axis=1, keepdims=True)
                scale = float(np.abs(grad).max())
                assert float(np.abs(grad - fd).max()) <= 1e-6 * scale, (name, n)


class TestAscentStep:
    def _assert_step_never_lowers(self, ch_n, num_u, rng, label):
        p, tensor = ch_n.p, ch_n.tensor
        for q, strat in interior_witnesses(ch_n, num_u, rng, count=4):
            step = _q_step(letter_states(tensor, strat), *np.linalg.eigh(_stack(derived_states(p, tensor, q, strat))))
            assert np.all(step >= 0) and np.allclose(step.sum(axis=1), 1.0, atol=1e-12)
            before = _objective(p, tensor, q, strat).value
            after = _objective(p, tensor, step, strat).value
            assert after >= before - 1e-12, (label, before, after)

    @pytest.mark.parametrize("n", [1, 2])
    def test_unguarded_step_never_lowers_objective_on_corpus(self, suite, n):
        rng = np.random.default_rng(2004 + n)
        for name, ch, ch_n in corpus_blocks(suite, n):
            num_u = witness_letters(ch, n)
            self._assert_step_never_lowers(ch_n, num_u, rng, (name, n))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_unguarded_step_never_lowers_objective_on_random_channels(self, dim):
        rng = np.random.default_rng(1905 + dim)
        for k in range(5):
            ch = random_cq_channel(rng, dim, 2, 2)
            self._assert_step_never_lowers(ch, witness_letters(ch, 1), rng, (dim, k))


def search_witnesses(ch, num_u, rng, count=2):
    """Random witnesses; every second one has q(u|s) = 1e-12 on one column."""
    for k in range(count):
        q = rng.dirichlet(np.ones(num_u), size=ch.num_states)
        if k % 2:
            q[:, rng.integers(num_u)] = 1e-12
            q /= q.sum(axis=1, keepdims=True)
        yield q, rng.integers(0, ch.num_inputs, size=q.shape)


class TestSearchMatchesReference:
    """The batched sweep and the carried-state ascent against the one-candidate-at-a-time loops, bit for bit."""

    def _assert_search_matches(self, ch, q, strat, label, max_rounds=3):
        p, tensor, num_inputs = ch.p, ch.tensor, ch.num_inputs
        cur = _objective(p, tensor, q, strat).value
        (strategy,), (value,) = _sweep_strategy(p, tensor, q[None], strat[None], num_inputs)
        ref_strategy, ref_value = reference.sweep_strategy(p, tensor, q, strat, num_inputs)
        assert np.array_equal(strategy, ref_strategy) and value == ref_value, label
        (q_up,), *rest, _ = _ascend_q(p, tensor, q[None], strat[None], np.array([cur]))
        ref_q, *ref_rest = reference.ascend_q(p, tensor, q, strat, cur)
        assert np.array_equal(q_up, ref_q) and [r[0] for r in rest] == ref_rest, label
        ((q_alt, strat_alt, run),) = _alternate(p, tensor, q[None], strat[None], num_inputs, max_rounds)
        ref_q, ref_strat, *ref_counts = reference.alternate(p, tensor, q, strat, num_inputs, max_rounds)
        assert np.array_equal(q_alt, ref_q) and np.array_equal(strat_alt, ref_strat), label
        counts = [run.value, run.ascent_steps, run.objective_evals, run.rounds]
        assert counts == ref_counts and 1 <= run.rounds <= max_rounds, label

    @pytest.mark.parametrize("n", [1, 2])
    def test_corpus(self, suite, n):
        rng = np.random.default_rng(1910 + n)
        for name, ch, ch_n in corpus_blocks(suite, n):
            num_u = witness_letters(ch, n)
            for q, strat in search_witnesses(ch_n, num_u, rng):
                self._assert_search_matches(ch_n, q, strat, (name, n))

    def test_product_seeds_at_blocklength_two(self, suite):
        # A converged n=1 search from a random |U| = 6 start, lifted to n=2 as
        # a product seed with |U| = 36.
        rng = np.random.default_rng(1936)
        for name, ch in suite.items():
            q, strat = next(search_witnesses(ch, witness_letters(ch, 1), rng))
            ((q, strat, _),) = _alternate(ch.p, ch.tensor, q[None], strat[None], ch.num_inputs, max_rounds=40)
            q, strat = product_witness(q, strat, ch.num_inputs)
            assert q.shape == (4, 36)
            self._assert_search_matches(product_extension(ch, 2), q, strat, name, max_rounds=1)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(2, 3), st.integers(2, 3))
    def test_random_channels(self, seed, dim, num_states, num_inputs):
        rng = np.random.default_rng(seed)
        ch = random_cq_channel(rng, dim, num_states, num_inputs)
        for num_u in (2, 5, 9):
            for q, strat in search_witnesses(ch, num_u, rng):
                self._assert_search_matches(ch, q, strat, (seed, num_u))


def product_factor(ch, single):
    """The n = 1 witness whose product is the search's first start: single's, trimmed unless that lowers its value."""
    q, strat = trim_witness(single.q_given_s, single.strategy)
    return (q, strat) if gp_objective(ch, q, strat).value >= single.value else (single.q_given_s, single.strategy)


def product_start(ch, n):
    """The search's first start: the n-fold product of product_factor."""
    return product_witness(*product_factor(ch, noncausal_lower_bound(ch)), ch.num_inputs, n=n)


def drawn_starts(ch_n, aux_size, seed, n, count):
    """The search's random starts 0, ..., count - 1, each from its own generator."""
    for r in range(count):
        rng = rng_for(seed, n, r)
        q = rng.dirichlet(np.ones(aux_size), size=ch_n.num_states)
        yield q, rng.integers(0, ch_n.num_inputs, size=(ch_n.num_states, aux_size))


def assert_same_witness(a, b):
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y, field.name


def record_batches(monkeypatch, name):
    """Wrap noncausal's function `name`; the returned list gets the start count of each call's batch."""
    sizes = []

    def recorded(p, tensor, q, *args, _original=getattr(noncausal, name), **kwargs):
        sizes.append(len(q))
        return _original(p, tensor, q, *args, **kwargs)

    monkeypatch.setattr(noncausal, name, recorded)
    return sizes


class TestBatchedStarts:
    """A batch of starts gives each start the bits, witness and counters of running it alone."""

    def _assert_batch_matches_lone_starts(self, ch, starts, label, max_rounds=40):
        p, tensor, num_inputs = ch.p, ch.tensor, ch.num_inputs
        q, strat = (np.stack(table) for table in zip(*starts))
        batch = list(_alternate(p, tensor, q, strat, num_inputs, max_rounds))
        assert len(batch) == len(starts), label
        for (q_b, strat_b, run_b), (q0, strat0) in zip(batch, starts):
            ((q_1, strat_1, run_1),) = _alternate(p, tensor, q0[None], strat0[None], num_inputs, max_rounds)
            assert np.array_equal(q_b, q_1) and np.array_equal(strat_b, strat_1) and run_b == run_1, label

    @pytest.mark.parametrize("n, max_rounds", [(1, 40), (2, 2)])
    def test_corpus(self, suite, n, max_rounds):
        rng = np.random.default_rng(3110 + n)
        for name, ch, ch_n in corpus_blocks(suite, n):
            num_u = witness_letters(ch, n)
            starts = list(search_witnesses(ch_n, num_u, rng, count=4 if n == 1 else 3))
            self._assert_batch_matches_lone_starts(ch_n, starts, (name, n), max_rounds)

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(2, 3), st.integers(2, 3))
    def test_random_channels(self, seed, dim, num_states, num_inputs):
        rng = np.random.default_rng(seed)
        ch = random_cq_channel(rng, dim, num_states, num_inputs)
        for num_u in (2, 5):
            self._assert_batch_matches_lone_starts(ch, list(search_witnesses(ch, num_u, rng, count=4)), (seed, num_u))

    @pytest.mark.parametrize("n, restarts, max_rounds", [(2, 6, 40), (2, 3, 2)])
    def test_search_matches_the_sequential_reference(self, suite, n, restarts, max_rounds):
        # The same starts in the same order, with the same stop rule, one start at a time.
        for name, ch, ch_n in corpus_blocks(suite, n):
            wit = noncausal_lower_bound(ch, n=n, restarts=restarts, seed=11, max_rounds=max_rounds)
            target = wit.upper + wit.upper_gap - ALT_EPS
            aux_size = witness_letters(ch, n)
            starts = [product_start(ch, n), *drawn_starts(ch_n, aux_size, 11, n, restarts - 1)]
            best, runs = reference.search(
                ch_n.p, ch_n.tensor, ch_n.num_inputs, starts, max_rounds, lambda value: value / n >= target
            )
            assert wit.restart_values == tuple(run[2] / n for run in runs), name
            assert wit.restart_index == best, name
            assert np.array_equal(wit.q_given_s, runs[best][0]) and np.array_equal(wit.strategy, runs[best][1]), name
            assert (wit.ascent_steps, wit.objective_evals) == tuple(sum(run[k] for run in runs) for k in (3, 4)), name
            assert wit.restart_rounds == tuple(run[5] for run in runs), name

    @pytest.mark.parametrize("k", [1, 3])
    def test_a_batch_holds_the_starts_the_budget_allows(self, purecq, monkeypatch, k):
        # purecq's bracket stays open, so all eight starts run: the product one alone, then seven random ones.
        kw = dict(n=2, restarts=8, seed=2, max_rounds=1)
        unbounded = noncausal_lower_bound(purecq, **kw)
        start_bytes = noncausal._footprint(product_extension(purecq, 2), default_aux_size(2, 2, 2), search=True)
        with monkeypatch.context() as patched:
            patched.setenv(BUDGET_ENV_VAR, str(start_bytes - 1))
            with pytest.raises(BudgetExceeded, match="aux_size 16") as refused:
                noncausal_lower_bound(purecq, **kw)
        assert refused.value.details["start_bytes"] == start_bytes
        monkeypatch.setenv(BUDGET_ENV_VAR, str(k * start_bytes))
        sizes = record_batches(monkeypatch, "_alternate")
        wit = noncausal_lower_bound(purecq, **kw)
        assert sizes == [1] + [k] * (7 // k) + [7 % k] * (7 % k > 0)
        assert_same_witness(wit, unbounded)

    def test_the_closing_start_ends_its_batch(self, stuck, monkeypatch):
        # At n = 2 stuck's product start closes the bracket, so the search runs no random batch; the
        # batch is run directly on its random starts 0 and 3, which close it after 3 and 2 rounds alone.
        ch = product_extension(stuck, 2)
        upper = noncausal_upper_bound(stuck)

        def closes(value):
            return value / 2 >= upper.value + upper.gap - ALT_EPS

        starts = list(drawn_starts(ch, default_aux_size(2, 2, 2), 7, 2, 4))
        alone = [next(_alternate(ch.p, ch.tensor, q[None], s[None], ch.num_inputs, 40)) for q, s in starts]
        assert [run.rounds for _, _, run in alone] == [3, 3, 3, 2] and all(closes(run.value) for _, _, run in alone)
        sizes = record_batches(monkeypatch, "_sweep_strategy")
        for order, rounds in [((3, 0), [2, 2]), ((0, 3), [2, 2, 1])]:
            sizes.clear()
            q, strat = (np.stack([starts[r][k] for r in order]) for k in (0, 1))
            read = []
            for q_b, strat_b, run in _alternate(ch.p, ch.tensor, q, strat, ch.num_inputs, 40):
                read.append(run)
                if closes(run.value):
                    break
            # Only the first start is read. Started first, start 3 ends the batch after its two rounds and
            # start 0 is discarded unfinished; started second, start 3 is discarded once start 0 finishes.
            q_1, strat_1, run_1 = alone[order[0]]
            assert np.array_equal(q_b, q_1) and np.array_equal(strat_b, strat_1) and read == [run_1], order
            assert sizes == rounds, order

    def test_a_finished_start_is_yielded_before_its_batch_ends(self, stuck, monkeypatch):
        # Stuck's random starts 3 and 0 at n = 2 finish after 2 and 3 rounds alone. In a batch with start 3
        # first, the first start comes out after two rounds of both; start 0's third round runs only when the
        # stream is read on.
        ch = product_extension(stuck, 2)
        starts = list(drawn_starts(ch, default_aux_size(2, 2, 2), 7, 2, 4))
        alone = [next(_alternate(ch.p, ch.tensor, starts[r][0][None], starts[r][1][None], ch.num_inputs, 40))
                 for r in (3, 0)]
        assert [run.rounds for _, _, run in alone] == [2, 3]
        sizes = record_batches(monkeypatch, "_sweep_strategy")
        q, strat = (np.stack([starts[r][k] for r in (3, 0)]) for k in (0, 1))
        stream = _alternate(ch.p, ch.tensor, q, strat, ch.num_inputs, 40)
        for (q_1, strat_1, run_1), rounds in zip(alone, ([2, 2], [2, 2, 1])):
            q_b, strat_b, run = next(stream)
            assert np.array_equal(q_b, q_1) and np.array_equal(strat_b, strat_1) and run == run_1
            assert sizes == rounds
        assert next(stream, None) is None


def count_decompositions(monkeypatch, active=lambda: True):
    """Wrap np.linalg.eigh and eigvalsh; the returned list's one entry counts the starts served while active().

    Every decomposition of the search takes a leading start axis, so a call
    counts the length of that axis: the decompositions of its starts, each as
    if it ran alone.
    """
    calls = [0]
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _original=getattr(np.linalg, name), **kwargs):
            calls[0] += active() and len(a)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestDecompositionCounts:
    @pytest.mark.parametrize("n", [1, 2])
    def test_ascent_makes_one_decomposition_per_scored_candidate_and_one_for_its_start(self, suite, monkeypatch, n):
        calls = count_decompositions(monkeypatch)
        rng = np.random.default_rng(2525 + n)
        stopped_early = []
        for name, ch, ch_n in corpus_blocks(suite, n):
            num_u = witness_letters(ch, n)
            for q, strat in search_witnesses(ch_n, num_u, rng):
                cur = _objective(ch_n.p, ch_n.tensor, q, strat).value
                calls[0] = 0
                _, _, (steps,), (evals,), _ = _ascend_q(ch_n.p, ch_n.tensor, q[None], strat[None], np.array([cur]))
                assert calls[0] == evals + 1, (name, n)
                if steps < ASCENT_ITERS:
                    # A rejected candidate ended the ascent.
                    assert calls[0] == steps + 2, (name, n)
                    stopped_early.append(steps)
        assert stopped_early and max(stopped_early) > 0

    def test_the_single_letter_witness_counts_the_causal_scoring_and_the_solve(self, suite, monkeypatch):
        # One per call: the causal witness's scoring, then, inside the solve, its start's, the ascent's and
        # its witness's. The causal and upper-bound solves and the final report are not counted.
        inside, calls = [False], [0]
        for name in ("eigh", "eigvalsh"):
            def counted(a, *args, _original=getattr(np.linalg, name), **kwargs):
                calls[0] += inside[0]
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)

        def solve(*args, _original=noncausal._solve_single_letter):
            inside[0] = True
            try:
                return _original(*args)
            finally:
                inside[0] = False

        monkeypatch.setattr(noncausal, "_solve_single_letter", solve)
        solved = {}
        for name, ch in suite.items():
            calls[0] = 0
            wit = noncausal_lower_bound(ch)
            assert wit.decompositions == 1 + calls[0], name
            assert wit.objective_evals == wit.decompositions - (calls[0] > 0), name
            solved[name] = wit.restarts == 2 and calls[0] > 0
        assert solved == {"flip": False, "stuck": True, "skew": False, "purecq": True}

    @pytest.mark.parametrize("n, max_rounds", [(2, 40), (2, 2)])
    def test_witness_counts_every_decomposition_of_the_search(self, suite, monkeypatch, n, max_rounds):
        # Only calls made inside a start's search count: the causal seed's
        # solve, the upper bound and the final report are not the search.
        inside = [False]
        calls = count_decompositions(monkeypatch, lambda: inside[0])

        def alternate(*args, _original=noncausal._alternate, **kwargs):
            inside[0] = True
            try:
                yield from _original(*args, **kwargs)
            finally:
                inside[0] = False

        monkeypatch.setattr(noncausal, "_alternate", alternate)
        for name, ch in suite.items():
            calls[0] = 0
            wit = noncausal_lower_bound(ch, n=n, restarts=3, seed=25, max_rounds=max_rounds)
            assert wit.decompositions == calls[0] > 0, (name, n)


class TestWitnessHelpers:
    def test_trim_merges_proportional_duplicates(self, flip):
        q = np.array([[0.25, 0.25, 0.5], [0.25, 0.25, 0.5]])
        strat = np.array([[0, 0, 1], [1, 1, 0]])
        tq, tstrat = trim_witness(q, strat)
        assert tq.shape == (2, 2)
        before = gp_objective(flip, q, strat).value
        after = gp_objective(flip, tq, tstrat).value
        assert after == pytest.approx(before, abs=1e-12)

    def test_trim_drops_dead_letters(self, flip):
        q = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
        strat = np.array([[0, 1, 0], [1, 0, 1]])
        tq, tstrat = trim_witness(q, strat)
        assert tq.shape == (2, 2)
        assert np.array_equal(tstrat, INVERTING)

    def test_product_witness_preserves_per_symbol_value(self, flip, purecq, stuck):
        for ch, q, strat, n in [
            (flip, UNIFORM_Q, INVERTING, 2),
            (purecq, np.array([[0.7, 0.3], [0.2, 0.8]]), np.array([[0, 1], [1, 1]]), 2),
            (stuck, np.array([[0.6, 0.4], [0.1, 0.9]]), np.array([[0, 1], [1, 0]]), 3),
        ]:
            single = gp_objective(ch, q, strat)
            block = product_extension(ch, n)
            qn, stratn = product_witness(q, strat, ch.num_inputs, n=n)
            lifted = gp_objective(block, qn, stratn, n=n)
            assert lifted.value == pytest.approx(single.value, abs=1e-10)
            assert lifted.leak == pytest.approx(n * single.leak, abs=1e-10)

    def test_leak_check(self):
        p = np.array([0.5, 0.5])
        assert mutual_information(p[:, None] * UNIFORM_Q) == pytest.approx(0.0, abs=1e-12)
        assert mutual_information(p[:, None] * np.eye(2)) == pytest.approx(1.0, abs=1e-12)


class TestNoncausalLowerBound:
    def test_flip_reaches_one_bit(self, solvers):
        wit = solvers.noncausal("flip")
        assert wit.value == pytest.approx(1.0, abs=1e-9)
        assert wit.value <= 1.0 + 1e-9
        assert wit.leak <= 1e-6

    def test_stuck_beats_causal(self, solvers):
        wit = solvers.noncausal("stuck")
        assert wit.value == pytest.approx(0.7, abs=1e-9)
        causal = solvers.causal("stuck")
        assert wit.value >= causal.value + 0.15

    def test_dominates_causal_everywhere(self, solvers, suite):
        for name in suite:
            assert solvers.noncausal(name).value >= solvers.causal(name).value - 1e-9

    def test_blocklength_two_dominates_causal_by_construction(self, suite, solvers):
        # One round from the lifted single-letter causal start alone (restarts=1
        # runs no random start), so the bound rests on that seed, not on a search.
        for name, ch in suite.items():
            wit = noncausal_lower_bound(ch, n=2, restarts=1, max_rounds=1)
            assert wit.value >= solvers.causal(name).value - 1e-9, name

    def test_purecq_frozen_value(self, solvers):
        assert solvers.noncausal("purecq").value == pytest.approx(
            0.3991239633071448, abs=1e-6
        )

    def test_witness_report_is_self_consistent(self, solvers, suite):
        for name, ch in suite.items():
            wit = solvers.noncausal(name)
            rep = gp_objective(ch, wit.q_given_s, wit.strategy)
            assert rep.value == pytest.approx(wit.value, abs=1e-12)
            assert wit.restart_index < wit.restarts

    def test_bracket_closes_except_on_purecq(self, solvers, suite):
        frozen_upper = {"flip": 1.0, "stuck": 0.7, "skew": 1.0, "purecq": 0.6008760366928562}
        for name in suite:
            wit = solvers.noncausal(name)
            assert wit.upper == pytest.approx(frozen_upper[name], abs=1e-9), name
            assert wit.value <= wit.upper + wit.upper_gap + BRACKET_TOL, name
            if name == "purecq":
                assert not wit.certified_optimal
            else:
                assert wit.value == pytest.approx(wit.upper, abs=1e-9), name
                assert wit.certified_optimal, name

    @staticmethod
    def assert_diagnostics(wit):
        assert max(wit.restart_values) == wit.restart_values[wit.restart_index] == wit.value
        assert wit.objective_evals > wit.ascent_steps > 0
        assert wit.restarts <= wit.rounds <= 2 * wit.restarts
        assert wit.leak_per_symbol == wit.leak / 2

    def test_diagnostics_describe_the_search(self, stuck):
        # The search stops after the first start that closes the bracket. On stuck that is the product of
        # the n = 1 witness, already a fixed point of the step: its one round accepts no q-step, and scores
        # its first witness, one rejected candidate, and the sweep's starting witness and 16 cells x 3
        # other inputs; it decomposes for its first witness, the ascent's start and candidate, and the
        # sweep's starting witness and 16 cells.
        wit = noncausal_lower_bound(stuck, n=2, restarts=3, seed=7, max_rounds=2)
        assert wit.certified_optimal
        assert wit.restart_values == (wit.value,) and wit.value >= wit.upper + wit.upper_gap - ALT_EPS
        assert (wit.restarts, wit.restart_rounds, wit.ascent_steps) == (1, (1,), 0)
        assert (wit.objective_evals, wit.decompositions) == (1 + 1 + 1 + 16 * 3, 1 + 2 + 1 + 16)
        assert wit.leak_per_symbol == wit.leak / 2

    def test_every_requested_start_runs_while_the_bracket_is_open(self, purecq):
        wit = noncausal_lower_bound(purecq, n=2, restarts=3, seed=7, max_rounds=2)
        assert not wit.certified_optimal
        assert all(v < wit.upper + wit.upper_gap - ALT_EPS for v in wit.restart_values)
        assert len(wit.restart_values) == wit.restarts == 3
        self.assert_diagnostics(wit)

    @pytest.mark.parametrize("n", [1, 2])
    def test_per_start_outcomes_add_up(self, suite, n):
        for name, ch in suite.items():
            wit = noncausal_lower_bound(ch, n=n, restarts=4, seed=3)
            assert len(wit.restart_rounds) == len(wit.restart_capped) == wit.restarts, name
            assert sum(wit.restart_rounds) == wit.rounds, name
            assert 0 <= wit.ascents_capped <= wit.rounds, name

    def test_a_start_cut_at_max_rounds_is_capped(self, purecq):
        # With one round, every random start still gains in it; the product start (purecq's
        # n = 1 witness is its causal one) is already where its round leaves it, so the
        # ALT_EPS rule stops it instead.
        wit = noncausal_lower_bound(purecq, n=2, restarts=4, seed=3, max_rounds=1)
        assert wit.restart_rounds == (1, 1, 1, 1)
        assert wit.restart_capped == (False, True, True, True)
        assert noncausal_lower_bound(purecq, n=2, restarts=4, seed=3).restart_capped == (False,) * 4

    @pytest.mark.parametrize("seeded, restarts, runs", [(False, 1, 1), (True, 1, 2), (True, 2, 2), (True, 4, 4)])
    def test_restarts_is_a_maximum_that_only_explicit_seeds_pass(self, purecq, seeded, restarts, runs):
        # The bracket stays open on purecq, so only the count stops the search.
        # The product start and every explicit seed always run; random starts
        # fill up to restarts, so restarts=1 alone runs the product start only.
        kw = dict(n=2, seed=3, max_rounds=1)
        first = noncausal_lower_bound(purecq, restarts=1, **kw)
        seeds = ((first.q_given_s, first.strategy),) if seeded else ()
        wit = noncausal_lower_bound(purecq, restarts=restarts, seed_witnesses=seeds, **kw)
        assert not wit.certified_optimal
        assert len(wit.restart_values) == wit.restarts == runs

    @pytest.mark.parametrize("aux_size", [0, -1])
    def test_empty_auxiliary_alphabet_is_rejected(self, flip, aux_size):
        with pytest.raises(PreconditionViolated, match="aux_size"):
            noncausal_lower_bound(flip, n=2, aux_size=aux_size, restarts=2, seed=1)

    @pytest.mark.parametrize("kw", [dict(aux_size=4), dict(aux_size=1), dict(seed_witnesses=((UNIFORM_Q, INVERTING),))])
    def test_search_arguments_are_refused_at_blocklength_one(self, flip, monkeypatch, kw):
        # The n = 1 solve takes every strategy and no start, so an alphabet size or start would do nothing.
        monkeypatch.setattr(noncausal, "causal_capacity", lambda *args: pytest.fail("a solve ran"))
        with pytest.raises(PreconditionViolated, match="at n = 1"):
            noncausal_lower_bound(flip, **kw)

    @pytest.mark.parametrize("kw", [
        dict(n=0), dict(n=-1), dict(restarts=0), dict(restarts=-5), dict(max_rounds=0), dict(max_rounds=-1),
    ])
    def test_nonpositive_blocklength_or_restarts_is_rejected(self, flip, kw):
        with pytest.raises(PreconditionViolated):
            noncausal_lower_bound(flip, seed=1, **{"restarts": 2, **kw})

    @pytest.mark.parametrize("name, restarts, draws", [("flip", 1000, 0), ("purecq", 4, 3)])
    def test_random_starts_are_drawn_as_the_search_reaches_them(self, suite, monkeypatch, name, restarts, draws):
        # At n = 2 flip's product start closes the bracket, so none of its 999 random
        # starts is drawn; purecq's bracket stays open, so all three are.
        keys = []

        def counted(*key):
            keys.append(key)
            return rng_for(*key)

        monkeypatch.setattr(noncausal, "rng_for", counted)
        wit = noncausal_lower_bound(suite[name], n=2, restarts=restarts, seed=1, max_rounds=1)
        assert keys == [(1, 2, r) for r in range(draws)]
        assert wit.restarts == draws + 1

    def test_aux_size_past_the_budget_is_refused_before_any_start(self, flip, monkeypatch):
        # A flip start at n = 2 is counted at 13 aux + 36 complex 4 x 4 matrices, 44 aux
        # + 4 floats and 16 KiB: 3,680 bytes per letter plus 25,632, so 172,832 at aux 40.
        monkeypatch.setenv(BUDGET_ENV_VAR, str(3_680 * 40 + 25_632))
        kw = dict(n=2, restarts=2, seed=1, max_rounds=1)
        with monkeypatch.context() as patched:
            patched.setattr(noncausal, "causal_capacity", lambda *args: pytest.fail("a solve ran"))
            patched.setattr(noncausal, "_alternate", lambda *args, **kwargs: pytest.fail("a start ran"))
            with pytest.raises(BudgetExceeded, match="aux_size 41"):
                noncausal_lower_bound(flip, aux_size=41, **kw)
        assert noncausal_lower_bound(flip, aux_size=40, **kw).value == pytest.approx(1.0, abs=1e-9)

    def test_a_solve_past_the_budget_is_refused_before_it_runs(self, purecq, monkeypatch):
        # purecq's n = 1 solve on its 4 strategies is counted at 8 + 20 complex 2 x 2
        # matrices, 58 floats and 16 KiB: 18,640 bytes, refused one byte below.
        monkeypatch.setenv(BUDGET_ENV_VAR, str(18_640 - 1))
        monkeypatch.setattr(noncausal, "causal_capacity", lambda *args: pytest.fail("a solve ran"))
        with pytest.raises(BudgetExceeded, match="n = 1 solve") as refused:
            noncausal_lower_bound(purecq)
        assert refused.value.details["start_bytes"] == 18_640

    def test_a_product_start_past_the_budget_is_refused_before_any_start(self, stuck, monkeypatch):
        # stuck's n = 1 witness has 2 letters, so at aux_size 1 its square is the largest start: 4 letters.
        kw = dict(n=2, aux_size=1, restarts=2, seed=1, max_rounds=1)
        ch_2 = product_extension(stuck, 2)
        product_bytes = noncausal._footprint(ch_2, 4, search=True)
        assert noncausal._footprint(ch_2, 1, search=True) < product_bytes
        with monkeypatch.context() as patched:
            patched.setenv(BUDGET_ENV_VAR, str(product_bytes - 1))
            patched.setattr(noncausal, "_alternate", lambda *args, **kwargs: pytest.fail("a start ran"))
            with pytest.raises(BudgetExceeded, match="2-fold product, 4 letters") as refused:
                noncausal_lower_bound(stuck, **kw)
        assert refused.value.details["start_bytes"] == product_bytes
        monkeypatch.setenv(BUDGET_ENV_VAR, str(product_bytes))
        assert noncausal_lower_bound(stuck, **kw).q_given_s.shape == (4, 4)

    @pytest.mark.parametrize("aux_size", [300, 1000])
    def test_aux_size_check_covers_a_start(self, purecq, monkeypatch, aux_size):
        # purecq's bracket stays open, so its random start runs a full round.
        kw = dict(n=2, aux_size=aux_size, restarts=2, seed=1, max_rounds=1)
        check = noncausal._footprint(product_extension(purecq, 2), aux_size, search=True)
        with monkeypatch.context() as patched:
            patched.setenv(BUDGET_ENV_VAR, str(check - 1))
            with pytest.raises(BudgetExceeded) as refused:
                noncausal_lower_bound(purecq, **kw)
        assert refused.value.details["start_bytes"] == check
        noncausal_lower_bound(purecq, **kw)
        tracemalloc.start()
        try:
            noncausal_lower_bound(purecq, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= check <= 2 * peak, (peak, check)


@settings(max_examples=10, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(2, 3), st.integers(2, 3)
)
def test_noncausal_is_bracketed_on_random_channels(seed, dim, num_states, num_inputs):
    ch = random_cq_channel(np.random.default_rng(seed), dim, num_states, num_inputs)
    wit = noncausal_lower_bound(ch, restarts=2, seed=seed)
    causal = causal_capacity(ch)
    # The bracket: averaged <= causal <= LB(n=1) <= UB + gap. The constant
    # strategies are Shannon strategies, and the first start is the causal witness.
    assert state_averaged_holevo(ch).value <= causal.value + causal.gap + BRACKET_TOL
    assert causal.value - 1e-9 <= wit.value <= wit.upper + wit.upper_gap + BRACKET_TOL
    rep = gp_objective(ch, wit.q_given_s, wit.strategy)
    assert rep.value == pytest.approx(wit.value, abs=1e-12)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(1, 3), st.integers(1, 3))
def test_upper_bound_caps_every_witness(seed, dim, num_states, num_inputs):
    # Any witness's per-symbol objective is at most I(X;B|S) <= UB, at n = 1 and 2 alike.
    rng = np.random.default_rng(seed)
    ch = random_cq_channel(rng, dim, num_states, num_inputs)
    upper = noncausal_upper_bound(ch)
    assert len(upper.per_state) == num_states
    weighted = sum(ch.p[s] * sol.value for s, sol in enumerate(upper.per_state))
    assert upper.value == pytest.approx(weighted, abs=1e-15)
    for n in (1, 2):
        ch_n = ch if n == 1 else product_extension(ch, n)
        for num_u in (2, 5):
            for q, strat in interior_witnesses(ch_n, num_u, rng):
                assert gp_objective(ch_n, q, strat, n=n).value <= upper.value + upper.gap + BRACKET_TOL


class TestClassicalOracle:
    def test_flip_oracle_near_one_bit(self, flip):
        gp = ClassicalGP.from_channel(flip)
        val = classical_gp_oracle(
            gp, aux_size=2, grid_step=0.2, refine_rounds=8, eval_budget=200000
        )
        assert val == pytest.approx(1.0, abs=5e-4)

    def test_stuck_oracle_near_surviving_fraction(self, stuck):
        gp = ClassicalGP.from_channel(stuck)
        val = classical_gp_oracle(
            gp, aux_size=2, grid_step=0.2, refine_rounds=8, eval_budget=200000
        )
        assert val == pytest.approx(0.7, abs=5e-4)

    def test_oracle_never_beats_log_inputs(self, stuck):
        gp = ClassicalGP.from_channel(stuck)
        val = classical_gp_oracle(
            gp, aux_size=2, grid_step=0.25, refine_rounds=4, eval_budget=50000
        )
        assert val <= 1.0 + 1e-9

    def test_from_channel_requires_classical(self, purecq):
        with pytest.raises(GpcqError):
            ClassicalGP.from_channel(purecq)


@pytest.fixture(scope="module")
def solved(suite):
    """The corpus and 40 random channels, each with its n = 1 witness."""
    rng = np.random.default_rng(2026)
    channels = [*suite.items()]
    for k in range(40):
        num_states, num_inputs, dim = random_sizes(rng)
        channels.append((f"random {k}", random_cq_channel(rng, dim, num_states, num_inputs, random_ranks=True)))
    return [(label, ch, noncausal_lower_bound(ch)) for label, ch in channels]


class TestSingleLetterSolve:
    def test_objective_is_concave_in_q_for_a_fixed_table(self):
        # chi(U;B) - I(U;S) = I(SU;B) - I(S;UB): a Holevo quantity concave in its weights minus one convex
        # in its channel, both linear in q. Midpoints of random witness pairs on one table, which repeats
        # its first column.
        rng = np.random.default_rng(1606)
        for k in range(300):
            num_states, num_inputs, dim = random_sizes(rng)
            ch = random_cq_channel(rng, dim, num_states, num_inputs, random_ranks=True)
            num_u = int(rng.integers(2, 7))
            strat = rng.integers(0, ch.num_inputs, size=(ch.num_states, num_u))
            strat[:, -1] = strat[:, 0]
            a, b = (rng.dirichlet(np.ones(num_u), size=ch.num_states) for _ in range(2))
            t = float(rng.random())
            f_a, f_b, f_mix = (gp_objective(ch, q, strat).value for q in (a, b, t * a + (1 - t) * b))
            assert f_mix >= t * f_a + (1 - t) * f_b - 1e-12, k

    def test_corpus_values(self, solved, solvers):
        frozen = {"flip": 1.0, "stuck": 0.7, "skew": 1.0, "purecq": 0.3991239633071448}
        for label, ch, wit in solved[:4]:
            assert wit.value >= frozen[label] - 1e-12, label
            assert wit.value >= solvers.causal(label).value, label
        assert [wit.value for label, _, wit in solved if label in ("flip", "skew")] == [1.0, 1.0]

    def test_dominates_the_causal_witness_by_construction(self, solved):
        # Start 0 is the causal witness, and the solve's witness is reported only when strictly better.
        for label, ch, wit in solved:
            assert wit.value >= wit.restart_values[0], label
            assert wit.restart_values[wit.restart_index] == wit.value == max(wit.restart_values), label
            assert wit.restarts == 1 + (wit.restart_values[0] < wit.upper + wit.upper_gap - ALT_EPS), label

    def test_is_at_least_the_restarted_search(self, solved):
        for label, ch, wit in solved:
            assert wit.value >= reference.restarted_search(ch, restarts=8, seed=0) - 1e-10, label

    @pytest.mark.xfail(strict=True, reason="the ascent hits its step cap 2.5e-6 below the restarted search")
    def test_is_at_least_the_restarted_search_where_the_ascent_is_slow(self):
        # Channel 73 of the random draw: |S| = 2, |X| = d = 3. The multiplicative step still rises after
        # causal.INNER_MAX_ITER steps, and ends at 0.82729698 against the search's 0.82729953.
        rng = np.random.default_rng(2026)
        for _ in range(74):
            num_states, num_inputs, dim = random_sizes(rng)
            ch = random_cq_channel(rng, dim, num_states, num_inputs, random_ranks=True)
        wit = noncausal_lower_bound(ch)
        assert wit.restart_capped == (False, True)
        assert wit.value >= reference.restarted_search(ch, restarts=8, seed=0) - 1e-10

    def test_ignores_restarts_seed_and_max_rounds(self, solved):
        for label, ch, wit in solved[:4]:
            for kw in (dict(restarts=1, seed=5), dict(restarts=32, seed=7, max_rounds=3), dict(restarts=1000, seed=2**40)):
                assert_same_witness(noncausal_lower_bound(ch, **kw), wit)

    def test_keeps_the_first_of_strategies_with_equal_letter_states(self, stuck):
        # stuck's state 1 outputs |0> on both inputs, so of the four strategies two are distinct, each first
        # in lexicographic order of its pair: (0, 0) and (1, 0).
        columns = noncausal._distinct_strategies(stuck.tensor, noncausal.strategy_columns(2, 2))
        assert columns.tolist() == [[0, 0], [1, 0]]
        wit = noncausal_lower_bound(stuck)
        assert wit.restarts == 2 and wit.strategy.T.tolist() == [[0, 0], [1, 0]]

    def test_blocklength_two_is_at_least_blocklength_one(self, solved):
        # The first n = 2 start is the product of the n = 1 witness, trimmed where that does not lower its
        # value, and the search only accepts gains. Trimmed, no start squares the ascent's up to 27 strategies.
        for label, ch, wit in solved:
            pair = noncausal_lower_bound(ch, n=2, restarts=1, max_rounds=1)
            assert pair.value >= wit.value - 1e-14, label
            assert pair.restart_values[0] >= wit.value - 1e-14, label
            assert pair.aux_size == product_factor(ch, wit)[0].shape[1] ** 2 <= 16, label
