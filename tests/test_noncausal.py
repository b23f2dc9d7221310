"""Non-causal lower bound: witness objective, ascent, and classical oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpcq.causal import causal_capacity
from gpcq.channel import build_channel, product_extension
from gpcq.errors import GpcqError, PreconditionViolated, ShapeMismatch
from gpcq.noncausal import (
    ClassicalGP,
    _cross_term,
    _objective,
    _q_step,
    classical_gp_oracle,
    classical_leak_check,
    default_aux_size,
    gp_objective,
    mutual_information,
    noncausal_lower_bound,
    product_witness,
    trim_witness,
    witness_conditionals_close,
)
from gpcq.util import random_density_matrix

UNIFORM_Q = np.array([[0.5, 0.5], [0.5, 0.5]])
INVERTING = np.array([[0, 1], [1, 0]])


def random_cq_channel(rng, dim, num_states, num_inputs):
    """Channel with random full-rank outputs and a random state prior."""
    states = {
        (str(s), str(x)): random_density_matrix(dim, rng)
        for s in range(num_states)
        for x in range(num_inputs)
    }
    p = rng.dirichlet(np.ones(num_states))
    return build_channel(
        [str(s) for s in range(num_states)], [str(x) for x in range(num_inputs)], dim, states, p
    )


def interior_witnesses(ch, num_u, rng, count=2):
    """Random witnesses with every q(u|s) >= 1/(2|U|)."""
    for _ in range(count):
        q = 0.5 * rng.dirichlet(np.ones(num_u), size=ch.num_states) + 0.5 / num_u
        yield q, rng.integers(0, ch.num_inputs, size=q.shape)


def corpus_blocks(suite, n):
    for name, ch in suite.items():
        yield name, ch, (ch if n == 1 else product_extension(ch, n))


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


class TestAscentGradient:
    @pytest.mark.parametrize("n", [1, 2])
    def test_closed_form_matches_central_differences(self, suite, n):
        # p(s)(c(s,u) - log q(u|s)) is the gradient up to a per-row constant.
        # Interior witnesses keep the central differences away from the log
        # singularity at q = 0.
        rng = np.random.default_rng(1506 + n)
        h = 1e-6
        for name, ch, ch_n in corpus_blocks(suite, n):
            p, tensor = ch_n.p.probs, ch_n.tensor()
            num_u = default_aux_size(ch.num_states, ch.num_inputs, n)
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
                grad = p[:, None] * (_cross_term(p, tensor, q, strat) - np.log2(q))
                grad -= grad.mean(axis=1, keepdims=True)
                scale = float(np.abs(grad).max())
                assert float(np.abs(grad - fd).max()) <= 1e-6 * scale, (name, n)


class TestAscentStep:
    def _assert_step_never_lowers(self, ch_n, num_u, rng, label):
        p, tensor = ch_n.p.probs, ch_n.tensor()
        for q, strat in interior_witnesses(ch_n, num_u, rng, count=4):
            step = _q_step(p, tensor, q, strat)
            assert np.all(step >= 0) and np.allclose(step.sum(axis=1), 1.0, atol=1e-12)
            before = _objective(p, tensor, q, strat).value
            after = _objective(p, tensor, step, strat).value
            assert after >= before - 1e-12, (label, before, after)

    @pytest.mark.parametrize("n", [1, 2])
    def test_unguarded_step_never_lowers_objective_on_corpus(self, suite, n):
        rng = np.random.default_rng(2004 + n)
        for name, ch, ch_n in corpus_blocks(suite, n):
            num_u = default_aux_size(ch.num_states, ch.num_inputs, n)
            self._assert_step_never_lowers(ch_n, num_u, rng, (name, n))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_unguarded_step_never_lowers_objective_on_random_channels(self, dim):
        rng = np.random.default_rng(1905 + dim)
        for k in range(5):
            ch = random_cq_channel(rng, dim, 2, 2)
            self._assert_step_never_lowers(ch, default_aux_size(2, 2, 1), rng, (dim, k))


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

    def test_conditionals_close(self):
        assert witness_conditionals_close(UNIFORM_Q, UNIFORM_Q, tol=1e-12)
        far = np.array([[0.9, 0.1], [0.5, 0.5]])
        assert not witness_conditionals_close(UNIFORM_Q, far, tol=1e-3)
        with pytest.raises(ShapeMismatch):
            witness_conditionals_close(UNIFORM_Q, np.ones((3, 2)) / 2, tol=1.0)

    def test_leak_check(self):
        assert classical_leak_check(UNIFORM_Q, np.array([0.5, 0.5])) == pytest.approx(
            0.0, abs=1e-12
        )
        assert classical_leak_check(np.eye(2), np.array([0.5, 0.5])) == pytest.approx(
            1.0, abs=1e-12
        )


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
        # One round from one random start, so the bound rests on the lifted
        # single-letter causal seed rather than on the search.
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

    def test_diagnostics_describe_the_search(self, stuck):
        wit = noncausal_lower_bound(stuck, n=2, restarts=3, seed=7, max_rounds=2)
        assert len(wit.restart_values) == wit.restarts == 3
        assert max(wit.restart_values) == wit.restart_values[wit.restart_index] == wit.value
        assert wit.objective_evals > wit.ascent_steps > 0
        assert wit.leak_per_symbol == wit.leak / 2

    @pytest.mark.parametrize("aux_size", [0, -1])
    def test_empty_auxiliary_alphabet_is_rejected(self, flip, aux_size):
        with pytest.raises(PreconditionViolated):
            noncausal_lower_bound(flip, aux_size=aux_size, restarts=2, seed=1)


@settings(max_examples=10, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(2, 3), st.integers(2, 3)
)
def test_noncausal_is_bracketed_on_random_channels(seed, dim, num_states, num_inputs):
    ch = random_cq_channel(np.random.default_rng(seed), dim, num_states, num_inputs)
    wit = noncausal_lower_bound(ch, restarts=2, seed=seed)
    assert causal_capacity(ch).value - 1e-9 <= wit.value <= np.log2(dim) + 1e-9
    rep = gp_objective(ch, wit.q_given_s, wit.strategy)
    assert rep.value == pytest.approx(wit.value, abs=1e-12)


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
