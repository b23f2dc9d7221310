"""Causal-encoder capacity: Shannon strategies and certified inner solver."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpcq.causal import (
    INNER_MAX_ITER,
    STRATEGY_CAP,
    Strategy,
    causal_capacity,
    inner_maximize,
    state_averaged_holevo,
)
from gpcq.channel import build_channel, derived_states, letter_states
from gpcq.errors import CapExceeded, GpcqError, PreconditionViolated
from gpcq.quantum import holevo_quantity

import classical_oracles
from classical_oracles import ClassicalGP, classical_channel_capacity, shannon_strategy_oracle

KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)

CHI_ZERO_PLUS = 0.6008760366928562
STUCK_CLOSED_FORM = 0.5036919334848172  # log2(1 + 0.7 * 0.3**(3/7))


def random_ensemble(rng, num, dim):
    mats = rng.normal(size=(num, dim, dim)) + 1j * rng.normal(size=(num, dim, dim))
    states = mats @ mats.conj().transpose(0, 2, 1)
    return states / np.trace(states, axis1=1, axis2=2)[:, None, None]


def random_classical_channel(rng, num_inputs, dim):
    """Two-state channel with diagonal outputs: rows are random pmfs."""
    rows = rng.dirichlet(np.ones(dim), size=(2, num_inputs))
    states = {(s, str(x)): np.diag(rows[int(s), x]).astype(complex) for s in "01" for x in range(num_inputs)}
    p = rng.dirichlet(np.ones(2))
    return build_channel("01", [str(x) for x in range(num_inputs)], dim, states, p), rows, p


class TestStrategyEnumeration:
    def test_cap_enforced(self):
        # 20 states and 2 inputs give 2**20 strategies; the cap is checked
        # before any strategy table or derived state is allocated.
        dim1 = np.ones((1, 1), dtype=complex)
        labels = [str(s) for s in range(20)]
        states = {(s, x): dim1 for s in labels for x in "01"}
        ch = build_channel(labels, "01", 1, states, np.full(20, 1 / 20))
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded) as exc:
                causal_capacity(ch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.details == {"count": 2**20, "cap": STRATEGY_CAP}
        assert peak < 2**20
        with pytest.raises(CapExceeded):
            shannon_strategy_oracle(np.ones((20, 2, 1)), np.full(20, 1 / 20))

    def test_kernel_is_deterministic_row_stochastic(self):
        # Through a noiseless classical channel (rho[s, x] = |x><x|) the
        # letter states of a strategy carry its kernel W(x | s, u) on their
        # diagonals; columns[u][s] is the input, so the (s, u) table is .T.
        # The strategy is asymmetric, so a missing transpose would show.
        strat = Strategy(((0, 0), (1, 0)))
        noiseless = np.stack([np.stack([KET0, KET1])] * 2)
        states = letter_states(noiseless, np.asarray(strat.columns).T)
        k = np.diagonal(states, axis1=2, axis2=3).real
        assert k.shape == (2, 2, 2)
        assert np.array_equal(k.sum(axis=2), np.ones((2, 2)))
        assert set(np.unique(k)) == {0.0, 1.0}
        assert k[0, 1, 1] == 1  # input 1 for state 0 under strategy 1


class TestInnerMaximize:
    def test_identical_states_give_zero(self):
        sol = inner_maximize(np.stack([PLUS, PLUS]))
        assert sol.value == pytest.approx(0.0, abs=1e-12)
        assert sol.gap <= 1e-9

    def test_orthogonal_pair(self):
        sol = inner_maximize(np.stack([KET0, KET1]))
        assert sol.value == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(sol.q, [0.5, 0.5], atol=1e-6)

    def test_zero_plus_pair_frozen_value(self):
        sol = inner_maximize(np.stack([KET0, PLUS]))
        assert sol.value == pytest.approx(CHI_ZERO_PLUS, abs=5e-6)
        assert sol.converged
        assert np.allclose(sol.q, [0.5, 0.5], atol=1e-4)

    def test_gap_certifies_optimum(self, rng):
        # value + gap dominates the objective at arbitrary weights.
        for _ in range(20):
            states = random_ensemble(rng, num=3, dim=3)
            sol = inner_maximize(states)
            for _ in range(10):
                probe = rng.dirichlet(np.ones(3))
                assert holevo_quantity(probe, states) <= sol.value + sol.gap + 1e-9

    def test_single_state(self):
        sol = inner_maximize(PLUS[None])
        assert sol.value == 0.0 and sol.converged

    def test_stalled_solve_reports_iterations_run(self):
        # A gap of exactly zero is out of reach in floating point, so the
        # ascent stops once no step improves the value.
        states = random_ensemble(np.random.default_rng(3), num=3, dim=3)
        sol = inner_maximize(states, eps=0.0)
        assert not sol.converged
        assert sol.iterations < INNER_MAX_ITER
        assert sol.gap <= 1e-6

    @pytest.mark.parametrize("eps", [-1.0, -1e-12, float("nan")])
    def test_unreachable_eps_is_refused(self, eps):
        # No gap is below a negative eps, so such a solve could only stall.
        with pytest.raises(PreconditionViolated):
            inner_maximize(PLUS[None], eps=eps)

    def test_step_that_empties_a_pure_letter_still_converges(self):
        # At the far end of a step toward KET0 the mixed letters leave the
        # support of rho_bar, where the slope is -inf; the line search must
        # shrink the step, not take it.
        rows = np.array([[0.78, 0.22], [1.0, 0.0], [0.22, 0.78]])
        sol = inner_maximize(np.stack([np.diag(r) for r in rows]).astype(complex))
        assert sol.converged and sol.gap <= 1e-6
        assert sol.value == pytest.approx(classical_channel_capacity(rows), abs=1e-6)

    def test_non_finite_states_are_rejected(self):
        bad = KET0.copy()
        bad[0, 1] = np.nan
        with pytest.raises(GpcqError, match="non-finite"):
            inner_maximize(np.stack([bad, KET1]))


class TestCausalCapacity:
    def test_stateless_orthogonal_channel_is_one_bit(self):
        ch = build_channel(["0"], "01", 2, {("0", "0"): KET0, ("0", "1"): KET1}, [1.0])
        sol = causal_capacity(ch)
        assert sol.value == pytest.approx(1.0, abs=1e-9)
        assert sol.aux_size == 2
        assert sol.strategies_searched == 2

    def test_state_independent_reduces_to_holevo(self):
        states = {(s, x): (KET0 if x == "0" else PLUS) for s in "01" for x in "01"}
        ch = build_channel("01", "01", 2, states, [0.5, 0.5])
        sol = causal_capacity(ch)
        assert sol.value == pytest.approx(CHI_ZERO_PLUS, abs=5e-6)

    def test_flip_reaches_one_bit(self, solvers):
        sol = solvers.causal("flip")
        assert sol.value == pytest.approx(1.0, abs=1e-6)
        # The winning strategy inverts the flip: different inputs per state.
        cols = np.asarray(sol.strategy.columns)
        assert any(len(set(col)) == 2 for col in cols)

    def test_stuck_matches_closed_form(self, solvers):
        sol = solvers.causal("stuck")
        assert sol.value == pytest.approx(STUCK_CLOSED_FORM, abs=1e-9)
        assert sol.gap <= 1e-6

    def test_skew_reaches_one_bit(self, solvers):
        assert solvers.causal("skew").value == pytest.approx(1.0, abs=1e-6)

    def test_purecq_frozen_value(self, solvers):
        assert solvers.causal("purecq").value == pytest.approx(
            0.3991239633071448, abs=1e-9
        )

    def test_stuck_support_has_three_letters(self, solvers):
        sol = solvers.causal("stuck")
        assert sol.aux_size >= 3  # two strategies cannot reach the capacity
        assert sol.aux_size == len(sol.strategy.columns) == sol.q.size
        assert np.all(sol.q > 0)
        assert sol.strategies_searched == 4

    def test_rerun_is_bit_identical(self, stuck):
        a = causal_capacity(stuck)
        b = causal_capacity(stuck)
        assert a.value == b.value and a.gap == b.gap
        assert np.array_equal(a.q, b.q)
        assert a.strategy == b.strategy
        assert a.iterations == b.iterations

    def test_derived_ensemble_shapes(self, stuck):
        # columns[u][s] is the input for state s under strategy u, so the
        # (s, u) strategy table handed to derived_states is its transpose.
        strat = Strategy(((0, 0), (1, 0), (1, 1)))
        table = np.asarray(strat.columns).T
        ens = derived_states(stuck.p, stuck.tensor, np.ones(table.shape), table)
        assert ens.shape == (3, 2, 2)
        assert np.allclose(np.trace(ens, axis1=1, axis2=2).real, 1.0, atol=1e-12)
        p, tensor = stuck.p, stuck.tensor
        expected = p[0] * tensor[0, 1] + p[1] * tensor[1, 0]
        assert np.allclose(ens[1], expected, atol=1e-15)


def test_causal_bound_dominates_state_averaged_holevo(suite, solvers):
    # The constant strategies are among the Shannon strategies, so the causal
    # upper bound value + gap is never below the state-averaged Holevo value.
    # test_noncausal_is_bracketed_on_random_channels checks it on random channels.
    for name, ch in suite.items():
        causal, averaged = solvers.causal(name), state_averaged_holevo(ch)
        assert averaged.converged
        assert causal.value + causal.gap >= averaged.value - 1e-12, name


class TestClassicalCrossChecks:
    def test_binary_symmetric_channel(self):
        def h2(p):
            return -p * np.log2(p) - (1 - p) * np.log2(1 - p)

        W = np.array([[0.89, 0.11], [0.11, 0.89]])
        assert classical_channel_capacity(W) == pytest.approx(1 - h2(0.11), abs=1e-6)

    def test_noiseless_channel(self):
        assert classical_channel_capacity(np.eye(4)) == pytest.approx(2.0, abs=1e-9)

    def test_uncertified_capacity_raises_with_gap(self, monkeypatch):
        # Plain Blahut-Arimoto needs about 51k steps to certify this strategy
        # channel. With 10 steps per support and no Newton steps, no support
        # of at most |Y| = 3 of its 9 rows reaches the stop.
        _, rows, p = random_classical_channel(np.random.default_rng(1), 3, 3)
        monkeypatch.setattr(classical_oracles, "CLASSICAL_BA_STEPS", 10)
        monkeypatch.setattr(classical_oracles, "NEWTON_MAX_ITER", 0)
        with pytest.raises(GpcqError) as exc:
            shannon_strategy_oracle(rows, p)
        assert exc.value.details["supports"] == 9 + 36 + 84
        assert exc.value.details["gap"] > 1e-9

    @pytest.mark.parametrize(
        "seed, num_inputs, dim, capacity",
        [
            (1, 3, 3, 0.2570913269719035),
            (1984, 2, 3, 0.22332386308036065),
            (1763437, 3, 3, 0.5190797383494427),
            (3187881530, 3, 2, 0.1929588808479167),
            (30146702, 2, 2, 0.00034231429409634865),
        ],
    )
    def test_oracle_certifies_draws_where_blahut_arimoto_stalls(self, seed, num_inputs, dim, capacity):
        # Plain Blahut-Arimoto left the last four draws above the 1e-9 stop
        # after 10^6 steps, and the first needed about 51k. The frozen values
        # agree with causal_capacity within its gap (at most 6.6e-7); that
        # solve takes seconds on some of these draws, so it is not rerun here.
        _, rows, p = random_classical_channel(np.random.default_rng(seed), num_inputs, dim)
        assert shannon_strategy_oracle(rows, p) == pytest.approx(capacity, abs=1e-9)

    def test_strategy_oracle_agrees_on_stuck(self, stuck, solvers):
        gp = ClassicalGP.from_channel(stuck)
        sol = solvers.causal("stuck")
        oracle = shannon_strategy_oracle(gp.w, gp.p)
        assert oracle == pytest.approx(sol.value, abs=1e-6)

    def test_strategy_oracle_agrees_on_flip(self, flip, solvers):
        gp = ClassicalGP.from_channel(flip)
        sol = solvers.causal("flip")
        oracle = shannon_strategy_oracle(gp.w, gp.p)
        assert oracle == pytest.approx(sol.value, abs=1e-6)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_inner_value_bounded_by_log_dim(seed):
    rg = np.random.default_rng(seed)
    states = random_ensemble(rg, num=3, dim=2)
    sol = inner_maximize(states)
    assert -1e-12 <= sol.value <= 1.0 + 1e-9
    assert sol.gap >= -1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(2, 3))
def test_causal_matches_strategy_oracle_on_classical_channels(seed, num_inputs, dim):
    ch, rows, p = random_classical_channel(np.random.default_rng(seed), num_inputs, dim)
    sol = causal_capacity(ch)
    assert sol.gap <= 1e-6
    assert sol.value == pytest.approx(shannon_strategy_oracle(rows, p), abs=1e-6)
