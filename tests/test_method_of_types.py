"""Method of types: type classes, typical sets, matching, and coverage."""

import functools
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpcq.errors import CapExceeded, GpcqError, LengthMismatch, PreconditionViolated
from gpcq.method_of_types import (
    SEQUENCE_ENUMERATION_CAP,
    coverage_probability,
    matched_set_members,
    multinomial_exact,
    nearest_type,
    type_class_size,
    type_class_words,
    typical_mass,
    typical_types,
)
from gpcq.quantum import kl_divergence, shannon_entropy
from gpcq.util import compositions, digit_table, rng_for

from code_reference import joint_type, joint_type_completion

COVER_JOINT = np.array([[0.35, 0.15], [0.15, 0.35]])


def inline_member(s_seq, u_seq, p_su, delta):
    """Matched-set test written out with kl_divergence, one pair at a time."""
    num_s, num_u = p_su.shape
    jt = joint_type(s_seq, u_seq, num_s, num_u)
    t = jt.sum(axis=0)
    p_u = p_su.sum(axis=0)
    worst = 0.0
    for u in range(num_u):
        if t[u] == 0:
            continue
        if p_u[u] <= 0:
            return False
        worst = max(worst, (t[u] / len(s_seq)) * kl_divergence(jt[:, u] / t[u], p_su[:, u] / p_u[u]))
    return worst <= delta / 2


def m_set_contains(s_seq, u_seq, p_su: np.ndarray, delta: float) -> bool:
    """Whether the state sequence is matched by the auxiliary word.

    One entry of matched_set_members; unequal lengths raise LengthMismatch.
    """
    return bool(
        matched_set_members(np.asarray(s_seq)[None, :], np.asarray(u_seq)[None, :], p_su, delta)[0, 0]
    )


class TestTypeClassSize:
    def test_degenerate_type(self):
        out = type_class_size((4, 0))
        assert out.size == 1
        assert out.lower <= 1 <= out.upper

    def test_balanced_pairs(self):
        assert type_class_size((1, 1)).size == 2
        out = type_class_size((2, 2))
        assert out.size == 6
        assert out.lower == pytest.approx(16 / 25, abs=1e-12)
        assert out.upper == pytest.approx(16.0, abs=1e-12)

    def test_partition_of_sequence_space(self):
        for d, n in [(2, 6), (3, 5)]:
            total = sum(type_class_size(f).size for f in compositions(n, d))
            assert total == d**n

    @pytest.mark.parametrize("counts, match", [((3, -1), "negative count"), ((0, 0), "empty type")])
    def test_invalid_counts_rejected(self, counts, match):
        with pytest.raises(GpcqError, match=match):
            type_class_size(counts)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 9), min_size=2, max_size=4).filter(lambda c: sum(c) > 0))
    def test_sandwich_always_holds(self, counts):
        out = type_class_size(counts)
        assert out.lower <= out.size <= out.upper * (1 + 1e-12)


@functools.lru_cache(maxsize=None)
def composition_table(n, d):
    return np.array(list(compositions(n, d)), dtype=np.int64).reshape(-1, d)


def enumerated_nearest_type(p, n):
    """Reference: the first composition, in enumeration order, at the least L1 distance.

    Distances within 2e-12/n of the least count as equal: moving one count
    between two letters changes the distance by 2/n times the gap of their
    fractional parts, so this is the 1e-12 tie rule of nearest_type, and the
    enumeration order lets the later letter win. Letters of zero mass keep
    zero counts.
    """
    p = np.asarray(p, dtype=float)
    table = composition_table(n, p.size)
    l1 = np.abs(table / n - p).sum(axis=1)
    l1[np.any((table > 0) & (p == 0), axis=1)] = np.inf
    return table[np.flatnonzero(l1 <= l1.min() + 2e-12 / n)[0]]


def seeded_marginals(rng, count):
    """Dirichlet draws, draws with zero letters, exact rationals, and rationals
    moved by 3e-14 (a tie under the 1e-12 rule) or 1e-11 (not a tie)."""
    for i in range(count):
        d, n = int(rng.integers(2, 6)), int(rng.integers(1, 14))
        kind = i % 5
        if kind < 2:
            p = rng.dirichlet(np.ones(d))
            if kind == 1:
                p[rng.random(d) < 0.4] = 0.0
                p[int(rng.integers(d))] += 1e-3
                p /= p.sum()
        else:
            k = rng.integers(0, 6, d)
            k[int(rng.integers(d))] += 1
            p = k / k.sum()
            used = np.flatnonzero(p > 0)
            if kind > 2 and used.size > 1:
                up, down = rng.choice(used, 2, replace=False)
                eps = 3e-14 if kind == 3 else 1e-11
                p[up] += eps
                p[down] -= eps
        yield p, n


# Auxiliary marginals that the seeded `gpcq simulate` runs on the corpus
# (scripts/cli_fingerprint.py) pass to nearest_type, with the counts they got
# from the composition enumeration; several sit at or near ties.
SIMULATED_MARGINALS = [
    ([0.4999999999989999, 0.5000000000010001], 2, [1, 1]),
    ([0.4999999999989999, 0.5000000000010001], 4, [2, 2]),
    ([0.3289993865929327, 0.25, 0.17100061340706732, 0.25], 2, [1, 0, 0, 1]),
    ([0.49999999999607925, 0.5000000000039208], 2, [1, 1]),
    ([0.49999999999607925, 0.5000000000039208], 4, [2, 2]),
    ([0.19863537937312098, 0.45136462062620714, 0.3500000000006718], 2, [0, 1, 1]),
    ([0.19863537937312098, 0.45136462062620714, 0.3500000000006718], 4, [1, 2, 1]),
    ([0.5, 0.5], 2, [1, 1]),
    ([0.5, 0.5], 4, [2, 2]),
]


class TestNearestType:
    def test_exact_type_returned_unchanged(self):
        assert np.array_equal(nearest_type([0.5, 0.5], 4), [2, 2])
        assert np.array_equal(nearest_type([1 / 3, 2 / 3], 3), [1, 2])

    def test_seven_letter_rounding(self):
        counts = nearest_type([0.4, 0.6], 7)
        assert np.array_equal(counts, [3, 4])
        assert np.abs(counts / 7 - [0.4, 0.6]).sum() == pytest.approx(2 / 35, abs=1e-12)

    def test_small_n_gets_the_closest_type(self):
        counts = nearest_type([0.35, 0.33, 0.32], 8)
        assert np.array_equal(counts, enumerated_nearest_type([0.35, 0.33, 0.32], 8))
        assert np.array_equal(counts, [3, 3, 2])

    def test_zero_pattern_preserved(self):
        counts = nearest_type([0.45, 0.0, 0.55], 9)
        assert counts[1] == 0 and counts.sum() == 9

    def test_refuses_non_distributions(self):
        for p in ([0.5, 0.6], [1.2, -0.2]):
            with pytest.raises(GpcqError, match="probability vector"):
                nearest_type(p, 4)

    @pytest.mark.parametrize("n", [2**53, 2**53 + 1, 10**19, 10**400])
    def test_n_from_2_to_the_53_is_refused(self, n):
        with pytest.raises(CapExceeded, match="2\\^53"):
            nearest_type([0.5, 0.5], n)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 5),
        st.one_of(st.integers(1, 10**6), st.integers(1, 2**53 - 1), st.just(2**53 - 1)),
        st.sampled_from([0.0, 1e-16, -1e-16, 9e-10, -9e-10]),
    )
    def test_every_accepted_n_gets_counts_that_sum_to_n(self, seed, d, n, shift):
        # shift moves p's sum off 1 by up to the 1e-9 that nearest_type accepts, which at a large n
        # leaves far more leftover counts than letters, or floors that sum past n.
        p = np.random.default_rng(seed).dirichlet(np.ones(d))
        p[-1] = max(p[-1] + shift, 0.0)
        if abs(p.sum() - 1.0) > 1e-9:
            return
        counts = nearest_type(p, n)
        assert counts.sum() == n and np.all(counts >= 0) and np.all(counts[p == 0] == 0)
        assert np.abs(counts / n - p).sum() <= 2 * np.count_nonzero(p) / n + abs(p.sum() - 1.0) + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(0, 40))
    def test_rounding_distance_bound(self, seed, d, extra):
        rg = np.random.default_rng(seed)
        p = rg.dirichlet(np.ones(d))
        n = d * d + extra
        counts = nearest_type(p, n)
        support = int(np.sum(p > 0))
        assert counts.sum() == n
        assert np.abs(counts / n - p).sum() <= 2 * support / n + 1e-12

    def test_equals_enumeration_on_seeded_draws(self):
        for p, n in seeded_marginals(np.random.default_rng(5), 10_000):
            assert np.array_equal(nearest_type(p, n), enumerated_nearest_type(p, n)), (p.tolist(), n)

    @pytest.mark.parametrize("p, n, counts", SIMULATED_MARGINALS)
    def test_simulated_marginals_keep_their_counts(self, p, n, counts):
        assert np.array_equal(nearest_type(p, n), counts)
        for m in range(1, 14):
            assert np.array_equal(nearest_type(p, m), enumerated_nearest_type(p, m))


def typical_mass_threshold(p, delta: float, n_max: int) -> int | None:
    """Smallest n0 <= n_max with mass(n) >= 1 - 2^(-n delta / 2) for all n in [n0, n_max].

    Returns None when the bound fails at n_max itself (for small delta the
    advertised exponent eventually loses to the true large-deviation rate,
    so no threshold exists).
    """
    good_from = None
    for n in range(1, n_max + 1):
        ok = typical_mass(p, delta, n) >= 1.0 - 2.0 ** (-n * delta / 2.0)
        if ok and good_from is None:
            good_from = n
        elif not ok:
            good_from = None
    return good_from


class TestTypicalMass:
    def test_huge_window_captures_everything(self):
        assert typical_mass([0.3, 0.7], 2.0, 9) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_source(self):
        assert typical_mass([1.0, 0.0], 0.0, 12) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_binary_uniform(self):
        assert typical_mass([0.5, 0.5], 0.2, 20) == pytest.approx(
            0.7368240356445332, abs=1e-12
        )

    def test_threshold_found_for_wide_windows(self):
        assert typical_mass_threshold([0.5, 0.5], 0.8, 16) == 2
        assert typical_mass_threshold([0.5, 0.5], 1.0, 16) == 1
        assert typical_mass_threshold([0.9, 0.1], 0.4, 16) == 1

    def test_threshold_absent_for_narrow_window(self):
        # The advertised exponent delta/2 = 0.1 exceeds the true
        # large-deviation rate KL(0.6 || 0.5) ~ 0.029, so mass at n = 20
        # already sits below the target and no threshold exists.
        assert typical_mass_threshold([0.5, 0.5], 0.2, 20) is None
        assert typical_mass([0.5, 0.5], 0.2, 20) < 1 - 2 ** (-20 * 0.1)
        assert kl_divergence([0.6, 0.4], [0.5, 0.5]) < 0.1

    def test_mass_monotone_in_delta(self):
        masses = [typical_mass([0.25, 0.75], d, 16) for d in (0.05, 0.2, 0.5, 1.0)]
        assert all(a <= b + 1e-12 for a, b in zip(masses, masses[1:]))

    def test_enumeration_cap(self):
        with pytest.raises(CapExceeded):
            typical_types([0.25] * 4, 0.1, 600)


class TestJointCompletion:
    def test_point_mass_conditional_copies_states(self):
        pm = np.array([[0.5, 0.0], [0.0, 0.5]])
        s_seq = np.array([0, 1] * 12)
        u_seq = joint_type_completion(s_seq, pm, 0.2)
        assert np.array_equal(u_seq, s_seq)

    def test_correlated_joint_within_two_delta(self):
        n = 56
        s_seq = np.array([0] * 28 + [1] * 28)
        u_seq = joint_type_completion(s_seq, COVER_JOINT, 0.05)
        jt = joint_type(s_seq, u_seq, 2, 2)
        assert np.array_equal(jt.sum(axis=0), [28, 28])  # exact U-marginal type
        assert np.abs(jt / n - COVER_JOINT).sum() <= 2 * 0.05 + 1e-12
        assert m_set_contains(s_seq, u_seq, COVER_JOINT, 0.05)

    def test_hypotheses_enforced(self):
        s_seq = np.array([0, 1] * 28)
        with pytest.raises(PreconditionViolated, match="delta < beta/2"):
            joint_type_completion(s_seq, COVER_JOINT, 0.2)
        with pytest.raises(PreconditionViolated, match="n >"):
            joint_type_completion(np.array([0, 1] * 4), COVER_JOINT, 0.05)
        with pytest.raises(PreconditionViolated, match="integral"):
            joint_type_completion(np.array([0, 1] * 28 + [0]), COVER_JOINT, 0.05)

    def test_atypical_state_sequence_rejected(self):
        s_seq = np.zeros(56, dtype=np.int64)
        with pytest.raises(PreconditionViolated, match="delta-typical"):
            joint_type_completion(s_seq, COVER_JOINT, 0.05)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_eighth_grid_joints(self, seed):
        # Joints on the 1/8 grid with full support keep beta >= 1/8 and an
        # exact auxiliary marginal whenever 8 divides n.
        rg = np.random.default_rng(seed)
        while True:
            cells = rg.multinomial(8, np.full(4, 0.25))
            if np.all(cells > 0):
                break
        p_su = cells.reshape(2, 2) / 8.0
        n = 72
        delta = 0.06  # < beta/2 = 1/16
        s_counts = np.rint(p_su.sum(axis=1) * n).astype(int)
        s_seq = np.repeat([0, 1], s_counts)
        u_seq = joint_type_completion(s_seq, p_su, delta)
        jt = joint_type(s_seq, u_seq, 2, 2)
        assert np.abs(jt / n - p_su).sum() <= 2 * delta + 1e-12


class TestMatchedSet:
    def test_exact_joint_type_is_matched(self):
        s_seq = np.array([0] * 7 + [1] * 3 + [0] * 3 + [1] * 7)
        u_seq = np.array([0] * 10 + [1] * 10)
        assert m_set_contains(s_seq, u_seq, COVER_JOINT, 1e-6)

    def test_dead_letter_rejected(self):
        p0 = np.array([[0.5, 0.0], [0.5, 0.0]])
        assert not m_set_contains([0, 1], [0, 1], p0, 2.0)

    def test_score_matches_inline_formula(self):
        s_seq = np.array([0, 0, 0, 1, 1, 0, 1, 1, 0, 1])
        u_seq = np.array([0, 0, 1, 1, 0, 0, 1, 1, 0, 0])
        jt = joint_type(s_seq, u_seq, 2, 2)
        t = jt.sum(axis=0)
        p_u = COVER_JOINT.sum(axis=0)
        worst = max(
            (t[u] / 10) * kl_divergence(jt[:, u] / t[u], COVER_JOINT[:, u] / p_u[u])
            for u in range(2)
        )
        assert m_set_contains(s_seq, u_seq, COVER_JOINT, 2 * worst + 1e-9)
        assert not m_set_contains(s_seq, u_seq, COVER_JOINT, 2 * worst - 1e-9)

    def test_unused_letters_ignored(self):
        s_seq = np.array([0] * 7 + [1] * 3)
        u_seq = np.zeros(10, dtype=np.int64)
        assert m_set_contains(s_seq, u_seq, COVER_JOINT, 1e-6)

    @pytest.mark.parametrize("delta, matched", [(0.05, 9), (0.5, 36), (1.1, 49)])
    def test_members_of_every_state_word_match_inline_formula(self, delta, matched):
        u_seq = np.array([0, 1, 1, 0, 0, 1])
        s_words = digit_table(2, 6)
        p_u = COVER_JOINT.sum(axis=0)
        expected = []
        for s_seq in s_words:
            jt = joint_type(s_seq, u_seq, 2, 2)
            t = jt.sum(axis=0)
            worst = max(
                (t[u] / 6) * kl_divergence(jt[:, u] / t[u], COVER_JOINT[:, u] / p_u[u])
                for u in range(2)
            )
            expected.append(worst <= delta / 2)
        members = matched_set_members(s_words, u_seq[None, :], COVER_JOINT, delta)
        assert members.shape == (64, 1)
        assert members[:, 0].tolist() == expected
        assert sum(expected) == matched

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3]),
        st.sampled_from([2, 3]),
        st.integers(1, 6),
        st.integers(1, 5),
        st.sampled_from([0.05, 0.2, 1.0]),
    )
    def test_word_stacks_match_inline_formula(self, seed, num_s, num_u, n, num_words, delta):
        # Integer cells with forced zeros, and half the time a dead auxiliary
        # letter; auxiliary words are drawn letter by letter, so their types mix.
        rg = np.random.default_rng(seed)
        cells = rg.integers(0, 5, size=(num_s, num_u)).astype(float)
        cells[rg.integers(num_s), rg.integers(num_u)] = 0.0
        if rg.random() < 0.5:
            cells[:, rg.integers(num_u)] = 0.0
        if cells.sum() == 0:
            cells[0, 0] = 1.0
        p_su = cells / cells.sum()
        s_words = digit_table(num_s, n)
        u_words = rg.integers(0, num_u, size=(num_words, n))
        members = matched_set_members(s_words, u_words, p_su, delta)
        expected = [[inline_member(s, u, p_su, delta) for u in u_words] for s in s_words]
        assert members.shape == (num_s**n, num_words)
        assert members.tolist() == expected

    def test_unequal_lengths_rejected(self):
        with pytest.raises(LengthMismatch):
            m_set_contains([0, 1, 0], [0, 1], COVER_JOINT, 0.5)
        with pytest.raises(LengthMismatch):
            matched_set_members(digit_table(2, 3), [[0, 1]], COVER_JOINT, 0.5)
        with pytest.raises(LengthMismatch):
            matched_set_members(digit_table(2, 3), [0, 1, 0], COVER_JOINT, 0.5)

    def test_inexact_count_keys_refused_before_work(self):
        # 64 state letters make (n+1)^|S| = 2^64 count keys at n=1, beyond
        # exact int64; a per-letter score table would need 2^64 rows.
        # delta = 2 keeps every state word typical, so coverage reaches the test.
        p_su = np.zeros((64, 2))
        p_su[:, 0] = 1 / 64
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded):
                matched_set_members(np.arange(64)[:, None], [[0]], p_su, 0.2)
            with pytest.raises(CapExceeded):
                coverage_probability(p_su, n=1, K=1, delta=2.0, trials=1, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def chernoff_bound(L: int, b: float, nu: float, eps: float) -> float:
    """Deviation bound 2 exp(-L eps^2 nu / (3 b)) for [0,b]-valued i.i.d. means."""
    if not 0 < nu <= b:
        raise PreconditionViolated("0 < nu <= b", (nu, b), "mean within range")
    if not 0 < eps <= 1:
        raise PreconditionViolated("0 < eps <= 1", eps, "(0, 1]")
    return 2.0 * math.exp(-L * eps * eps * nu / (3.0 * b))


@dataclass(frozen=True)
class BernoulliSampler:
    """Coin with success probability prob; b = 1, nu = prob."""

    prob: float

    @property
    def b(self) -> float:
        return 1.0

    @property
    def nu(self) -> float:
        return self.prob

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return (rng.random(size) < self.prob).astype(float)


@dataclass(frozen=True)
class EmpiricalDeviation:
    frequency: float
    bound: float
    trials: int


def chernoff_empirical(sampler, L: int, eps: float, trials: int, seed: int) -> EmpiricalDeviation:
    """Observed frequency of the mean leaving [(1-eps) nu, (1+eps) nu].

    ``sampler`` exposes b, nu and draw(rng, size). The frequency is compared
    against the analytic bound by the caller; both are returned.
    """
    bound = chernoff_bound(L, sampler.b, sampler.nu, eps)
    lo, hi = (1 - eps) * sampler.nu, (1 + eps) * sampler.nu
    hits = 0
    for t in range(trials):
        mean = float(np.mean(sampler.draw(rng_for(seed, t), L)))
        if mean < lo or mean > hi:
            hits += 1
    return EmpiricalDeviation(hits / trials, bound, trials)


class TestChernoff:
    def test_frozen_bound_value(self):
        assert chernoff_bound(1000, 1, 0.5, 0.1) == pytest.approx(
            0.37775120567512366, abs=1e-15
        )

    def test_bound_formula(self):
        for L, b, nu, eps in [(50, 2.0, 1.0, 0.3), (400, 1.0, 0.25, 1.0)]:
            expect = 2.0 * math.exp(-L * eps * eps * nu / (3.0 * b))
            assert chernoff_bound(L, b, nu, eps) == pytest.approx(expect, rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(PreconditionViolated):
            chernoff_bound(10, 1.0, 1.5, 0.1)  # mean above range
        with pytest.raises(PreconditionViolated):
            chernoff_bound(10, 1.0, 0.5, 1.5)  # eps above one
        with pytest.raises(PreconditionViolated):
            chernoff_bound(10, 1.0, 0.0, 0.5)  # degenerate mean

    def test_constant_sampler_never_deviates(self):
        class Constant:
            b = 1.0
            nu = 0.5

            def draw(self, rng, size):
                return np.full(size, 0.5)

        out = chernoff_empirical(Constant(), L=50, eps=0.1, trials=200, seed=3)
        assert out.frequency == 0.0

    def test_bernoulli_frequency_below_bound(self):
        out = chernoff_empirical(BernoulliSampler(0.5), L=1000, eps=0.1, trials=10000, seed=11)
        assert out.frequency == pytest.approx(0.0013, abs=1e-12)
        assert out.frequency <= out.bound


class TestTypeClassWords:
    def test_words_live_on_the_type_class(self):
        words = type_class_words((6, 6), (8, 3), rng_for(1, "words"))
        assert words.shape == (8, 3, 12) and words.dtype == np.int64
        counts = np.stack([(words == u).sum(axis=2) for u in range(2)], axis=-1)
        assert np.all(counts == 6)

    def test_same_generator_state_same_words(self):
        a = type_class_words((4, 4), (4, 2), rng_for(9, "words"))
        b = type_class_words((4, 4), (4, 2), rng_for(9, "words"))
        assert np.array_equal(a, b)
        # One permutation of the sorted word per word, in C order over the shape.
        rng = rng_for(9, "words")
        base = np.repeat([0, 1], 4)
        assert np.array_equal(a.reshape(8, 8), [rng.permutation(base) for _ in range(8)])


def per_word_draws(counts, shape, rng):
    """Type-class words drawn one rng.permutation of the sorted word at a time, in C order over shape."""
    base = np.repeat(np.arange(len(counts)), counts)
    words = [rng.permutation(base) for _ in range(math.prod(shape))]
    return np.array(words, dtype=np.int64).reshape(*shape, base.size)


class TestTypeClassWordsMatchPerWordDraws:
    @pytest.mark.parametrize("shape", [(), (3,), (2, 5)])
    @pytest.mark.parametrize("counts", [(3, 2), (0, 4, 1), (2, 0, 0, 3), (1,)])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_words_and_next_draw_match(self, seed, counts, shape):
        ours, theirs = rng_for(seed, "words"), rng_for(seed, "words")
        words = type_class_words(counts, shape, ours)
        expected = per_word_draws(counts, shape, theirs)
        assert words.shape == expected.shape == shape + (sum(counts),)
        assert words.dtype == np.int64
        assert np.array_equal(words, expected)
        # The generator is left where the per-word loop leaves it.
        assert ours.random() == theirs.random()


class TestCoverage:
    def test_saturating_window_always_covers(self):
        # delta/2 above the largest possible divergence makes every word match.
        p_su = np.outer([0.5, 0.5], [0.5, 0.5])
        out = coverage_probability(p_su, n=8, K=1, delta=2.5, trials=50, seed=1)
        assert out.estimate == 1.0

    def test_no_words_cover_nothing(self):
        out = coverage_probability(COVER_JOINT, n=8, K=0, delta=0.2, trials=50, seed=1)
        assert out.estimate == 0.0
        assert out.typical_count > 0

    def test_frozen_covering_run(self):
        out = coverage_probability(COVER_JOINT, n=12, K=64, delta=0.2, trials=500, seed=77)
        assert out.estimate == 1.0
        assert out.ci_low == pytest.approx(0.9923753814690964, abs=1e-12)
        assert out.typical_count == 2508
        assert not out.hypotheses_hold  # desk-scale n cannot satisfy them

    def test_more_words_never_hurt(self):
        small = coverage_probability(COVER_JOINT, n=10, K=4, delta=0.2, trials=200, seed=9)
        large = coverage_probability(COVER_JOINT, n=10, K=40, delta=0.2, trials=200, seed=9)
        assert large.estimate >= small.estimate - 1e-12

    def test_one_state_table_is_capped_at_n_digits(self):
        # One state has one state word, whose table row holds n digits: past the cap, no table is formed.
        one_state = np.array([[0.5, 0.5]])
        assert coverage_probability(one_state, n=40, K=2, delta=0.2, trials=2, seed=1).estimate == 1.0
        tracemalloc.start()
        try:
            for n in (SEQUENCE_ENUMERATION_CAP + 2, 10**8, 10**19):
                with pytest.raises(CapExceeded):
                    coverage_probability(one_state, n=n, K=2, delta=0.2, trials=2, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_marginal_must_be_exact_type(self):
        with pytest.raises(PreconditionViolated):
            coverage_probability(COVER_JOINT, n=7, K=4, delta=0.2, trials=10, seed=1)

    @pytest.mark.parametrize(
        "joint, n, K, delta, trials",
        [
            (COVER_JOINT, 8, 2, 0.2, 0),
            (COVER_JOINT, 8, 2, 0.2, -3),
            (COVER_JOINT, 8, -1, 0.2, 10),
            (COVER_JOINT, 8, 2, -1.0, 10),
            (COVER_JOINT, 0, 2, 0.2, 10),
            (np.array([[0.5, 0.5], [0.25, -0.25]]), 4, 2, 0.2, 10),
            (np.zeros((2, 2)), 4, 2, 0.2, 10),
        ],
    )
    def test_out_of_range_arguments_rejected(self, joint, n, K, delta, trials):
        with pytest.raises(PreconditionViolated):
            coverage_probability(joint, n=n, K=K, delta=delta, trials=trials, seed=1)


def conditional_entropy_of_joint(counts: np.ndarray) -> float:
    """H(A|B) of the empirical joint counts N(a, b), in bits."""
    counts = np.asarray(counts, dtype=float)
    n = counts.sum()
    return shannon_entropy(counts.flatten() / n) - shannon_entropy(counts.sum(axis=0) / n)


@dataclass(frozen=True)
class ConditionalTypeCount:
    count: int
    lower: float
    upper: float
    conditional_entropy: float


def conditional_type_count(a_seq, b_seq, a_size: int, b_size: int) -> ConditionalTypeCount:
    """Number of sequences sharing the conditional type of a_seq given b_seq.

    Exact value is a product of per-b-block multinomials; the sandwich
    2^(n (H(A|B) - f(n))) <= count <= 2^(n H(A|B)) with
    f(n) = |A| |B| log(n+1) / n is checked before returning.
    """
    joint = joint_type(a_seq, b_seq, a_size, b_size)
    n = int(joint.sum())
    count = 1
    for b in range(b_size):
        count *= multinomial_exact(joint[:, b])
    h_cond = conditional_entropy_of_joint(joint)
    f_n = a_size * b_size * math.log2(n + 1) / n
    lower = 2.0 ** (n * (h_cond - f_n))
    upper = 2.0 ** (n * h_cond)
    if not (lower <= count <= upper * (1 + 1e-9)):
        raise GpcqError(
            f"conditional type sandwich violated: {lower} <= {count} <= {upper}"
        )
    return ConditionalTypeCount(count, lower, upper, h_cond)


class TestConditionalTypeCount:
    def test_constant_conditioner_reduces_to_multinomial(self):
        out = conditional_type_count([0, 0, 1, 2], [0, 0, 0, 0], 3, 1)
        assert out.count == 12  # 4! / (2! 1! 1!)

    def test_determined_sequence(self):
        out = conditional_type_count([0, 1, 0, 1], [0, 1, 0, 1], 2, 2)
        assert out.count == 1
        assert out.conditional_entropy == pytest.approx(0.0, abs=1e-12)

    def test_balanced_blocks(self):
        out = conditional_type_count([0, 0, 1, 1], [0, 1, 0, 1], 2, 2)
        assert out.count == 4
        assert out.conditional_entropy == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(4, 8))
    def test_count_matches_brute_force(self, seed, n):
        rg = np.random.default_rng(seed)
        a = rg.integers(0, 2, size=n)
        b = rg.integers(0, 2, size=n)
        out = conditional_type_count(a, b, 2, 2)
        target = joint_type(a, b, 2, 2)
        brute = 0
        for bits in range(2**n):
            cand = np.array([(bits >> i) & 1 for i in range(n)])
            if np.array_equal(joint_type(cand, b, 2, 2), target):
                brute += 1
        assert out.count == brute
        assert out.lower <= out.count <= out.upper * (1 + 1e-9)


@dataclass(frozen=True)
class ContinuityReport:
    entropy_gap: float
    l1_distance: float
    l1_bound: float
    kl_bound: float | None = None


def entropy_continuity_check(p, q, kl_budget: float | None = None) -> ContinuityReport:
    """Entropy-difference bounds from closeness of distributions.

    Checks |H(p) - H(q)| <= -theta log2(theta / |A|) for theta = ||p-q||_1,
    which requires theta <= 1/2. With ``kl_budget`` = delta such that
    D(p||q) <= delta, additionally checks the bound with theta replaced by
    sqrt(2 delta); that surrogate must itself be <= 1/2.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise LengthMismatch(f"shapes {p.shape} and {q.shape} differ")
    size = p.size
    theta = float(np.abs(p - q).sum())
    if theta > 0.5 + 1e-12:
        raise PreconditionViolated("||p - q||_1 <= 1/2", theta, 0.5)
    gap = abs(shannon_entropy(p) - shannon_entropy(q))
    l1_bound = 0.0 if theta == 0 else -theta * math.log2(theta / size)
    if gap > l1_bound + 1e-12:
        raise GpcqError(f"continuity bound violated: {gap} > {l1_bound}")
    kl_bound = None
    if kl_budget is not None:
        actual = kl_divergence(p, q)
        if actual > kl_budget + 1e-12:
            raise PreconditionViolated("D(p||q) <= delta", actual, kl_budget)
        surrogate = math.sqrt(2.0 * kl_budget)
        if surrogate > 0.5 + 1e-12:
            raise PreconditionViolated("sqrt(2 delta) <= 1/2", surrogate, 0.5)
        kl_bound = 0.0 if surrogate == 0 else -surrogate * math.log2(surrogate / size)
        if gap > kl_bound + 1e-12:
            raise GpcqError(f"divergence continuity bound violated: {gap} > {kl_bound}")
    return ContinuityReport(gap, theta, l1_bound, kl_bound)


class TestEntropyContinuity:
    def test_equal_distributions(self):
        rep = entropy_continuity_check([0.2, 0.8], [0.2, 0.8])
        assert rep.entropy_gap == 0.0
        assert rep.l1_bound == 0.0

    def test_half_distance_example(self):
        rep = entropy_continuity_check([1.0, 0.0], [0.75, 0.25])
        assert rep.l1_distance == pytest.approx(0.5, abs=1e-12)
        assert rep.entropy_gap == pytest.approx(
            shannon_entropy([0.75, 0.25]), abs=1e-12
        )
        assert rep.l1_bound == pytest.approx(1.0, abs=1e-12)
        assert rep.entropy_gap <= rep.l1_bound

    def test_distance_above_half_rejected(self):
        with pytest.raises(PreconditionViolated):
            entropy_continuity_check([1.0, 0.0], [0.0, 1.0])

    def test_divergence_budget_path(self):
        rep = entropy_continuity_check([0.5, 0.5], [0.45, 0.55], kl_budget=0.05)
        assert rep.kl_bound is not None
        assert rep.entropy_gap <= rep.kl_bound

    def test_divergence_budget_preconditions(self):
        with pytest.raises(PreconditionViolated, match="delta"):
            # Actual divergence above the declared budget.
            entropy_continuity_check([0.6, 0.4], [0.4, 0.6], kl_budget=1e-6)
        with pytest.raises(PreconditionViolated, match="1/2"):
            # Budget so loose the surrogate distance leaves the valid range.
            entropy_continuity_check([0.5, 0.5], [0.5, 0.5], kl_budget=1.0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_nearby_pairs(self, seed):
        rg = np.random.default_rng(seed)
        p = rg.dirichlet(np.ones(4))
        bump = rg.dirichlet(np.ones(4))
        q = 0.9 * p + 0.1 * bump
        rep = entropy_continuity_check(p, q)
        assert rep.entropy_gap <= rep.l1_bound + 1e-12
