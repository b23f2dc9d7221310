"""Density-operator arithmetic and the entropic functionals."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpcq.errors import (
    BasisNotOrthonormal,
    DimensionMismatch,
    NonFinite,
    NotHermitian,
    NotPSD,
    TraceNotOne,
)
from gpcq.quantum import (
    BlockStack,
    divergence_profile,
    entropy_bits,
    holevo_quantity,
    kl_divergence,
    pinch,
    product_traces,
    relative_entropy,
    shannon_entropy,
    slot_pairs,
    spectrum,
    trace_distance,
    validate_density,
    von_neumann_entropy,
)
from gpcq.schur_weyl import class_partition
from gpcq.util import rng_for

from code_reference import holevo_via_divergence
from conftest import random_density_matrix, random_unitary
from dense_reference import dense, kron_all, paired

KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


def binary_entropy(p: float) -> float:
    return shannon_entropy(np.array([p, 1.0 - p]))


class TestValidateDensity:
    def test_maximally_mixed(self):
        rho = validate_density(np.eye(2) / 2)
        assert rho.shape == (2, 2) and rho.dtype == complex

    def test_negative_eigenvalue(self):
        with pytest.raises(NotPSD):
            validate_density(np.diag([1.1, -0.1]))

    def test_trace_not_one(self):
        with pytest.raises(TraceNotOne):
            validate_density(np.diag([0.6, 0.6]))

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            validate_density(np.array([[0.5, 0.5], [0.0, 0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries(self, bad):
        # Every comparison with NaN is False, so the checks above pass it.
        with pytest.raises(NonFinite):
            validate_density(np.array([[1.0, 0.0], [bad, 0.0]]))


class TestVonNeumannEntropy:
    def test_maximally_mixed(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)

    def test_pure(self):
        assert von_neumann_entropy(KET0) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        assert von_neumann_entropy(rho) == pytest.approx(binary_entropy(0.25), abs=1e-12)

    def test_unitary_invariance(self):
        rng = rng_for(101)
        for _ in range(50):
            rho = random_density_matrix(3, rng)
            u = random_unitary(3, rng)
            rotated = u @ rho @ u.conj().T
            assert von_neumann_entropy(rotated) == pytest.approx(
                von_neumann_entropy(rho), abs=1e-9
            )


class TestRelativeEntropy:
    def test_identical(self):
        rho = np.diag([0.3, 0.7]).astype(complex)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_support(self):
        assert relative_entropy(KET0, KET1) == np.inf

    def test_diagonal_closed_form(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        sigma = np.eye(2, dtype=complex) / 2
        expected = 0.75 * np.log2(1.5) + 0.25 * np.log2(0.5)
        assert relative_entropy(rho, sigma) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            relative_entropy(np.eye(2) / 2, np.eye(3) / 3)

    def test_nonnegative(self):
        rng = rng_for(102)
        for _ in range(100):
            rho = random_density_matrix(2, rng)
            sigma = random_density_matrix(2, rng)
            assert relative_entropy(rho, sigma) >= -1e-12


class TestTraceDistance:
    def test_zero(self):
        rho = np.eye(2, dtype=complex) / 2
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure(self):
        assert trace_distance(KET0, KET1) == pytest.approx(2.0, abs=1e-12)

    def test_diagonal(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        sigma = np.eye(2, dtype=complex) / 2
        assert trace_distance(rho, sigma) == pytest.approx(0.5, abs=1e-12)

    def test_range(self):
        rng = rng_for(103)
        for _ in range(100):
            t = trace_distance(random_density_matrix(3, rng), random_density_matrix(3, rng))
            assert -1e-12 <= t <= 2 + 1e-12


class TestHolevoQuantity:
    def test_identical_states(self):
        ens = np.stack([np.eye(2) / 2, np.eye(2) / 2]).astype(complex)
        assert holevo_quantity([0.5, 0.5], ens) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure(self):
        ens = np.stack([KET0, KET1])
        assert holevo_quantity([0.5, 0.5], ens) == pytest.approx(1.0, abs=1e-12)

    def test_zero_plus_pair(self):
        # Average state has eigenvalues (1 +- 1/sqrt(2))/2.
        ens = np.stack([KET0, PLUS])
        expected = shannon_entropy(
            np.array([(1 + 2**-0.5) / 2, (1 - 2**-0.5) / 2])
        )
        assert expected == pytest.approx(0.6008760366928562, abs=1e-12)
        assert holevo_quantity([0.5, 0.5], ens) == pytest.approx(expected, abs=1e-12)

    def test_two_code_paths_agree(self):
        rng = rng_for(104)
        for _ in range(100):
            k, d = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            ens = np.stack([random_density_matrix(d, rng) for _ in range(k)])
            q = rng.dirichlet(np.ones(k))
            a = holevo_quantity(q, ens)
            b = holevo_via_divergence(q, ens)
            assert abs(a - b) <= 1e-9
            assert -1e-12 <= a <= np.log2(d) + 1e-9


def random_stack(rng, dim, count):
    """Density matrices of random rank, so some lie off the support of their mixture."""
    return np.stack(
        [random_density_matrix(dim, rng, rank=int(rng.integers(1, dim + 1))) for _ in range(count)]
    )


def weights_with_zeros(rng, count):
    """Random weights with some letters (never the first) set to zero."""
    w = rng.dirichlet(np.ones(count))
    w[1:][rng.random(count - 1) < 0.4] = 0.0
    return w / w.sum()


class TestEntropyKernel:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.integers(1, 5))
    def test_stack_calls_equal_one_matrix_calls(self, seed, dim, count):
        rng = rng_for(seed, "entropy-kernel")
        states = random_stack(rng, dim, count)
        weights = weights_with_zeros(rng, count)
        sigma = np.einsum("u,uij->ij", weights, states)

        entropies = von_neumann_entropy(states)
        divergences = relative_entropy(states, sigma)
        s_sigma, profile = divergence_profile(states, sigma, entropies)
        assert entropies.shape == divergences.shape == (count,)
        assert s_sigma == pytest.approx(von_neumann_entropy(sigma), abs=1e-12)
        np.testing.assert_array_equal(profile, divergences)
        for k in range(count):
            assert entropies[k] == pytest.approx(von_neumann_entropy(states[k]), abs=1e-12)
            single = relative_entropy(states[k], sigma)
            if np.isinf(single):
                assert divergences[k] == np.inf
            else:
                assert divergences[k] == pytest.approx(single, abs=1e-12)
        assert holevo_quantity(weights, states) == pytest.approx(
            holevo_via_divergence(weights, states), abs=1e-9
        )

        pmfs = np.stack([weights, weights[::-1], np.eye(count)[0]])
        batched = entropy_bits(pmfs)
        for row, h in zip(pmfs, batched):
            assert h == pytest.approx(shannon_entropy(row), abs=1e-12)

    def test_roundoff_negatives_and_zeros_contribute_nothing(self):
        assert entropy_bits([0.5, 0.5, 0.0, -1e-17]) == pytest.approx(1.0, abs=1e-15)
        assert entropy_bits(np.zeros((2, 3))).tolist() == [0.0, 0.0]


class TestKronAll:
    def test_left_fold_matches_nested_kron(self, rng):
        a, b = random_density_matrix(2, rng), random_density_matrix(3, rng)
        c = np.diag([0.25, 0.75])
        out = kron_all([a, b, c])
        assert out.dtype == complex
        assert np.array_equal(out, np.kron(np.kron(a, b), c))

    def test_empty_product_is_complex_one(self):
        out = kron_all([])
        assert out.shape == (1, 1) and out.dtype == complex and out[0, 0] == 1


class TestProductTraces:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3]),
        st.lists(st.integers(1, 3), min_size=1, max_size=4),
    )
    def test_matches_trace_against_kron_built_state(self, seed, d, sizes):
        rng = rng_for(seed, "product-traces")
        dim = d ** len(sizes)
        op = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / dim
        slots = [
            (rng.normal(size=(L, d, d)) + 1j * rng.normal(size=(L, d, d))) / d for L in sizes
        ]
        out = product_traces(paired(op, [d] * len(sizes)), slots)
        assert out.shape == tuple(sizes)
        for idx in itertools.product(*(range(L) for L in sizes)):
            state = kron_all(slots[k][i] for k, i in enumerate(idx))
            assert abs(out[idx] - np.trace(op @ state)) <= 1e-12

    def test_mixed_slot_dimensions(self, rng):
        a = np.stack([random_density_matrix(2, rng) for _ in range(2)])
        b = np.stack([random_density_matrix(3, rng) for _ in range(3)])
        op = random_density_matrix(6, rng)
        out = product_traces(paired(op, [2, 3]), [a, b])
        expected = [[np.trace(op @ np.kron(x, y)) for y in b] for x in a]
        assert np.allclose(out, expected, atol=1e-13)

    def test_leading_axes_broadcast(self, rng):
        # Three operators, each against two candidate groups of slot stacks.
        ops = rng.normal(size=(3, 1, 4, 4)) + 1j * rng.normal(size=(3, 1, 4, 4))
        a = rng.normal(size=(3, 2, 2, 2, 2))
        b = rng.normal(size=(1, 2, 3, 2, 2))
        out = product_traces(paired(ops, [2, 2]), [a, b])
        assert out.shape == (3, 2, 2, 3)
        for m, k, i, j in itertools.product(range(3), range(2), range(2), range(3)):
            expected = np.trace(ops[m, 0] @ np.kron(a[m, k, i], b[0, k, j]))
            assert abs(out[m, k, i, j] - expected) <= 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            product_traces(np.ones(16), [np.eye(2)[None]] * 3)
        with pytest.raises(DimensionMismatch):
            product_traces(np.eye(4), [np.eye(2)[None]] * 2)
        with pytest.raises(DimensionMismatch):
            product_traces(np.ones(16), [np.eye(2), np.eye(2)])


class TestBlockStackPaired:
    @pytest.mark.parametrize("d, n", [(2, 1), (2, 3), (3, 2), (3, 3)])
    def test_scatter_equals_permuted_dense(self, rng, d, n):
        # Random blocks on a random partition of the d^n basis indices.
        for _ in range(10):
            cuts = np.sort(rng.choice(np.arange(1, d**n), size=int(rng.integers(0, min(4, d**n))), replace=False))
            index = tuple(np.sort(part) for part in np.split(rng.permutation(d**n), cuts))
            count = int(rng.integers(1, 5))
            stack = BlockStack(tuple(rng.normal(size=(count, i.size, i.size)) for i in index), index)
            lo, hi = sorted(rng.integers(0, count + 1, size=2))
            got = stack.paired(slot_pairs(index, d), lo, hi)
            assert got.shape == (hi - lo, d ** (2 * n))
            assert np.array_equal(got, paired(dense(stack, lo, hi), [d] * n))

    def test_dimension_not_a_power_of_the_slot_dimension(self):
        with pytest.raises(DimensionMismatch):
            slot_pairs((np.arange(6),), 2)

    def test_partition_keeps_its_pairs(self):
        part = class_partition(2, 5)
        assert part.pairs is part.pairs
        assert all(np.array_equal(a, b) for a, b in zip(part.pairs, slot_pairs(part.words, 2)))


class TestPinch:
    def test_diagonal_state(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        assert np.allclose(pinch(rho, np.eye(2, dtype=complex)), [0.6, 0.4], atol=1e-12)

    def test_plus_in_computational(self):
        assert np.allclose(pinch(PLUS, np.eye(2, dtype=complex)), [0.5, 0.5], atol=1e-12)

    def test_bad_basis(self):
        with pytest.raises(BasisNotOrthonormal):
            pinch(PLUS, np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))

    def test_divergence_identity(self):
        # D(rho||sigma) = -H(spec rho) - sum_i pinched(i) log t_i when sigma
        # is diagonal in the pinching basis with spectrum t.
        rng = rng_for(105)
        for _ in range(50):
            rho = random_density_matrix(2, rng)
            t = rng.dirichlet(np.ones(2)) * 0.9 + 0.05
            u = random_unitary(2, rng)
            sigma = u @ np.diag(t).astype(complex) @ u.conj().T
            pinched = pinch(rho, u)
            direct = relative_entropy(rho, sigma)
            via_identity = -shannon_entropy(spectrum(rho)) - float(
                np.sum(pinched * np.log2(t))
            )
            assert direct == pytest.approx(via_identity, abs=1e-9)


class TestClassicalRestrictions:
    def test_pinsker_on_diagonals(self):
        rng = rng_for(106)
        for _ in range(200):
            d = int(rng.integers(2, 4))
            p = rng.dirichlet(np.ones(d))
            q = rng.dirichlet(np.ones(d)) * 0.98 + 0.02 / d
            div = kl_divergence(p, q)
            l1 = float(np.abs(p - q).sum())
            assert div >= l1**2 / (2 * np.log(2)) - 1e-12

    def test_shannon_entropy_bounds(self):
        rng = rng_for(107)
        for _ in range(200):
            d = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(d))
            h = shannon_entropy(p)
            assert -1e-12 <= h <= np.log2(d) + 1e-12
