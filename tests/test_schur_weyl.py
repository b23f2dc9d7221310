"""Symmetric-group machinery: frames, projectors, and decoding blocks."""

import math
import tracemalloc
from functools import lru_cache
from itertools import permutations

import numpy as np
import pytest

from gpcq import schur_weyl
from gpcq.channel import derived_states
from gpcq.errors import CapExceeded, GpcqError, NumericalRankFailure, PreconditionViolated
from gpcq.quantum import decoding_basis, kl_divergence, spectrum
from gpcq.schur_weyl import (
    DecodeContext,
    _unique_rows,
    a_set,
    block_projector,
    class_partition,
    frame_count,
    frame_dimension_bounds,
    frame_distribution,
    gl_multiplicity,
    irrep_dimension,
    young_frames,
)
from gpcq.util import compositions, digit_table

import dense_reference as ref
from code_reference import central_projector, kostka_rank, kostka_zero_combinatorial
from dense_reference import dense_block_projector, kron_all, scatter

EYE2 = np.eye(2, dtype=complex)


# Reference construction: hook formulas, characters by border-strip recursion
# and class sums over all n! slot permutations. The package builds the same
# projectors one frequency class at a time; these check it independently.


def hook_lengths(frame) -> list[list[int]]:
    cols = [sum(1 for row in frame if row > j) for j in range(frame[0])] if frame else []
    return [[frame[i] - j + cols[j] - i - 1 for j in range(frame[i])] for i in range(len(frame))]


def hook_dimension(frame) -> int:
    """Symmetric-group irrep dimension by the hook length formula."""
    return math.factorial(sum(frame)) // math.prod(h for row in hook_lengths(frame) for h in row)


def hook_content_multiplicity(frame, d: int) -> int:
    """Dimension of the commutant block by the hook content formula."""
    if len(frame) > d:
        return 0
    num = math.prod(d + j - i for i, row in enumerate(frame) for j in range(row))
    return num // math.prod(h for row in hook_lengths(frame) for h in row)


def cycle_types(n: int) -> list[tuple[int, ...]]:
    """All cycle types (partitions of n), descending lexicographic."""
    return young_frames(n, n)


def permutation_cycle_type(perm) -> tuple[int, ...]:
    perm = tuple(perm)
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length, cur = 0, start
        while not seen[cur]:
            seen[cur] = True
            cur = perm[cur]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def remove_border_strips(frame, k: int):
    """All (smaller frame, sign) results of deleting a length-k border strip."""
    length = len(frame)
    beta = [frame[i] + (length - 1 - i) for i in range(length)]
    results = []
    for b in beta:
        nb = b - k
        if nb < 0 or nb in beta:
            continue
        height = sum(1 for other in beta if nb < other < b)
        new_beta = sorted((set(beta) - {b}) | {nb}, reverse=True)
        smaller = tuple(x - (length - 1 - idx) for idx, x in enumerate(new_beta))
        results.append((tuple(part for part in smaller if part > 0), (-1) ** height))
    return results


@lru_cache(maxsize=None)
def character(frame, cycle_type) -> int:
    """Integer symmetric-group character by border-strip recursion."""
    if sum(frame) != sum(cycle_type):
        raise GpcqError(f"frame {frame} and cycle type {cycle_type} disagree in size")
    if not frame:
        return 1
    k, rest = cycle_type[0], cycle_type[1:]
    return sum(sign * character(smaller, rest) for smaller, sign in remove_border_strips(frame, k))


def class_size(cycle_type: tuple[int, ...]) -> int:
    """Number of permutations with this cycle type."""
    n = sum(cycle_type)
    counts: dict[int, int] = {}
    for k in cycle_type:
        counts[k] = counts.get(k, 0) + 1
    denom = 1
    for k, m in counts.items():
        denom *= math.factorial(m) * k**m
    return math.factorial(n) // denom


def reference_central_projectors(d: int, n: int) -> dict:
    """Every frame's isotypic projector, dim/n! sum_sigma chi(sigma) P_sigma, from class sums."""
    digits = digit_table(d, n)
    place = d ** np.arange(n - 1, -1, -1)
    cols = np.arange(d**n)
    sums = {ct: np.zeros((d**n, d**n)) for ct in cycle_types(n)}
    for perm in permutations(range(n)):
        np.add.at(sums[permutation_cycle_type(perm)], (digits[:, perm] @ place, cols), 1.0)
    return {
        lam: sum(character(lam, ct) * mat for ct, mat in sums.items()) * (hook_dimension(lam) / math.factorial(n))
        for lam in young_frames(d, n)
    }


def sequence_types(d: int, n: int) -> np.ndarray:
    """Letter counts of every length-n sequence, shape (d^n, d)."""
    digits = digit_table(d, n)
    return np.stack([(digits == a).sum(axis=1) for a in range(d)], axis=1)


def frequency_mask(freq, d: int, n: int) -> np.ndarray:
    freq = np.asarray(freq, dtype=np.int64)
    if freq.sum() != n:
        raise GpcqError(f"frequency {freq.tolist()} does not sum to {n}")
    return np.all(sequence_types(d, n) == freq[None, :], axis=1)


def permutation_operator(perm, d: int) -> np.ndarray:
    """Matrix of one position permutation on the computational product basis."""
    perm = tuple(perm)
    n = len(perm)
    digits = digit_table(d, n)
    place = d ** np.arange(n - 1, -1, -1)
    dim = d**n
    op = np.zeros((dim, dim))
    op[digits[:, perm] @ place, np.arange(dim)] = 1.0
    return op


def frequency_projector(freq, d: int, n: int) -> np.ndarray:
    return np.diag(frequency_mask(freq, d, n).astype(float))


def joint_projector(freq, frame, d: int, n: int, basis: np.ndarray | None = None) -> np.ndarray:
    """Frequency-filtered isotypic projector, optionally in a rotated product basis."""
    mask = frequency_mask(freq, d, n).astype(float)
    core = mask[:, None] * central_projector(frame, d, n) * mask[None, :]
    core = 0.5 * (core + core.T)
    if basis is None:
        return core
    rot = kron_all([basis] * n)
    return rot @ core @ rot.conj().T


class TestFrames:
    def test_small_enumerations(self):
        assert young_frames(2, 2) == [(2,), (1, 1)]
        assert young_frames(1, 5) == [(5,)]
        assert young_frames(3, 4) == [(4,), (3, 1), (2, 2), (2, 1, 1)]

    @pytest.mark.parametrize("d, n", [(-2, 3), (0, 3), (2, -1)])
    def test_out_of_range_arguments_are_rejected(self, d, n):
        with pytest.raises(PreconditionViolated):
            young_frames(d, n)

    def test_frame_count_matches_enumeration(self):
        for d in range(1, 7):
            for n in range(0, 16):
                assert frame_count(d, n) == len(young_frames(d, n))

    def test_row_cap_excludes_tall_frames(self):
        assert (1, 1, 1) not in young_frames(2, 3)

    def test_hook_dimension_examples(self):
        assert irrep_dimension((2,)) == 1
        assert irrep_dimension((1, 1)) == 1
        assert irrep_dimension((2, 1)) == 2
        assert irrep_dimension((3, 2)) == 5

    def test_dimension_matches_identity_character(self):
        for n in range(2, 7):
            for frame in young_frames(n, n):
                assert irrep_dimension(frame) == character(frame, (1,) * n)

    def test_closed_forms_equal_hook_formulas(self):
        for n in range(16):
            for frame in young_frames(max(n, 1), n):
                assert irrep_dimension(frame) == hook_dimension(frame)
                for d in (1, 2, 3, 4, 6):
                    assert gl_multiplicity(frame, d) == hook_content_multiplicity(frame, d)

    def test_squared_dimensions_sum_to_group_order(self):
        for n in range(2, 7):
            total = sum(irrep_dimension(f) ** 2 for f in young_frames(n, n))
            assert total == math.factorial(n)

    def test_dimension_sandwich(self):
        # The bounds function raises internally on violation; sweep it.
        for n in range(1, 13):
            for frame in young_frames(2, n):
                out = frame_dimension_bounds(frame, 2)
                assert out.lower <= out.dimension <= out.upper * (1 + 1e-9)


class TestCharacters:
    def test_trivial_frame_is_all_ones(self):
        for n in range(2, 7):
            assert all(character((n,), ct) == 1 for ct in cycle_types(n))

    def test_column_frame_is_sign(self):
        for n in range(2, 7):
            for ct in cycle_types(n):
                sign = (-1) ** (n - len(ct))
                assert character((1,) * n, ct) == sign

    def test_orthogonality_of_rows(self):
        n = 5
        cts = cycle_types(n)
        sizes = [class_size(ct) for ct in cts]
        frames = young_frames(n, n)
        for i, a in enumerate(frames):
            for b in frames[i:]:
                inner = sum(
                    z * character(a, ct) * character(b, ct) for z, ct in zip(sizes, cts)
                )
                assert inner == (math.factorial(n) if a == b else 0)

    def test_size_mismatch_rejected(self):
        with pytest.raises(GpcqError):
            character((2, 1), (2, 2))

    def test_cycle_type_extraction(self):
        assert permutation_cycle_type((1, 2, 0, 4, 3)) == (3, 2)
        assert permutation_cycle_type((0, 1, 2)) == (1, 1, 1)


class TestCentralProjectors:
    def test_two_qubit_blocks(self):
        sym = central_projector((2,), 2, 2)
        anti = central_projector((1, 1), 2, 2)
        assert np.trace(sym) == pytest.approx(3.0, abs=1e-10)
        assert np.trace(anti) == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(sym + anti, np.eye(4), atol=1e-10)
        singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
        assert np.allclose(anti @ singlet, singlet, atol=1e-10)

    def test_traces_count_both_factors(self):
        for d, n in [(2, 4), (3, 3)]:
            total = np.zeros((d**n, d**n))
            for frame in young_frames(d, n):
                P = central_projector(frame, d, n)
                expected = irrep_dimension(frame) * gl_multiplicity(frame, d)
                assert np.trace(P) == pytest.approx(expected, abs=1e-8)
                total += P
            assert np.allclose(total, np.eye(d**n), atol=1e-8)

    def test_multiplicity_polynomial_bound(self):
        for d, n in [(2, 6), (2, 9), (3, 5)]:
            for frame in young_frames(d, n):
                assert gl_multiplicity(frame, d) <= (2 * n) ** (d * d)

    def test_permutation_invariance(self, rng):
        P = central_projector((2, 1), 2, 3)
        for _ in range(4):
            perm = tuple(rng.permutation(3))
            V = permutation_operator(perm, 2)
            assert np.allclose(V @ P @ V.T, P, atol=1e-10)

    def test_caps(self):
        # 2^13 = 8192 and 5^6 = 15625 exceed DIM_CAP = 4096; one letter is
        # bounded as two are: its one word still takes ~t^3/3 transposition updates.
        for d in (1, 2):
            with pytest.raises(CapExceeded):
                central_projector((13,), d, 13)
        with pytest.raises(CapExceeded):
            kostka_rank((6, 0, 0, 0, 0), (6,), 5, 6)

    def test_cache_returns_readonly(self):
        part = class_partition(2, 2)
        assert class_partition(2, 2) is part and part.bases is part.bases
        basis = part.bases[part.index((1, 1))][(2,)]
        with pytest.raises(ValueError):
            basis[0, 0] = 5.0


class TestClassBases:
    @pytest.mark.parametrize(
        "d, n",
        [(2, n) for n in range(1, 9)] + [(3, n) for n in range(1, 7)]
        + [(4, n) for n in range(1, 6)] + [(5, n) for n in range(1, 5)],
    )
    def test_blocks_equal_class_sum_reference(self, d, n):
        reference = reference_central_projectors(d, n)
        part = class_partition(d, n)
        assert sorted(part.index(freq) for freq in compositions(n, d)) == list(range(len(part.bases)))
        for freq in compositions(n, d):
            c = part.index(freq)
            words, bases = part.words[c], part.bases[c]
            assert np.array_equal(words, np.flatnonzero(frequency_mask(freq, d, n)))
            assert np.all(part.label[words] == c)
            assert np.array_equal(part.rank[words], np.arange(words.size))
            # The frames' bases together are one orthonormal basis of the class.
            columns = np.hstack(list(bases.values()))
            assert np.max(np.abs(columns.T @ columns - np.eye(words.size))) <= 1e-12
            rows = np.ix_(words, words)
            for lam, ref in reference.items():
                block = bases[lam] @ bases[lam].T if lam in bases else np.zeros((words.size,) * 2)
                assert np.max(np.abs(block - ref[rows])) <= 1e-12
        for lam, ref in reference.items():
            assert np.max(np.abs(central_projector(lam, d, n) - ref)) <= 1e-12

    def test_unmatched_eigenvalue_is_refused(self, monkeypatch):
        monkeypatch.setattr(schur_weyl, "_PARTITIONS", {})
        monkeypatch.setattr(schur_weyl, "TAU_LABEL", -1.0)
        with pytest.raises(NumericalRankFailure):
            class_partition(2, 3).bases

    def test_block_projector_past_nine_slots(self, monkeypatch):
        # Above nine slots the n! class sums are out of reach. An empty cache
        # frees the bases afterwards.
        monkeypatch.setattr(schur_weyl, "_PARTITIONS", {})
        t = 10
        theta = 0.4
        basis = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex)
        rho = basis @ np.diag([0.7, 0.3]) @ basis.conj().T
        radius = 0.05
        P = dense_block_projector(rho, basis, t, radius)
        assert np.max(np.abs(P.imag)) <= 1e-12
        P = P.real
        assert np.max(np.abs(P - P.T)) <= 1e-12
        probe = np.random.default_rng(3).normal(size=(2**t, 4))
        assert np.max(np.abs(P @ (P @ probe) - P @ probe)) <= 1e-8
        tensor = P.reshape((2,) * (2 * t))
        for perm in np.random.default_rng(4).permuted(np.tile(np.arange(t), (3, 1)), axis=1):
            axes = list(perm) + [t + a for a in perm]
            assert np.max(np.abs(np.transpose(tensor, axes).reshape(P.shape) - P)) <= 1e-10
        freqs, frames = a_set(rho, basis, t, radius)
        assert freqs and frames
        ranks = sum(kostka_rank(f, lam, 2, t) for f in freqs for lam in frames)
        assert np.trace(P) == pytest.approx(ranks, abs=1e-8)

    def test_block_projector_on_twelve_slots_stays_in_class_blocks(self, monkeypatch):
        # 2^12 = 4096 words: the blocks hold 2,704,156 entries where a dense
        # projector would hold 16,777,216.
        monkeypatch.setattr(schur_weyl, "_PARTITIONS", {})
        t, theta, radius = 12, 0.4, 0.05
        basis = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex)
        rho = basis @ np.diag([0.7, 0.3]) @ basis.conj().T
        blocks = block_projector(rho, basis, t, radius)
        part = class_partition(2, t)
        freqs, frames = a_set(rho, basis, t, radius)
        assert sorted(blocks) == sorted(part.index(f) for f in freqs)
        for c, block in blocks.items():
            assert block.shape == (part.words[c].size,) * 2
            assert np.max(np.abs(block @ block - block)) <= 1e-8
            assert np.max(np.abs(block - block.T)) <= 1e-12
        ranks = sum(kostka_rank(f, lam, 2, t) for f in freqs for lam in frames)
        assert sum(np.trace(block) for block in blocks.values()) == pytest.approx(ranks, abs=1e-8)

    def test_one_slot_classes_of_many_letters(self, monkeypatch):
        # 4,096 one-word classes; a class is found from its letter count
        # without a d-long key per class.
        monkeypatch.setattr(schur_weyl, "_PARTITIONS", {})
        d = 4096
        part = class_partition(d, 1)
        assert len(part.bases) == d
        assert all(words.tolist() == [a] and list(bases) == [(1,)]
                   for a, (words, bases) in enumerate(zip(part.words, part.bases)))
        count = np.zeros(d, dtype=np.int64)
        count[1234] = 1
        assert class_partition(d, 1).index(count) == 1234

    def test_bases_keep_one_entry_per_class_entry(self, monkeypatch):
        # The bases of a class fill one square of its size; the parent kept a
        # dense projector per frame instead, 7.3 MiB at (2, 10).
        monkeypatch.setattr(schur_weyl, "_PARTITIONS", {})
        part = class_partition(2, 10)
        tracemalloc.start()
        try:
            part.bases
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept <= 8 * sum(words.size**2 for words in part.words) + 64 * 2**10

    def test_class_index_refuses_counts_of_no_word(self):
        part = class_partition(3, 4)
        assert part.index((0, 0, 4)) == len(part.words) - 1
        for bad in [(1, 1, 1), (2, 2), (5, -1, 0), (2, 2, 0, 0)]:
            with pytest.raises(GpcqError):
                part.index(bad)

    def test_classes_of_twelve_slots(self, monkeypatch):
        # 2^12 = 4096 words, the most DIM_CAP admits at d = 2. Over two letters
        # each weight space of a GL(2) irrep is a line, so a frame's block on a
        # class has the rank of its irrep where the frame dominates the class.
        monkeypatch.setattr(schur_weyl, "_PARTITIONS", {})
        traces = dict.fromkeys(young_frames(2, 12), 0.0)
        part = class_partition(2, 12)
        for freq in compositions(12, 2):
            bases, size = part.bases[part.index(freq)], part.words[part.index(freq)].size
            total = np.zeros((size, size))
            for lam in young_frames(2, 12):
                block = bases[lam] @ bases[lam].T if lam in bases else np.zeros_like(total)
                assert np.max(np.abs(block @ block - block)) <= 1e-10
                assert np.max(np.abs(block - block.T)) <= 1e-12
                expected = 0 if kostka_zero_combinatorial(freq, lam) else irrep_dimension(lam)
                assert np.trace(block) == pytest.approx(expected, abs=1e-8)
                traces[lam] += np.trace(block)
                total += block
            assert np.max(np.abs(total - np.eye(size))) <= 1e-10
        for lam, trace in traces.items():
            assert trace == pytest.approx(irrep_dimension(lam) * gl_multiplicity(lam, 2), abs=1e-6)


class TestFrequencyProjectors:
    def test_rank_is_multinomial(self):
        P = frequency_projector(np.array([2, 2]), 2, 4)
        assert np.trace(P) == pytest.approx(6.0, abs=1e-12)
        assert np.allclose(P @ P, P, atol=1e-12)

    def test_resolution_of_identity(self):
        total = sum(
            frequency_projector(np.asarray(f), 2, 4) for f in compositions(4, 2)
        )
        assert np.allclose(total, np.eye(16), atol=1e-12)

    def test_commutes_with_central(self):
        F = frequency_projector(np.array([2, 1]), 2, 3)
        P = central_projector((2, 1), 2, 3)
        assert np.allclose(F @ P, P @ F, atol=1e-10)

    def test_bad_total_rejected(self):
        with pytest.raises(GpcqError):
            frequency_projector(np.array([2, 1]), 2, 4)


class TestKostka:
    def test_joint_projector_rank_example(self):
        J = joint_projector(np.array([2, 1]), (2, 1), 2, 3)
        assert np.max(np.abs(J @ J - J)) < 1e-8
        assert np.trace(J) == pytest.approx(2.0, abs=1e-8)
        assert kostka_rank(np.array([2, 1]), (2, 1), 2, 3) == 2

    def test_frequency_outside_the_classes_rejected(self):
        with pytest.raises(GpcqError):
            kostka_rank((2, 2), (3,), 2, 3)
        with pytest.raises(GpcqError):
            kostka_rank((1, 1, 1), (3,), 2, 3)

    def test_dominance_decides_vanishing(self):
        # Spectral rank is zero exactly when the frame fails to dominate the
        # sorted frequency; rank is otherwise a positive multiple of the
        # symmetric-group dimension.
        for d, n in [(2, 3), (2, 5), (3, 4)]:
            for freq in compositions(n, d):
                for frame in young_frames(d, n):
                    rank = kostka_rank(np.asarray(freq), frame, d, n)
                    assert (rank == 0) == kostka_zero_combinatorial(freq, frame)
                    if rank:
                        assert rank % irrep_dimension(frame) == 0

    def test_rotated_basis_keeps_rank(self, rng):
        theta = 0.3
        basis = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        ).astype(complex)
        J = joint_projector(np.array([2, 1]), (2, 1), 2, 3, basis=basis)
        assert np.trace(J).real == pytest.approx(2.0, abs=1e-8)
        assert np.max(np.abs(J @ J - J)) < 1e-8


class TestASet:
    def test_wide_radius_takes_everything(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        freqs, frames = a_set(rho, EYE2, 6, radius=100.0)
        assert len(freqs) == 7
        assert frames == tuple(young_frames(2, 6))

    def test_tight_radius_matches_inline_filter(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        m, radius = 8, 0.05
        freqs, frames = a_set(rho, EYE2, m, radius)
        expect_freqs = tuple(
            f
            for f in compositions(m, 2)
            if kl_divergence(np.asarray(f) / m, [0.75, 0.25]) <= radius
        )
        expect_frames = tuple(
            lam
            for lam in young_frames(2, m)
            if kl_divergence(frame_distribution(lam, 2), spectrum(rho)) <= radius
        )
        assert freqs == expect_freqs == ((6, 2),)
        assert frames == expect_frames == ((6, 2),)

    def test_basis_controls_the_pinching(self):
        # In the eigenbasis of |+><+| the pinched diagonal is (1, 0); in the
        # computational basis it is (1/2, 1/2).
        plus = np.full((2, 2), 0.5, dtype=complex)
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        eigen_freqs, _ = a_set(plus, hadamard, 4, radius=1e-6)
        comp_freqs, _ = a_set(plus, EYE2, 4, radius=1e-6)
        assert eigen_freqs == ((4, 0),)
        assert comp_freqs == ((2, 2),)

    def test_spectral_weight_bound(self):
        # tr{P_frame sigma^m} <= poly(m) 2^(-m KL(frame || spectrum)).
        sigma = np.diag([0.7, 0.3]).astype(complex)
        spec = spectrum(sigma)
        for m in range(2, 9):
            power = kron_all([sigma] * m)
            for lam in young_frames(2, m):
                tr = float(np.trace(central_projector(lam, 2, m) @ power).real)
                rate = kl_divergence(frame_distribution(lam, 2), spec)
                assert tr <= (2 * m) ** 4 * 2.0 ** (-m * rate) + 1e-12


def word_blocks(ctx, word) -> tuple[np.ndarray, ...]:
    """One word's class blocks, aligned with ctx.partition.words: projectors' one-row, one-codeword case."""
    return tuple(block[0] for block in ctx.projectors(np.asarray(word)[None, None]).blocks)


class TestDecodeProjectors:
    STATES = np.stack(
        [np.diag([0.8, 0.2]), np.diag([0.3, 0.7])]
    ).astype(complex)

    @staticmethod
    def dense(ctx, blocks) -> np.ndarray:
        """One word's class blocks as a dense matrix in the basis frame."""
        return scatter(blocks, ctx.partition.words, ctx.d**ctx.n)

    def test_block_projector_idempotent_and_real_diagonal_case(self):
        blk = dense_block_projector(self.STATES[0], EYE2, 3, radius=0.4)
        assert np.max(np.abs(blk @ blk - blk)) < 1e-8
        assert np.allclose(blk, blk.conj().T, atol=1e-12)
        for block in block_projector(self.STATES[0], EYE2, 3, radius=0.4).values():
            assert block.dtype == np.float64
            assert np.max(np.abs(block @ block - block)) < 1e-8

    def test_constant_word_equals_single_block(self):
        ctx = DecodeContext(self.STATES, EYE2, 3, 0.4)
        blocks = block_projector(self.STATES[1], EYE2, 3, 0.4)
        for c, got in enumerate(word_blocks(ctx, [1, 1, 1])):
            assert np.allclose(got, blocks.get(c, np.zeros_like(got)), atol=1e-12)

    def test_permutation_covariance(self):
        ctx = DecodeContext(self.STATES, EYE2, 3, 0.4)
        u = np.array([0, 1, 1])
        perm = (1, 2, 0)
        V = permutation_operator(perm, 2)
        lhs = V @ self.dense(ctx, word_blocks(ctx, u)) @ V.T
        assert np.allclose(lhs, self.dense(ctx, word_blocks(ctx, u[list(perm)])), atol=1e-10)

    def test_idempotent_mixed_word(self):
        for block in word_blocks(DecodeContext(self.STATES, EYE2, 3, 0.5), [0, 1, 0]):
            assert np.max(np.abs(block @ block - block)) < 1e-8

    def test_tiny_radius_flags_empty_blocks(self):
        # Each letter fills one slot at radius n*delta/t = 2e-6; no
        # frequency of one slot is that close to either pinched diagonal.
        assert a_set(self.STATES[0], EYE2, 1, 2e-6)[0] == ()
        assert a_set(self.STATES[1], EYE2, 1, 2e-6)[0] == ()
        for block in word_blocks(DecodeContext(self.STATES, EYE2, 2, 1e-6), [0, 1]):
            assert np.allclose(block, 0.0, atol=1e-12)

    def test_context_packs_the_letter_class_blocks(self):
        # The context caches each letter's class blocks per slot count, packed
        # with one 0.0 in front, and no dense matrix; the reference's dense
        # letter block is read back from them entry by entry.
        ctx = DecodeContext(self.STATES, EYE2, 4, 0.3)
        ctx.projectors([[[0, 0, 1, 1]], [[1, 0, 1, 0]]])
        assert set(ctx._cache) == {(0, 2), (1, 2)}
        label = class_partition(2, 2).label
        for (u, t), (values, row_start, column) in ctx._cache.items():
            want = block_projector(self.STATES[u], EYE2, t, 4 * 0.3 / t)
            assert values.shape == (1 + sum(block.size for block in want.values()),) and values[0] == 0.0
            entries = values[np.where(label[:, None] == label[None, :], row_start[:, None] + column[None, :], 0)]
            assert np.array_equal(entries, ref.letter_block(ctx, u, t))

    def test_block_projector_runs_once_per_letter_and_slot_count(self, monkeypatch):
        ctx = DecodeContext(self.STATES, EYE2, 4, 0.3)
        calls = []
        build = schur_weyl.block_projector

        def counted(rho, basis, m, radius):
            calls.append((next(u for u in (0, 1) if np.array_equal(rho, self.STATES[u])), m))
            return build(rho, basis, m, radius)

        monkeypatch.setattr(schur_weyl, "block_projector", counted)
        ctx.projectors([[[0, 0, 1, 1]], [[1, 0, 1, 0]], [[1, 1, 1, 0]]])
        ctx.projectors([[[0, 1, 1, 0]], [[0, 0, 0, 0]], [[1, 1, 1, 0]]])
        assert sorted(calls) == [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3)]

    def test_one_letter_word_peaks_below_half_a_dense_product(self):
        # A dense d^n x d^n type product at n = 10 alone is 8 MiB; the class
        # blocks of the gather and the sums are 1.4 MiB each.
        ctx = DecodeContext(self.STATES, EYE2, 10, 0.3)
        word = np.zeros((1, 1, 10), dtype=np.int64)
        ctx.projectors(word)
        tracemalloc.start()
        try:
            ctx.projectors(word)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_word_length_enforced(self):
        ctx = DecodeContext(self.STATES, EYE2, 3, 0.4)
        with pytest.raises(GpcqError):
            ctx.projectors([[[0, 1]]])

    def test_out_of_range_letters_refused(self):
        ctx = DecodeContext(self.STATES, EYE2, 2, 0.4)
        for word in ([0, -1], [2, 0], [1, 5]):
            with pytest.raises(GpcqError, match="range"):
                ctx.projectors([[word]])
        assert len(ctx.projectors([[[0, 1]]])) == 1

    def test_word_array_shape_enforced(self):
        ctx = DecodeContext(self.STATES, EYE2, 3, 0.4)
        with pytest.raises(GpcqError):
            ctx.projectors(np.zeros((4, 2, 2), dtype=np.int64))
        with pytest.raises(GpcqError):
            ctx.projectors(np.zeros((4, 3), dtype=np.int64))
        with pytest.raises(GpcqError):
            ctx.projectors(np.zeros((4, 0, 3), dtype=np.int64))
        with pytest.raises(GpcqError):
            ctx.projectors([0, 1, 1])


class TestSharedProjectors:
    """DecodeContext.projectors sums each row's codewords in k order, bit for bit, and gathers each distinct word once."""

    @staticmethod
    def context(ch, q_rows, strategy, n):
        # The simulator's decode states rho_u and basis for witness (q_rows, strategy).
        q_rows = np.asarray(q_rows, dtype=float)
        q = ch.p @ q_rows
        states = derived_states(ch.p, ch.tensor, q_rows / q, np.asarray(strategy))
        return DecodeContext(states, decoding_basis(q, states), n, 0.2)

    @pytest.mark.parametrize("name, q_rows, n", [
        ("flip", [[0.5, 0.5], [0.5, 0.5]], 6),
        ("purecq", [[0.7, 0.3], [0.3, 0.7]], 5),
    ])
    def test_rows_sum_their_codewords_and_share_equal_words(self, suite, name, q_rows, n, monkeypatch):
        ctx = self.context(suite[name], q_rows, [[0, 1], [1, 0]], n)
        drawn = np.random.default_rng(13).integers(0, 2, size=(12, n))
        # 18 codewords, three per message, repeated within and across messages.
        words = np.concatenate([drawn, drawn[::3], np.ones((2, n), dtype=np.int64)])
        gathered = []
        gather = ctx._gather
        monkeypatch.setattr(ctx, "_gather", lambda distinct: gathered.append(len(distinct)) or gather(distinct))
        stack = ctx.projectors(words.reshape(6, 3, n))
        assert gathered == [len(np.unique(words, axis=0))] and gathered[0] < len(words)
        assert len(stack) == 6
        singles = [word_blocks(ctx, w) for w in words]
        for c, block in enumerate(stack.blocks):
            for m in range(6):
                want = singles[3 * m][c].copy()
                for k in (1, 2):
                    want += singles[3 * m + k][c]
                assert block.dtype == want.dtype and block[m].tobytes() == want.tobytes()


def type_class(counts) -> np.ndarray:
    """Every word with these letter counts, ascending."""
    words = digit_table(len(counts), sum(counts))
    tally = np.stack([(words == u).sum(axis=1) for u in range(len(counts))], axis=1)
    return words[(tally == np.asarray(counts)).all(axis=1)]


def test_unique_rows_equal_numpy_unique():
    # Word arrays of the decode gather's sizes; repeats drawn from a few rows so that most rows recur.
    rng = np.random.default_rng(11)
    for _ in range(300):
        L, n, letters = int(rng.integers(0, 2000)), int(rng.integers(1, 13)), int(rng.integers(1, 41))
        rows = rng.integers(0, letters, size=(L, n))
        if rng.random() < 0.5 and L:
            rows = rows[rng.integers(0, max(1, L // 10), size=L)]
        distinct, inverse = _unique_rows(rows)
        want, want_inverse = np.unique(rows, axis=0, return_inverse=True)
        assert distinct.dtype == want.dtype and np.array_equal(distinct, want)
        assert np.array_equal(inverse, want_inverse.reshape(-1))


class TestGatheredProjectors:
    """projectors builds each letter type's class blocks once and gathers every word from them, equal to the per-word reference."""

    # (channel, q_rows, strategy) of two 2-letter witnesses and a 3-letter one.
    WITNESSES = {
        "flip": ("flip", [[0.5, 0.5], [0.5, 0.5]], [[0, 1], [1, 0]]),
        "purecq": ("purecq", [[0.7, 0.3], [0.3, 0.7]], [[0, 1], [1, 0]]),
        "three-letter": ("purecq", [[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]], [[0, 1, 0], [1, 1, 0]]),
    }

    # The balanced type (2, 1, 1) of the 3-letter witness has the zero
    # projector at n = 4, so that case takes another type, nonzero there.
    TYPES = {("three-letter", 4): [1, 2, 1]}

    def context(self, suite, witness, n):
        name, q_rows, strategy = self.WITNESSES[witness]
        return TestSharedProjectors.context(suite[name], q_rows, strategy, n), len(q_rows[0])

    @staticmethod
    def assert_rows_match_reference(ctx, words, stack):
        assert len(stack) == len(words)
        for row, w in enumerate(words):
            for block, want in zip(stack.blocks, ref.reference_projector(ctx, w)):
                assert block.dtype == want.dtype and np.array_equal(block[row], want)

    @pytest.mark.parametrize("witness", list(WITNESSES))
    @pytest.mark.parametrize("n", [4, 6, 7, 8])
    def test_every_word_of_a_type_matches_the_reference(self, suite, witness, n):
        ctx, letters = self.context(suite, witness, n)
        counts = self.TYPES.get((witness, n), [n // letters + (u < n % letters) for u in range(letters)])
        words = type_class(counts)
        # A zero reference would make the comparison vacuous.
        assert any(np.any(want) for want in ref.reference_projector(ctx, words[0]))
        self.assert_rows_match_reference(ctx, words, ctx.projectors(words[:, None]))

    @pytest.mark.parametrize("witness", list(WITNESSES))
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_mixed_types_unsorted_and_repeated_rows_match_the_reference(self, suite, witness, n):
        ctx, letters = self.context(suite, witness, n)
        drawn = np.random.default_rng(n).integers(0, letters, size=(10, n))
        # The last rows hold one letter each, on all n slots.
        one_letter = np.repeat(np.arange(letters), n).reshape(letters, n)
        words = np.concatenate([drawn, drawn[::-1][:4], np.sort(drawn[:3], axis=1), one_letter])
        assert len(np.unique(np.sort(words, axis=1), axis=0)) >= 2
        self.assert_rows_match_reference(ctx, words, ctx.projectors(words[:, None]))

    @pytest.mark.parametrize("witness", list(WITNESSES))
    def test_projector_of_an_unsorted_word_matches_the_reference(self, suite, witness):
        ctx, letters = self.context(suite, witness, 6)
        drawn = np.random.default_rng(3).integers(0, letters, size=(12, 6))
        unsorted = [w for w in drawn if np.any(w[1:] < w[:-1])]
        assert len(unsorted) >= 8
        for w in unsorted:
            for got, want in zip(word_blocks(ctx, w), ref.reference_projector(ctx, w)):
                assert np.array_equal(got, want)

    def test_each_letter_type_is_built_once_per_call(self, suite, monkeypatch):
        ctx, _ = self.context(suite, "three-letter", 5)
        fetched = []
        fetch = ctx._letter
        monkeypatch.setattr(ctx, "_letter", lambda u, t: fetched.append((u, t)) or fetch(u, t))
        words = np.concatenate([np.random.default_rng(4).integers(0, 3, size=(30, 5)), np.full((2, 5), 2)])
        types = {tuple(zip(*np.unique(w, return_counts=True))) for w in np.sort(words, axis=1)}
        for _ in range(2):  # cold, then with every letter cached
            fetched.clear()
            ctx.projectors(np.concatenate([words, words[::-1]])[:, None])
            # A type's build fetches each of its letters once, so the fetches
            # are the letters of the distinct types, each type once.
            assert sorted(fetched) == sorted(letter for word in types for letter in word)

    def test_empty_word_array_gives_an_empty_stack(self, suite):
        ctx, _ = self.context(suite, "flip", 4)
        stack = ctx.projectors(np.zeros((0, 2, 4), dtype=np.int64))
        assert len(stack) == 0
        assert [b.shape[1:] for b in stack.blocks] == [(w.size, w.size) for w in ctx.partition.words]
