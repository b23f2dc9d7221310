"""Decoders, the simulated trials against their explicit codes, and the simulation driver."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from gpcq.channel import BUDGET_ENV_VAR, build_channel, derived_states
from gpcq.coding import (
    SimRow,
    _typical_words,
    rows_to_csv,
    sequential_decoder,
    simulate_causal_trial,
    simulate_noncausal_trial,
    simulate_rate_error_curve,
    square_root_decoder,
    validate_povm,
)
from gpcq.errors import (
    BudgetExceeded,
    GpcqError,
    InvalidPOVM,
    NonFinite,
    NotProjection,
    PreconditionViolated,
)
from gpcq.method_of_types import matched_set_members, nearest_type, type_class_words
from gpcq.quantum import BlockStack, eigenbasis
from gpcq.schur_weyl import DecodeContext
from gpcq.util import rng_for

import dense_reference as ref
from code_reference import (
    Code,
    admissible_indices,
    average_error,
    binned_code,
    binned_row,
    causal_code,
    union_bound_gap,
)
from conftest import random_density_matrix

KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
COVER_JOINT = np.array([[0.35, 0.15], [0.15, 0.35]])

BASIS_POVM_2 = [KET0, KET1]


def identity_code(ch, n=1):
    """One message, send input 0 regardless, accept everything."""
    enc = {}
    for s_word in np.ndindex(*((ch.num_states,) * n)):
        enc[(0, s_word)] = [((0,) * n, 1.0)]
    return Code(n, 1, enc, [np.eye(ch.dim**n, dtype=complex)], causal=True)


def xor_code(n, num_messages):
    """Flip-channel code: per slot, send message bit xor state bit."""
    enc = {}
    for m in range(num_messages):
        m_bits = [(m >> (n - 1 - i)) & 1 for i in range(n)]
        for s_word in np.ndindex(*((2,) * n)):
            x_word = tuple(b ^ s for b, s in zip(m_bits, s_word))
            enc[(m, s_word)] = [(x_word, 1.0)]
    povm = []
    for m in range(num_messages):
        el = np.zeros((2**n, 2**n), dtype=complex)
        el[m, m] = 1.0
        povm.append(el)
    return Code(n, num_messages, enc, povm, causal=False)


class TestValidation:
    def test_povm_accepts_projective_measurement(self):
        validate_povm(BASIS_POVM_2, 2)

    def test_povm_shape_mismatch(self):
        with pytest.raises(InvalidPOVM, match="shape"):
            validate_povm([np.eye(3)], 2)

    def test_povm_not_hermitian(self):
        with pytest.raises(InvalidPOVM, match="Hermitian"):
            validate_povm([np.array([[0.5, 0.5], [0.0, 0.5]])], 2)

    def test_povm_negative_eigenvalue(self):
        with pytest.raises(InvalidPOVM, match="negative"):
            validate_povm([np.diag([1.0, -0.2])], 2)

    def test_povm_oversubscribed(self):
        with pytest.raises(InvalidPOVM, match="above identity"):
            validate_povm([np.eye(2), np.eye(2) * 0.5], 2)

    # Real rotation by 1 radian: the bound must hold off the diagonal too.
    ROTATION = np.array([[math.cos(1.0), -math.sin(1.0)], [math.sin(1.0), math.cos(1.0)]])

    @pytest.mark.parametrize("rotate", [False, True])
    def test_povm_positivity_bound_is_minus_1e_8(self, rotate):
        def element(least):
            el = np.diag([0.5, least])
            return self.ROTATION @ el @ self.ROTATION.T if rotate else el

        validate_povm([element(-0.9999999e-8)], 2)
        with pytest.raises(InvalidPOVM, match="negative"):
            validate_povm([element(-1.0000001e-8)], 2)

    @pytest.mark.parametrize("bad", [
        np.full((2, 2), np.nan),
        np.diag([np.inf, 0.0]),
        np.diag([0.5, -np.inf]),
        np.array([[0.5, complex(0.0, np.nan)], [0.0, 0.5]]),
    ])
    def test_non_finite_elements_refused(self, bad):
        with pytest.raises(NonFinite, match="element 1"):
            validate_povm([KET0, bad], 2)
        with pytest.raises(NonFinite, match="operator 1"):
            square_root_decoder([np.eye(2), bad])
        with pytest.raises(NonFinite, match="operator 0"):
            sequential_decoder([bad])

    def test_non_finite_checked_before_shape(self):
        with pytest.raises(NonFinite):
            validate_povm([np.full((3, 3), np.nan)], 2)

    @pytest.mark.parametrize("check", [
        lambda: validate_povm([], 2),
        lambda: square_root_decoder([]),
        lambda: sequential_decoder([]),
    ])
    def test_empty_operator_lists_refused(self, check):
        with pytest.raises(PreconditionViolated):
            check()

    def test_encoder_rows_must_be_distributions(self, flip):
        enc = {(0, (0,)): [((0,), 0.7)], (0, (1,)): [((0,), 1.0)]}
        code = Code(1, 1, enc, [np.eye(2, dtype=complex)])
        with pytest.raises(GpcqError, match="not a distribution"):
            average_error(code, flip)

    def test_causal_tag_rejects_lookahead(self, flip):
        # First input digit copies the second state digit.
        enc = {}
        for s1 in range(2):
            for s2 in range(2):
                enc[(0, (s1, s2))] = [((s2, 0), 1.0)]
        code = Code(2, 1, enc, [np.eye(4, dtype=complex)], causal=True)
        with pytest.raises(GpcqError, match="causal marginal"):
            average_error(code, flip)

    def test_causal_tag_accepts_prefix_dependence(self, flip):
        # xor codes are slot-local, hence causal.
        enc = xor_code(2, 1).encoder
        code = Code(2, 1, enc, [np.eye(4, dtype=complex)], causal=True)
        assert average_error(code, flip) == pytest.approx(0.0, abs=1e-12)


class TestAverageError:
    def test_single_message_accept_all(self, stuck):
        assert average_error(identity_code(stuck), stuck) == pytest.approx(0.0, abs=1e-12)

    def test_flip_xor_is_noiseless(self, flip):
        assert average_error(xor_code(1, 2), flip) == pytest.approx(0.0, abs=1e-12)
        assert average_error(xor_code(2, 4), flip) == pytest.approx(0.0, abs=1e-12)

    def test_stuck_identity_encoder_closed_form(self, stuck):
        # Message bit goes straight in; the stuck symbol erases message 1.
        enc = {(m, (s,)): [((m,), 1.0)] for m in range(2) for s in range(2)}
        code = Code(1, 2, enc, BASIS_POVM_2, causal=True)
        assert average_error(code, stuck) == pytest.approx(0.15, abs=1e-12)


class TestSquareRootDecoder:
    def test_orthogonal_projectors_unchanged(self):
        elements, err = square_root_decoder([KET0, KET1])
        assert np.allclose(elements[0], KET0, atol=1e-12)
        assert np.allclose(elements[1], KET1, atol=1e-12)
        assert np.allclose(err, 0.0, atol=1e-12)

    def test_single_operator_keeps_support(self):
        elements, err = square_root_decoder([KET0])
        assert np.allclose(elements[0], KET0, atol=1e-12)
        assert np.allclose(err, KET1, atol=1e-12)

    def test_two_pure_states_achieve_helstrom(self):
        # For two equiprobable pure states the square-root measurement is
        # the optimal discriminator.
        elements, _ = square_root_decoder([KET0, PLUS])
        succ = 0.5 * float(
            np.real(np.trace(elements[0] @ KET0) + np.trace(elements[1] @ PLUS))
        )
        overlap = 0.5
        assert succ == pytest.approx(0.5 * (1 + math.sqrt(1 - overlap)), abs=1e-12)

    def test_zero_total(self):
        elements, err = square_root_decoder([np.zeros((2, 2), dtype=complex)])
        assert np.allclose(elements[0], 0.0)
        assert np.allclose(err, np.eye(2))

    def test_closure_for_random_overcomplete_sets(self, rng):
        dim = 6
        mats = []
        for _ in range(4):
            rho = random_density_matrix(dim, rng, rank=2)
            vals, vecs = np.linalg.eigh(rho)
            picked = vecs[:, vals > 1e-9]
            mats.append(picked @ picked.conj().T)
        elements, err = square_root_decoder(mats)
        total = sum(elements) + err
        assert np.max(np.abs(total - np.eye(dim))) < 1e-9


def decode_context(ch, q_rows, n, delta=0.2):
    """The simulator's decode states and basis for witness q_rows with strategy x = u xor s."""
    q_rows = np.asarray(q_rows, dtype=float)
    q = ch.p @ q_rows
    states = derived_states(ch.p, ch.tensor, q_rows / q, np.array([[0, 1], [1, 0]]))
    _, basis = eigenbasis(np.einsum("u,uij->ij", q, states))
    return DecodeContext(states, basis, n, delta)


WITNESSES = [("flip", [[0.5, 0.5], [0.5, 0.5]]), ("purecq", [[0.7, 0.3], [0.3, 0.7]])]


def random_projector(dim, rng):
    rho = random_density_matrix(dim, rng, rank=int(rng.integers(1, dim + 1)))
    vals, vecs = np.linalg.eigh(rho)
    picked = vecs[:, vals > 1e-9]
    return picked @ picked.conj().T


class TestBlockDecoders:
    """Block decoders, scattered and rotated back, equal the dense reference decoders."""

    @pytest.mark.parametrize("name, q_rows", WITNESSES)
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_match_dense_reference_on_decode_words(self, suite, name, q_rows, n):
        ctx = decode_context(suite[name], q_rows, n)
        words = np.random.default_rng(n).integers(0, 2, size=(8, n))
        stack, inverse = ctx.projectors(words)
        dense = [ref.dense_projector(ctx, w) for w in words]
        # Codewords summed in pairs, as a binned codebook's messages are.
        pairs = BlockStack(tuple(b[inverse[0::2]] + b[inverse[1::2]] for b in stack.blocks), stack.index)
        each = BlockStack(tuple(b[inverse] for b in stack.blocks), stack.index)
        cases = [
            (square_root_decoder(pairs), ref.square_root_decoder([a + b for a, b in zip(dense[0::2], dense[1::2])])),
            (sequential_decoder(each), ref.sequential_decoder(dense)),
        ]
        for (elements, error), (want, want_error) in cases:
            got = ref.product_frame_elements(elements, ctx.basis, n)
            assert max(float(np.abs(g - w).max()) for g, w in zip(got, want)) <= 1e-12
            assert float(np.abs(ref.product_frame_elements(error, ctx.basis, n)[0] - want_error).max()) <= 1e-12

    @pytest.mark.parametrize("name, q_rows", WITNESSES)
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_reference_projectors_vanish_off_class_blocks(self, suite, name, q_rows, n):
        ctx = decode_context(suite[name], q_rows, n)
        inside = np.zeros((2**n, 2**n), dtype=bool)
        for idx in ctx.partition.words:
            inside[np.ix_(idx, idx)] = True
        for w in np.random.default_rng(10 + n).integers(0, 2, size=(6, n)):
            mat = ref.to_basis_frame(ref.dense_projector(ctx, w), ctx.basis, n)
            assert float(np.abs(mat[~inside]).max()) <= 1e-14

    def test_match_dense_reference_on_random_block_diagonal_sets(self, rng):
        for _ in range(30):
            sizes = rng.integers(1, 5, size=int(rng.integers(1, 5)))
            cuts = np.split(rng.permutation(int(sizes.sum())), np.cumsum(sizes)[:-1])
            count = int(rng.integers(1, 6))
            stack = BlockStack(
                tuple(np.stack([random_projector(int(s), rng) for _ in range(count)]) for s in sizes),
                tuple(np.sort(cut) for cut in cuts),
            )
            dense = list(stack.dense())
            for decode, reference in [
                (square_root_decoder, ref.square_root_decoder),
                (sequential_decoder, ref.sequential_decoder),
            ]:
                (elements, error), (want, want_error) = decode(stack), reference(dense)
                assert max(float(np.abs(g - w).max()) for g, w in zip(elements.dense(), want)) <= 1e-12
                assert float(np.abs(error.dense()[0] - want_error).max()) <= 1e-12

    @staticmethod
    def two_blocks(first, second):
        """Two elements on a 3-dim space, blocks on indices {0, 2} and {1}."""
        return BlockStack((np.asarray(first, dtype=float), np.asarray(second, dtype=float)),
                          (np.array([0, 2]), np.array([1])))

    def test_block_elements_keep_each_error_code(self):
        half = 0.5 * np.eye(2)
        validate_povm(self.two_blocks([half, half], [[[0.5]], [[0.5]]]), 3)
        with pytest.raises(NonFinite, match="element 1"):
            validate_povm(self.two_blocks([half, half], [[[0.5]], [[np.nan]]]), 3)
        with pytest.raises(NonFinite, match="element 0"):
            validate_povm(self.two_blocks([np.full((2, 2), np.inf), half], [[[0.5]], [[0.5]]]), 4)
        with pytest.raises(InvalidPOVM, match="dimension"):
            validate_povm(self.two_blocks([half, half], [[[0.5]], [[0.5]]]), 4)
        with pytest.raises(InvalidPOVM, match="element 1 is not Hermitian"):
            validate_povm(self.two_blocks([half, [[0.5, 0.1], [0.0, 0.5]]], [[[0.5]], [[0.5]]]), 3)
        with pytest.raises(InvalidPOVM, match="above identity"):
            validate_povm(self.two_blocks([half, half], [[[0.5]], [[0.6]]]), 3)
        with pytest.raises(PreconditionViolated):
            validate_povm(self.two_blocks(np.zeros((0, 2, 2)), np.zeros((0, 1, 1))), 3)

    def test_block_positivity_bound_is_minus_1e_8(self):
        rotation = TestValidation.ROTATION
        for least, ok in [(-0.9999999e-8, True), (-1.0000001e-8, False)]:
            stack = self.two_blocks([0.5 * np.eye(2), rotation @ np.diag([0.5, least]) @ rotation.T],
                                    [[[0.5]], [[0.5]]])
            if ok:
                validate_povm(stack, 3)
            else:
                with pytest.raises(InvalidPOVM, match="element 1 has a negative eigenvalue"):
                    validate_povm(stack, 3)


class TestSequentialDecoder:
    def test_commuting_chain_telescopes(self):
        P1 = np.diag([1.0, 0, 0, 0]).astype(complex)
        P2 = np.diag([1.0, 1, 0, 0]).astype(complex)
        elements, err = sequential_decoder([P1, P2])
        assert np.allclose(elements[0], P1, atol=1e-12)
        assert np.allclose(elements[1], np.diag([0, 1, 0, 0]), atol=1e-12)
        assert np.allclose(err, np.diag([0, 0, 1, 1]), atol=1e-12)

    def test_single_test(self):
        elements, err = sequential_decoder([KET0])
        assert np.allclose(elements[0], KET0, atol=1e-12)
        assert np.allclose(err, KET1, atol=1e-12)

    def test_rejects_non_projectors(self):
        with pytest.raises(NotProjection):
            sequential_decoder([0.5 * np.eye(2)])

    def test_repeated_operator_object_is_checked_and_used_each_time(self):
        shared = KET0.copy()
        shared.setflags(write=False)
        elements, err = sequential_decoder([shared, KET1, shared])
        assert np.allclose(elements[0], KET0, atol=1e-12)
        assert np.allclose(elements[1], KET1, atol=1e-12)
        assert np.allclose(elements[2], 0.0, atol=1e-12)
        assert np.allclose(err, 0.0, atol=1e-12)
        bad = 0.5 * np.eye(2, dtype=complex)
        with pytest.raises(NotProjection, match="operator 0"):
            sequential_decoder([bad, bad])

    def test_order_matters_but_closure_holds(self, rng):
        for _ in range(10):
            projs = []
            for _ in range(3):
                rho = random_density_matrix(4, rng, rank=2)
                vals, vecs = np.linalg.eigh(rho)
                picked = vecs[:, vals > 1e-9]
                projs.append(picked @ picked.conj().T)
            elements, err = sequential_decoder(projs)
            total = sum(elements) + err
            assert np.max(np.abs(total - np.eye(4))) < 1e-8
            assert float(np.linalg.eigvalsh(err).min()) > -1e-8


class TestUnionBoundGap:
    def test_loss_never_beats_bound(self, rng):
        for _ in range(200):
            dim = 4
            sigma = random_density_matrix(dim, rng)
            projs = []
            for _ in range(int(rng.integers(1, 4))):
                rho = random_density_matrix(dim, rng, rank=int(rng.integers(1, 4)))
                vals, vecs = np.linalg.eigh(rho)
                picked = vecs[:, vals > 1e-9]
                projs.append(picked @ picked.conj().T)
            loss, bound = union_bound_gap(sigma, projs)
            assert loss <= bound + 1e-10

    def test_perfect_tests_lose_nothing(self):
        sigma = KET0
        loss, bound = union_bound_gap(sigma, [KET0, np.eye(2, dtype=complex)])
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert bound == pytest.approx(0.0, abs=1e-9)


# Identity strategy x = u: a binned row then lists the matched codewords themselves.
IDENTITY = np.array([[0, 1], [0, 1]])


class TestBinnedEncoderRows:
    """The explicit code's binned encoder rows: uniform over the matched bins, empty on a declare."""

    def test_encoder_returns_matching_word(self):
        words = type_class_words(nearest_type(COVER_JOINT.sum(axis=0), 12), (64, 2), rng_for(3, "bins"))
        s_word = np.array([0] * 6 + [1] * 6)
        row = binned_row(words, 1, s_word, COVER_JOINT, 0.2, IDENTITY)
        ks = admissible_indices(words, 1, s_word, COVER_JOINT, 0.2)
        assert row and len(row) == len(ks)
        for (x_word, prob), k in zip(row, ks):
            assert prob == 1.0 / len(ks)
            assert x_word == tuple(words[k, 1])
            assert matched_set_members([s_word], [x_word], COVER_JOINT, 0.2)[0, 0]

    def test_admissible_indices_match_per_bin_membership(self):
        words = type_class_words(nearest_type(COVER_JOINT.sum(axis=0), 8), (16, 3), rng_for(5, "bins"))
        rng = rng_for(6, "states")
        hits = 0
        for _ in range(40):
            s_word = rng.integers(0, 2, size=8)
            for m in range(3):
                ks = admissible_indices(words, m, s_word, COVER_JOINT, 0.3)
                assert ks == [
                    k for k in range(16) if matched_set_members([s_word], [words[k, m]], COVER_JOINT, 0.3)[0, 0]
                ]
                hits += len(ks)
        assert 0 < hits < 40 * 3 * 16

    def test_encoder_declares_when_no_bin_matches(self):
        words = type_class_words(nearest_type(COVER_JOINT.sum(axis=0), 12), (2, 1), rng_for(3, "bins"))
        s_word = np.zeros(12, dtype=np.int64)
        assert binned_row(words, 0, s_word, COVER_JOINT, 1e-9, IDENTITY) == []

    def test_declare_frequency_agrees_with_coverage(self):
        # Coverage at these parameters is estimated at 1.0; declares over
        # typical state words drawn from the source must match within noise.
        from gpcq.method_of_types import coverage_probability

        cov = coverage_probability(COVER_JOINT, n=12, K=64, delta=0.2, trials=500, seed=77)
        p_s = COVER_JOINT.sum(axis=1)
        counts = nearest_type(COVER_JOINT.sum(axis=0), 12)
        declares = 0
        trials = 300
        for t in range(trials):
            words = type_class_words(counts, (64, 1), rng_for(900 + t, "bins"))
            rng = rng_for(901, t)
            while True:
                s_word = rng.choice(2, size=12, p=p_s)
                if np.abs(np.bincount(s_word, minlength=2) / 12 - p_s).sum() <= 0.2:
                    break
            if not binned_row(words, 0, s_word, COVER_JOINT, 0.2, IDENTITY):
                declares += 1
        freq = declares / trials
        sigma = math.sqrt(max(cov.estimate * (1 - cov.estimate), 1e-4) / trials)
        assert abs(freq - (1.0 - cov.estimate)) <= 3 * sigma + 0.005


def non_commuting_channel():
    """Two states, two inputs, and random qubit outputs, some of which do not commute."""
    gen = rng_for(3, "non-commuting")
    labels = ["0", "1"]
    ch = build_channel(
        labels, labels, 2,
        {(s, x): random_density_matrix(2, gen) for s in labels for x in labels},
        np.array([0.4, 0.6]),
    )
    assert np.max(np.abs(ch.tensor[0, 0] @ ch.tensor[1, 1] - ch.tensor[1, 1] @ ch.tensor[0, 0])) > 1e-3
    return ch


# The trials' witnesses: x = u xor s, with q(u|s) for the binned trial and
# q(u|s) = q(u), which leaks nothing about the state, for the causal one.
XOR = np.array([[0, 1], [1, 0]])
ORACLE_Q_ROWS = {"binned": [[0.7, 0.3], [0.3, 0.7]], "causal": [[0.5, 0.5], [0.5, 0.5]]}
ORACLE_DELTA = 0.6


class TestTrialOracle:
    """Both simulated trials, written as explicit codes, have the trial's error under exact average_error.

    Each case replays the trial's codeword draw from the same seeded
    generator, decodes the codewords' dense product-frame projectors with the
    package decoders, and writes the encoder: a binned row is uniform over the
    message's matched bins (none on a declare), a causal row sends
    x_i = f_{u_i}(s_i). At radius 0.6 every (channel, scheme) has a case that
    neither always nor never declares (binned) or errs (causal).
    """

    @pytest.mark.parametrize("scheme", ["binned", "causal"])
    @pytest.mark.parametrize("name", ["flip", "stuck", "skew", "purecq", "non-commuting"])
    def test_trial_error_equals_explicit_code_error(self, suite, name, scheme):
        ch = non_commuting_channel() if name == "non-commuting" else suite[name]
        q_rows = np.array(ORACLE_Q_ROWS[scheme])
        q = ch.p @ q_rows
        p_su = ch.p[:, None] * q_rows
        states = derived_states(ch.p, ch.tensor, q_rows / q, XOR)
        _, basis = eigenbasis(np.einsum("u,uij->ij", q, states))
        informative = []
        for n, (M, K) in itertools.product([2, 3, 4], [(2, 2), (3, 2), (4, 1)]):
            ctx = DecodeContext(states, basis, n, ORACLE_DELTA)
            if scheme == "binned":
                err, declares = simulate_noncausal_trial(ch, p_su, XOR, ctx, K, M, rng_for(8, "oracle", n, M))
                words = type_class_words(nearest_type(q, n), (K, M), rng_for(8, "oracle", n, M))
                povm, _ = square_root_decoder(
                    [sum(ref.dense_projector(ctx, w) for w in words[:, m]) for m in range(M)]
                )
                code = binned_code(words, p_su, XOR, ORACLE_DELTA, povm)
                declared = sum(
                    math.prod(ch.p[s] for s in s_word)
                    for m in range(M)
                    for s_word in itertools.product(range(ch.num_states), repeat=n)
                    if (m, s_word) not in code.encoder
                ) / M
                assert declares == pytest.approx(declared, abs=1e-12), (n, M, K)
                informative.append(0.0 < declares < 1.0)
            else:
                err, _ = simulate_causal_trial(states, q, ctx, M, rng_for(8, "oracle", n, M))
                words = sequential_typical_words(q, n, M, ORACLE_DELTA, rng_for(8, "oracle", n, M))
                povm, _ = sequential_decoder([ref.dense_projector(ctx, w) for w in words])
                code = causal_code(words, XOR, ch.num_states, povm)
                informative.append(0.0 < err < 1.0)
            assert abs(average_error(code, ch) - err) <= 1e-12, (n, M, K)
        assert any(informative)


def sequential_typical_words(q, n, M, delta, rng):
    """Reference draw: one Generator.choice per candidate, up to 1000 per word, then a nearest-type word."""
    words = []
    for _ in range(M):
        for _ in range(1000):
            word = rng.choice(q.size, size=n, p=q)
            counts = np.bincount(word, minlength=q.size)
            if float(np.abs(counts / n - q).sum()) <= delta:
                words.append(word.astype(np.int64))
                break
        else:
            words.append(type_class_words(nearest_type(q, n), (), rng))
    return np.stack(words)


class TestTypicalWords:
    """The batched causal codeword draw equals one rng.choice per candidate, word for word."""

    @pytest.mark.parametrize("q, n, delta, Ms", [
        ((0.5, 0.5), 6, 0.2, (1, 40)),
        ((0.2, 0.3, 0.5), 6, 0.3, (1, 40)),
        ((0.25, 0.25, 0.5), 4, 0.0, (1, 40)),  # delta 0 on an exact type
        ((0.3, 0.7), 2, 0.2, (1, 2)),  # no word is typical: every word falls back
        ((0.125,) * 8, 8, 0.0, (1, 3)),  # 0.24% typical: about one word in eleven falls back
    ])
    def test_batched_draw_equals_the_sequential_draw(self, q, n, delta, Ms):
        q = np.asarray(q)
        for M in Ms:
            for seed in range(30):
                want = sequential_typical_words(q, n, M, delta, np.random.default_rng(seed))
                got = _typical_words(q, n, M, delta, np.random.default_rng(seed))
                assert got.dtype == want.dtype and np.array_equal(got, want), (M, seed)


class TestSimulationDriver:
    FLIP_WITNESS = (np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([[0, 1], [1, 0]]))
    CAUSAL_WITNESS = (np.array([0.5, 0.5]), np.array([[0, 1], [1, 0]]))

    def test_unknown_scheme_rejected(self, flip):
        with pytest.raises(GpcqError, match="unknown scheme"):
            simulate_rate_error_curve(flip, "telepathy", [0.5], [2], 1, 0)

    def test_noncausal_row_shape_and_declares(self, flip):
        rows = simulate_rate_error_curve(
            flip, "noncausal-sqrt", rates=[0.5], n_list=[2], trials=4, seed=33, K=2,
            delta=0.2, gp_witness=self.FLIP_WITNESS,
        )
        row = rows[0]
        assert (row.scheme, row.n, row.K, row.M) == ("noncausal-sqrt", 2, 2, 2)
        # Two-letter blocks of a split codeword cannot pass the matched-set
        # test at this radius, so every trial declares.
        assert row.declares == 1.0 and row.err == 1.0

    def test_causal_rows_deterministic(self, flip):
        kw = dict(rates=[0.5], n_list=[2], trials=3, seed=44, delta=1.2,
                  causal_witness=self.CAUSAL_WITNESS)
        rows1 = simulate_rate_error_curve(flip, "causal-sequential", **kw)
        rows2 = simulate_rate_error_curve(flip, "causal-sequential", **kw)
        assert rows1 == rows2
        assert rows1[0].M == 2 and rows1[0].K == 1
        assert 0.0 <= rows1[0].err <= 1.0

    def test_flip_causal_sequential_error_is_frozen(self, flip):
        # The arguments of `gpcq simulate channels/flip.chan --scheme
        # causal-sequential --rates 0.25,0.5 --n 2,4 --seed 5 --trials 4`.
        rows = simulate_rate_error_curve(
            flip, "causal-sequential", rates=[0.25, 0.5], n_list=[2, 4], trials=4, seed=5
        )
        by = {(r.rate, r.n): r for r in rows}
        assert abs(by[(0.5, 4)].err - 0.1875) <= 1e-12
        assert by[(0.5, 4)].M == 4

    @pytest.mark.parametrize("scheme", ["causal-sequential", "noncausal-sqrt"])
    @pytest.mark.parametrize("kw", [dict(delta=-1.0), dict(restarts=0), dict(restarts=-5)])
    def test_negative_radius_and_restarts_rejected(self, flip, scheme, kw):
        with pytest.raises(PreconditionViolated):
            simulate_rate_error_curve(
                flip, scheme, [0.5], [2], trials=1, seed=0,
                gp_witness=self.FLIP_WITNESS, causal_witness=self.CAUSAL_WITNESS, **kw,
            )

    def test_message_count_follows_rate(self, flip):
        rows = simulate_rate_error_curve(
            flip, "causal-sequential", [0.0, 0.5, 1.0], [4], trials=1, seed=2,
            delta=1.2, causal_witness=self.CAUSAL_WITNESS,
        )
        assert [r.M for r in rows] == [1, 4, 16]

    @pytest.mark.parametrize("scheme", ["causal-sequential", "noncausal-sqrt"])
    def test_memory_model_bounds_the_traced_peak(self, flip, scheme, monkeypatch):
        # The budget model must cover every array the run allocates
        # (tracemalloc sees numpy's) and stay within 25% of their peak.
        kw = dict(rates=[0.5], n_list=[8], trials=1, seed=5, K=2, delta=0.2,
                  gp_witness=self.FLIP_WITNESS, causal_witness=self.CAUSAL_WITNESS)
        simulate_rate_error_curve(flip, scheme, **kw)  # fills the n-slot class caches
        tracemalloc.start()
        try:
            simulate_rate_error_curve(flip, scheme, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setenv(BUDGET_ENV_VAR, str(peak))
        with pytest.raises(BudgetExceeded):
            simulate_rate_error_curve(flip, scheme, **kw)
        monkeypatch.setenv(BUDGET_ENV_VAR, str(int(1.25 * peak)))
        assert simulate_rate_error_curve(flip, scheme, **kw)[0].M == 16

    def test_csv_layout(self):
        rows = [SimRow("noncausal-sqrt", 4, 0.5, 2, 4, 0.25, 0.2, 0.3, 0.125)]
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "scheme,n,rate,K,M,err,ci_low,ci_high,declares"
        assert lines[1] == "noncausal-sqrt,4,0.5,2,4,0.25,0.2,0.3,0.125"
        assert text.endswith("\n")
