"""Decoders, the simulated trials against their explicit codes, and the simulation driver."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from gpcq import coding, noncausal
from gpcq.channel import BUDGET_ENV_VAR, build_channel, derived_states
from gpcq.coding import (
    SequentialChain,
    SimRow,
    _chunk_entries,
    _mean_ci,
    _success_traces,
    _typical_words,
    sequential_decoder,
    simulate_causal_trial,
    simulate_noncausal_trial,
    simulate_rate_error_curve,
    square_root_decoder,
    validate_povm,
)
from gpcq.errors import (
    BudgetExceeded,
    CapExceeded,
    GpcqError,
    InvalidPOVM,
    NonFinite,
    NotProjection,
    PreconditionViolated,
)
from gpcq.method_of_types import matched_set_members, nearest_type, type_class_words
from gpcq.quantum import BlockStack, eigenbasis
from gpcq.schur_weyl import DecodeContext, class_partition
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
        dense = [ref.dense_projector(ctx, w) for w in words]
        # Codewords summed in pairs, as a binned codebook's messages are.
        pairs = ctx.projectors(words.reshape(4, 2, n))
        each = ctx.projectors(words[:, None])
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
            dense = list(ref.dense(stack))
            for decode, reference in [
                (square_root_decoder, ref.square_root_decoder),
                (sequential_decoder, ref.sequential_decoder),
            ]:
                (elements, error), (want, want_error) = decode(stack), reference(dense)
                assert max(float(np.abs(g - w).max()) for g, w in zip(ref.dense(elements), want)) <= 1e-12
                assert float(np.abs(ref.dense(error)[0] - want_error).max()) <= 1e-12

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


class TestDecoderBatches:
    """A BlockStack with a batch axis decodes and validates as each of its lists alone, bit for bit."""

    INDEX = (np.array([0, 3, 4]), np.array([1, 5]), np.array([2]))

    @classmethod
    def batch(cls, members) -> BlockStack:
        """The members' blocks stacked along a leading batch axis."""
        return BlockStack(tuple(np.stack(blocks) for blocks in zip(*members)), cls.INDEX)

    @classmethod
    def member(cls, rng, count=4, scale=1.0, empty=()) -> list:
        """Blocks of count random projectors times scale, zero on the blocks listed in empty."""
        return [
            np.stack([scale * (c not in empty) * random_projector(idx.size, rng) for _ in range(count)])
            for c, idx in enumerate(cls.INDEX)
        ]

    @staticmethod
    def raised(call) -> tuple:
        with pytest.raises(GpcqError) as info:
            call()
        return type(info.value), str(info.value)

    def decoded(self, rng):
        """(decoder, its batched input, what it returns) for both decoders.

        The middle list's sum vanishes on block 1. For the square-root decoder
        that list is also scaled by 1e-12, below RANK_TOL of the other lists'
        sums, so only a support judged list by list keeps its elements.
        """
        out = []
        for decode, scale in [(sequential_decoder, 1.0), (square_root_decoder, 1e-12)]:
            stack = self.batch([self.member(rng), self.member(rng, scale=scale, empty=(1,)), self.member(rng)])
            out.append((decode, stack, decode(stack)))
        return out

    def test_batch_decodes_as_each_list_alone(self, rng):
        for decode, stack, (elements, error) in self.decoded(rng):
            for t in range(3):
                alone, alone_error = decode(BlockStack(tuple(b[t] for b in stack.blocks), self.INDEX))
                for got, want in [(elements, alone), (error, alone_error)]:
                    assert all(np.array_equal(g[t], w) for g, w in zip(got.blocks, want.blocks)), (decode, t)
            assert np.array_equal(error.blocks[1][1, 0], np.eye(2))
        # The scaled list keeps its support: its error outcome vanishes off block 1.
        assert float(np.abs(error.blocks[0][1, 0]).max()) <= 1e-12

    def test_each_list_is_checked_against_identity_on_its_own(self, rng):
        # Every list of the batch is a complete POVM, so the lists' elements
        # together sum to three identities; the batch still passes.
        for _, _, (elements, error) in self.decoded(rng):
            povm = BlockStack(tuple(np.concatenate(pair, axis=-3) for pair in zip(elements.blocks, error.blocks)),
                              self.INDEX)
            validate_povm(povm, 6)
            with pytest.raises(InvalidPOVM, match="above identity"):
                validate_povm(povm.reshape(-1), 6)

    def corrupt(self, stack, block, entry, value):
        """A copy of stack with entry (row, col) of element 2 of list 1 in the given block set to value."""
        blocks = [b.copy() for b in stack.blocks]
        blocks[block][(1, 2) + entry] = value
        return BlockStack(tuple(blocks), self.INDEX)

    @pytest.mark.parametrize("block, entry, value, text", [
        (0, (0, 0), np.nan, "element 2 has a non-finite entry"),
        (0, (0, 1), 0.3, "element 2 is not Hermitian"),
        (2, (0, 0), -0.1, "element 2 has a negative eigenvalue"),
        (2, (0, 0), 1.5, "elements sum above identity"),
    ])
    def test_bad_element_is_named_by_its_own_list(self, rng, block, entry, value, text):
        _, _, (elements, error) = self.decoded(rng)[0]
        povm = BlockStack(tuple(np.concatenate(pair, axis=-3) for pair in zip(elements.blocks, error.blocks)),
                          self.INDEX)
        bad = self.corrupt(povm, block, entry, value)
        alone = BlockStack(tuple(b[1] for b in bad.blocks), self.INDEX)
        got = self.raised(lambda: validate_povm(bad, 6))
        assert got == self.raised(lambda: validate_povm(alone, 6))
        assert text in got[1]

    @pytest.mark.parametrize("decode, value, error", [
        (square_root_decoder, np.inf, NonFinite),
        (sequential_decoder, 0.5, NotProjection),
    ])
    def test_bad_operator_is_named_by_its_own_list(self, rng, decode, value, error):
        stack = self.batch([self.member(rng), self.member(rng), self.member(rng)])
        bad = self.corrupt(stack, 2, (0, 0), value)
        got = self.raised(lambda: decode(bad))
        assert got == self.raised(lambda: decode(BlockStack(tuple(b[1] for b in bad.blocks), self.INDEX)))
        assert got[0] is error and "operator 2 " in got[1]


    def streamed(self, stack, chunk=2):
        """Feed a batched stack to one SequentialChain chunk messages at a time, then close it."""
        chain = SequentialChain()
        for lo in range(0, len(stack), chunk):
            chain.advance(BlockStack(tuple(b[..., lo : lo + chunk, :, :] for b in stack.blocks), self.INDEX))
        return chain.close()

    @pytest.mark.parametrize("value, error, text", [
        (0.5, NotProjection, "operator 2 is not a projector"),
        (np.inf, NonFinite, "operator 2 has a non-finite entry"),
    ])
    def test_bad_operator_in_a_later_chunk_is_named_by_its_own_list(self, rng, value, error, text):
        stack = self.batch([self.member(rng), self.member(rng), self.member(rng)])
        bad = self.corrupt(stack, 2, (0, 0), value)  # the first operator of list 1's second chunk
        got = self.raised(lambda: self.streamed(bad))
        assert got == self.raised(lambda: self.streamed(BlockStack(tuple(b[1] for b in bad.blocks), self.INDEX)))
        assert got == self.raised(lambda: sequential_decoder(bad))
        assert got == (error, text)

    @pytest.mark.parametrize("block, entry, value, text", [
        (0, (0, 0), np.nan, "element 2 has a non-finite entry"),
        (0, (0, 1), 0.3, "element 2 is not Hermitian"),
        (2, (0, 0), -0.1, "element 2 has a negative eigenvalue"),
    ])
    def test_bad_element_in_a_later_chunk_is_named_by_its_own_list(self, rng, monkeypatch, block, entry, value, text):
        # Once armed with a list, the chain's Hermitian part spoils that list's first element of the chunk in one block.
        armed, hermitian_part = [], coding._hermitian_part

        def spoiled(ops):
            out = hermitian_part(ops)
            if armed and out.ndim == 5 and out.shape[-1] == self.INDEX[block].size:
                out[(0, armed[0], 0) + entry] = value
            return out

        def streamed(stack, t):
            chain, armed[:] = SequentialChain(), []
            chain.advance(BlockStack(tuple(b[..., :2, :, :] for b in stack.blocks), self.INDEX))
            armed.append(t)
            chain.advance(BlockStack(tuple(b[..., 2:, :, :] for b in stack.blocks), self.INDEX))

        monkeypatch.setattr(coding, "_hermitian_part", spoiled)
        stack = self.batch([self.member(rng), self.member(rng), self.member(rng)])
        got = self.raised(lambda: streamed(stack, 1))
        assert got == self.raised(lambda: streamed(BlockStack(tuple(b[1:2] for b in stack.blocks), self.INDEX), 0))
        assert text in got[1]


class TestStreamedChain:
    """Chunks of a causal batch give the whole list's elements, error outcome and traces, bit for bit."""

    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("name", ["flip", "purecq", "stuck"])
    def test_chunks_equal_the_whole_list_and_each_trial_alone(self, suite, name, n):
        ch, M, T = suite[name], 9, 3
        ctx, q = decode_context(ch, [[0.5, 0.5], [0.5, 0.5]], n), np.array([0.5, 0.5])
        words = np.stack([_typical_words(q, n, M, ctx.delta, rng_for(4, name, n, t)) for t in range(T)])
        rotated = ctx.rotate(ctx.states)

        def traced(elements, part):
            """Each element's success trace, (T, messages), against its codeword's product state."""
            slots = [rotated[part[..., j].reshape(-1)][:, None] for j in range(n)]
            return _success_traces(elements.reshape(-1), slots).reshape(len(part), -1)

        def same(got, want):
            return all(np.array_equal(g, w) for g, w in zip(got.blocks, want.blocks))

        whole, whole_error = sequential_decoder(ctx.projectors(words.reshape(T * M, 1, n)).reshape(T, M))
        whole_traces = traced(whole, words)
        for chunk in (1, 2, 7, M):
            chain = SequentialChain()
            for lo in range(0, M, chunk):
                part = words[:, lo : lo + chunk]
                got = chain.advance(ctx.projectors(part.reshape(-1, 1, n)).reshape(T, -1))
                assert same(got, BlockStack(tuple(b[:, lo : lo + chunk] for b in whole.blocks), whole.index)), chunk
                assert np.array_equal(traced(got, part), whole_traces[:, lo : lo + chunk]), chunk
            assert same(chain.close(), whole_error), chunk
            rows = simulate_causal_trial(ctx.states, q, ctx, M, [rng_for(4, name, n, t) for t in range(T)], chunk)
            alone = [simulate_causal_trial(ctx.states, q, ctx, M, [rng_for(4, name, n, t)], M) for t in range(T)]
            assert np.array_equal(rows, np.concatenate(alone)), chunk
        for t in range(T):
            alone, alone_error = sequential_decoder(ctx.projectors(words[t].reshape(M, 1, n)))
            assert same(alone, BlockStack(tuple(b[t] for b in whole.blocks), whole.index)), t
            assert same(alone_error, BlockStack(tuple(b[t] for b in whole_error.blocks), whole.index)), t
            assert np.array_equal(traced(alone.reshape(1, M), words[t : t + 1]), whole_traces[t : t + 1]), t


class TestSuccessTraces:
    @pytest.mark.parametrize("lead, L", [((2,), 2), ((), 1)])
    def test_chunks_keep_every_trace_and_match_the_kron_fold(self, rng, lead, L):
        # The binned trial's slot shape (K state lists of |S| states) and the causal one's (one state).
        d, n, count = 2, 3, 23
        part = class_partition(d, n)
        elements = BlockStack(tuple(rng.normal(size=(count, w.size, w.size)) for w in part.words), part.words)
        slots = [rng.normal(size=(count, *lead, L, d, d)) for _ in range(n)]
        E = sum(w.size**2 for w in part.words)
        assert count * E // _chunk_entries(d**n, d, [math.prod(lead) * L] + [L] * (n - 1)) > 1
        got = _success_traces(elements, slots)
        assert got.shape == (count, *lead, L**n)
        for m in range(count):
            one = BlockStack(tuple(b[m : m + 1] for b in elements.blocks), elements.index)
            assert np.array_equal(got[m : m + 1], _success_traces(one, [s[m : m + 1] for s in slots]))
        mats = ref.dense(elements)
        for m, k in itertools.product(range(count), np.ndindex(*lead)):
            for w, idx in enumerate(itertools.product(range(L), repeat=n)):
                state = ref.kron_all(slots[j][(m, *k, i)] for j, i in enumerate(idx))
                assert abs(got[(m, *k, w)] - np.trace(mats[m] @ state).real) <= 1e-12


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
                [(err, declares)] = simulate_noncausal_trial(ch, p_su, XOR, ctx, K, M, [rng_for(8, "oracle", n, M)])
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
                [(err, _)] = simulate_causal_trial(states, q, ctx, M, [rng_for(8, "oracle", n, M)], M)
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


# float.hex of (err, ci_low, ci_high, declares) for every row of `gpcq simulate
# channels/<name>.chan --scheme <scheme> --rates 0.25,0.5 --n 2,4 --seed 5
# --trials 4`, keyed by (name, scheme, n, rate). Any change in the last bit of
# a simulated error or declare mass moves one of them.
PINNED_ROWS = {
    ("flip", "causal-sequential", 2, 0.25): ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    ("flip", "causal-sequential", 2, 0.5): ("0x1.8000000000000p-2", "0x1.0a3d70a3d70a4p-3", "0x1.3d70a3d70a3d7p-1", "0x0.0p+0"),
    ("flip", "causal-sequential", 4, 0.25): ("0x1.0000000000000p-3", "0x0.0p+0", "0x1.7ae147ae147aep-2", "0x0.0p+0"),
    ("flip", "causal-sequential", 4, 0.5): ("0x1.8000000000000p-3", "0x1.0a3d70a3d70a4p-4", "0x1.3d70a3d70a3d7p-2", "0x0.0p+0"),
    ("flip", "noncausal-sqrt", 2, 0.25): ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("flip", "noncausal-sqrt", 2, 0.5): ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("flip", "noncausal-sqrt", 4, 0.25): ("0x1.7e00000000000p-1", "0x1.6a66666666666p-1", "0x1.919999999999ap-1", "0x1.6000000000000p-1"),
    ("flip", "noncausal-sqrt", 4, 0.5): ("0x1.9180000000000p-1", "0x1.81df020c85208p-1", "0x1.a120fdf37adf8p-1", "0x1.5c00000000000p-1"),
    ("purecq", "causal-sequential", 2, 0.25): ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0"),
    ("purecq", "causal-sequential", 2, 0.5): ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0"),
    ("purecq", "causal-sequential", 4, 0.25): ("0x1.ea80000000000p-1", "0x1.dfb851eb851ecp-1", "0x1.f547ae147ae14p-1", "0x0.0p+0"),
    ("purecq", "causal-sequential", 4, 0.5): ("0x1.e344000000000p-1", "0x1.db03462142794p-1", "0x1.eb84b9debd86cp-1", "0x0.0p+0"),
    ("purecq", "noncausal-sqrt", 2, 0.25): ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("purecq", "noncausal-sqrt", 2, 0.5): ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("purecq", "noncausal-sqrt", 4, 0.25): ("0x1.b9c12f3672fe9p-1", "0x1.af29eddcfc0fbp-1", "0x1.c458708fe9ed7p-1", "0x1.6000000000000p-1"),
    ("purecq", "noncausal-sqrt", 4, 0.5): ("0x1.c441cb6622c50p-1", "0x1.bbc26c57c467fp-1", "0x1.ccc12a7481221p-1", "0x1.5c00000000000p-1"),
    ("stuck", "causal-sequential", 2, 0.25): ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0"),
    ("stuck", "causal-sequential", 2, 0.5): ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0"),
    ("stuck", "causal-sequential", 4, 0.25): ("0x1.051eb851eb852p-1", "0x1.051eb851eb852p-1", "0x1.051eb851eb852p-1", "0x0.0p+0"),
    ("stuck", "causal-sequential", 4, 0.5): ("0x1.051eb851eb852p-1", "0x1.051eb851eb852p-1", "0x1.051eb851eb852p-1", "0x0.0p+0"),
    ("stuck", "noncausal-sqrt", 2, 0.25): ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("stuck", "noncausal-sqrt", 2, 0.5): ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("stuck", "noncausal-sqrt", 4, 0.25): ("0x1.ffffffffffffep-1", "0x1.ffffffffffffep-1", "0x1.ffffffffffffep-1", "0x1.ffffffffffffep-1"),
    ("stuck", "noncausal-sqrt", 4, 0.5): ("0x1.ffffffffffffep-1", "0x1.ffffffffffffep-1", "0x1.ffffffffffffep-1", "0x1.fffffffffffffp-1"),
}


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
    @pytest.mark.parametrize("name", ["flip", "purecq", "stuck"])
    def test_seeded_curves_are_pinned_to_the_bit(self, suite, name, scheme):
        rows = simulate_rate_error_curve(suite[name], scheme, rates=[0.25, 0.5], n_list=[2, 4], trials=4, seed=5)
        got = {(name, scheme, r.n, r.rate): tuple(x.hex() for x in (r.err, r.ci_low, r.ci_high, r.declares))
               for r in rows}
        assert got == {key: pins for key, pins in PINNED_ROWS.items() if key[:2] == (name, scheme)}

    @pytest.mark.parametrize("scheme", ["causal-sequential", "noncausal-sqrt"])
    @pytest.mark.parametrize("kw", [dict(delta=-1.0), dict(restarts=0), dict(restarts=-5)])
    def test_negative_radius_and_restarts_rejected(self, flip, scheme, kw):
        with pytest.raises(PreconditionViolated):
            simulate_rate_error_curve(
                flip, scheme, [0.5], [2], trials=1, seed=0,
                gp_witness=self.FLIP_WITNESS, causal_witness=self.CAUSAL_WITNESS, **kw,
            )

    @pytest.mark.parametrize("scheme", ["causal-sequential", "noncausal-sqrt"])
    def test_negative_rate_rejected(self, flip, scheme):
        kw = dict(trials=2, seed=1, gp_witness=self.FLIP_WITNESS, causal_witness=self.CAUSAL_WITNESS)
        with pytest.raises(PreconditionViolated, match="rate"):
            simulate_rate_error_curve(flip, scheme, [0.5, -0.5], [4], **kw)
        assert simulate_rate_error_curve(flip, scheme, [0.0], [4], **kw)[0].M == 1

    # Stuck's prior makes the error and declare sums round, so their order shows.
    @pytest.mark.parametrize("scheme", ["causal-sequential", "noncausal-sqrt"])
    @pytest.mark.parametrize("name", ["flip", "purecq", "stuck"])
    def test_uneven_batches_equal_one_trial_at_a_time(self, suite, name, scheme, monkeypatch):
        ch, n, trials, seed, rates = suite[name], 4, 10, 3, (0.5, 1.2)
        ctx = decode_context(ch, self.FLIP_WITNESS[0], n)
        q, p_su = np.array([0.5, 0.5]), ch.p[:, None] * self.FLIP_WITNESS[0]
        causal = scheme == "causal-sequential"

        def one(M, rngs):
            if causal:
                return simulate_causal_trial(ctx.states, q, ctx, M, rngs, M)
            return simulate_noncausal_trial(ch, p_su, XOR, ctx, 2, M, rngs)

        sizes, chunks = {}, {}

        def counted(*args):
            # A causal call ends (M, rngs, chunk), a binned one (M, rngs).
            M, rngs = args[-3:-1] if causal else args[-2:]
            sizes.setdefault(M, []).append(len(rngs))
            chunks[M] = args[-1] if causal else M
            return simulate_causal_trial(*args) if causal else simulate_noncausal_trial(*args)

        monkeypatch.setattr(coding, "simulate_causal_trial" if causal else "simulate_noncausal_trial", counted)
        rows = simulate_rate_error_curve(ch, scheme, rates, [n], trials, seed, K=2, delta=0.2,
                                         gp_witness=self.FLIP_WITNESS, causal_witness=self.CAUSAL_WITNESS)
        monkeypatch.undo()
        if causal:
            # The chain streams: each point's ten trials run in one call, the rate-1.2 point in several chunks.
            assert sizes == {4: [trials], 28: [trials]} and math.ceil(28 / chunks[28]) >= 2
        else:
            # The cap splits the small-rate point's ten trials into batches of unequal size.
            assert len(set(sizes[4])) == 2 and sum(sizes[4]) == trials and sizes[28] == [1] * trials
        tag = "causal" if causal else "noncausal"
        for r_idx, (rate, row) in enumerate(zip(rates, rows)):
            results = np.concatenate([one(row.M, [rng_for(seed, tag, n, r_idx, t)]) for t in range(trials)])
            err, lo, hi = _mean_ci(results[:, 0])
            want = SimRow(scheme, n, rate, 1 if causal else 2, row.M, err, lo, hi, float(np.mean(results[:, 1])))
            assert row == want

    def test_state_word_cap_is_refused_before_any_solve(self, monkeypatch):
        # Three states at n = 8 are 3^8 = 6561 state words, past STATE_WORD_CAP;
        # n = 2 would fit, so the refusal must come before its witness and trials.
        states = {(s, x): KET0 if (i + int(x)) % 2 else PLUS for i, s in enumerate("abc") for x in "01"}
        ch = build_channel(list("abc"), "01", 2, states, [0.4, 0.4, 0.2])

        def solve(*args, **kwargs):
            raise AssertionError("the witness was solved before the cap was checked")

        monkeypatch.setattr(noncausal, "noncausal_lower_bound", solve)
        with pytest.raises(CapExceeded, match="6561"):
            simulate_rate_error_curve(ch, "noncausal-sqrt", [0.25], [2, 8], trials=1, seed=0)

    def test_message_count_follows_rate(self, flip):
        rows = simulate_rate_error_curve(
            flip, "causal-sequential", [0.0, 0.5, 1.0], [4], trials=1, seed=2,
            delta=1.2, causal_witness=self.CAUSAL_WITNESS,
        )
        assert [r.M for r in rows] == [1, 4, 16]

    @pytest.mark.parametrize(
        "scheme, rates, trials, Ms",
        [
            pytest.param("causal-sequential", [0.5], 1, [16], id="causal-sequential"),
            pytest.param("noncausal-sqrt", [0.5], 1, [16], id="noncausal-sqrt"),
            # One message: the success-trace chunk is the largest phase.
            pytest.param("causal-sequential", [0.0], 1, [1], id="causal-sequential-one-message"),
            pytest.param("noncausal-sqrt", [0.0], 1, [1], id="noncausal-sqrt-one-message"),
            # Rate 0.25 runs its five trials in batches of three and two, each
            # within the model of one rate-0.5 trial.
            pytest.param("causal-sequential", [0.25, 0.5], 5, [4, 16], id="causal-sequential-batched"),
            pytest.param("noncausal-sqrt", [0.25, 0.5], 5, [4, 16], id="noncausal-sqrt-batched"),
            # The rate-1.0 point's four trials stream in chunks shorter than its 256 messages.
            pytest.param("causal-sequential", [0.5, 1.0], 4, [16, 256], id="causal-sequential-chunked"),
        ],
    )
    def test_memory_model_bounds_the_traced_peak(self, flip, scheme, rates, trials, Ms, monkeypatch):
        # The budget model must cover every array the run allocates
        # (tracemalloc sees numpy's) and stay within 25% of their peak.
        kw = dict(rates=rates, n_list=[8], trials=trials, seed=5, K=2, delta=0.2,
                  gp_witness=self.FLIP_WITNESS, causal_witness=self.CAUSAL_WITNESS)
        causal = scheme == "causal-sequential"
        simulate_rate_error_curve(flip, scheme, **kw)  # fills the n-slot class caches
        plans = []  # (trials, M, chunk) of every trial call

        def traced():
            trial = simulate_causal_trial if causal else simulate_noncausal_trial

            def planned(*args):
                # A causal call ends (M, rngs, chunk), a binned one (M, rngs).
                plans.append((len(args[-2]), args[-3], args[-1]) if causal else (len(args[-1]), args[-2], None))
                return trial(*args)

            monkeypatch.setattr(coding, trial.__name__, planned)
            tracemalloc.start()
            try:
                rows = simulate_rate_error_curve(flip, scheme, **kw)
                return rows, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                monkeypatch.setattr(coding, trial.__name__, trial)

        _, peak = traced()
        lead, states = (1, 1) if causal else (2, flip.num_states)
        model = 8 * max(coding._batch_entries(t, M, 8, flip.dim, lead, states, chunk) for t, M, chunk in plans)
        assert peak <= model <= 1.25 * peak
        monkeypatch.setenv(BUDGET_ENV_VAR, str(peak))
        if causal and Ms != [1]:
            # The chain refuses only when one message per chunk does not fit: below the
            # run's model it takes shorter chunks, and stays within the budget.
            rows, streamed_peak = traced()
            assert [row.M for row in rows] == Ms and streamed_peak <= peak
        else:
            with pytest.raises(BudgetExceeded):
                simulate_rate_error_curve(flip, scheme, **kw)
        monkeypatch.setenv(BUDGET_ENV_VAR, str(int(1.25 * peak)))
        assert [row.M for row in simulate_rate_error_curve(flip, scheme, **kw)] == Ms

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize(
        "lead, states, chunk",
        [(1, 1, 1), (2, 2, None), (3, 2, None), (2, 3, None), (1, 2, None)],
        ids=["causal", "binned-K2-S2", "binned-K3-S2", "binned-K2-S3", "binned-K1-S2"],
    )
    def test_message_count_is_the_one_trial_model_check(self, d, lead, states, chunk, monkeypatch):
        # _messages_for_rate gives the M, or the error, of forming 2^(n rate)
        # messages and checking one trial's _batch_entries against the budget.
        rates = [0, 0.1, 0.25, 0.375, 0.5, 0.75, 1, 1.2, 1.5, 2, 3, 5, 10, 40, 700]
        for budget, n, rate in itertools.product([2**b for b in range(16, 34)], range(1, 13), rates):
            monkeypatch.setenv(BUDGET_ENV_VAR, str(budget))
            try:
                class_partition(d, n)
                if states**n > coding.STATE_WORD_CAP:
                    raise CapExceeded("state words")
                # Past 2^64 messages of at least one entry each, no budget here fits.
                M = math.ceil(2.0 ** (n * rate) - 1e-9) if n * rate <= 64 else None
                if M is None or 8 * coding._batch_entries(1, M, n, d, lead, states, chunk) > budget:
                    raise BudgetExceeded("one trial")
                want = M
            except (CapExceeded, BudgetExceeded) as exc:
                want = type(exc)
            try:
                got = coding._messages_for_rate(rate, n, d, lead, states, chunk)
            except (CapExceeded, BudgetExceeded) as exc:
                got = type(exc)
            assert got == want, (budget, n, rate)
