"""Channel model: parsing, derived states, products, classical reduction."""

import functools
import itertools
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpcq.causal import causal_capacity
from gpcq.channel import (
    build_channel,
    derived_states,
    letter_states,
    parse_channel,
    product_extension,
    serialize_channel,
)
from gpcq.errors import (
    BudgetExceeded,
    DimensionMismatch,
    GpcqError,
    NonFinite,
    NotPSD,
    ParseError,
    PreconditionViolated,
    TraceNotOne,
)
from gpcq.noncausal import noncausal_lower_bound, product_witness
from gpcq.quantum import holevo_quantity, shannon_entropy

from classical_oracles import TAU_COMM, classical_channel_capacity, classical_embedding

CHANNELS = pathlib.Path(__file__).resolve().parent.parent / "channels"

KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


VALID_DOC = {
    "dim": 2,
    "states": ["0", "1"],
    "inputs": ["a"],
    "p": {"0": 0.25, "1": 0.75},
    "rho": {
        "0|a": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        "1|a": [[[0.5, 0.0], [0.0, -0.5]], [[0.0, 0.5], [0.5, 0.0]]],
    },
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


# phi(s, u) = u xor s as an (s, u) strategy table.
XOR = np.array([[0, 1], [1, 0]])
IDENTITY = np.array([[0, 1], [0, 1]])


def unit_states(ch, strategy):
    """derived_states with weights 1: the state-averaged output per column u."""
    return derived_states(ch.p, ch.tensor, np.ones(strategy.shape), strategy)


class TestParseSerialize:
    def test_round_trip_bit_exact(self, flip):
        text = serialize_channel(flip)
        again = serialize_channel(parse_channel(text))
        assert text == again

    def test_round_trip_all_channels(self, suite):
        for ch in suite.values():
            text = serialize_channel(ch)
            back = parse_channel(text)
            assert back.state_alphabet == ch.state_alphabet
            assert back.input_alphabet == ch.input_alphabet
            assert np.array_equal(back.p, ch.p)
            assert np.array_equal(back.tensor, ch.tensor)

    @pytest.mark.parametrize("name", ["flip", "stuck", "skew", "purecq"])
    def test_corpus_files_are_the_serialized_generators(self, suite, name):
        # make_channels.py regenerates channels/ byte for byte.
        assert serialize_channel(suite[name]) == (CHANNELS / f"{name}.chan").read_text()

    def test_missing_state_entry(self, flip):
        doc = json.loads(serialize_channel(flip))
        del doc["rho"]["1|0"]
        with pytest.raises(ParseError, match=r"missing state \(1,0\)"):
            parse_channel(json.dumps(doc))

    def test_bad_trace_reported_with_location(self, flip):
        doc = json.loads(serialize_channel(flip))
        doc["rho"]["0|0"][0][0] = [0.9, 0.0]
        with pytest.raises(TraceNotOne, match=r"rho\[0\|0\]"):
            parse_channel(json.dumps(doc))

    def test_non_numeric_entry_is_parse_error(self, flip):
        doc = json.loads(serialize_channel(flip))
        doc["rho"]["0|0"][0][0] = ["one", 0.0]
        with pytest.raises(ParseError, match=r"rho\['0\|0'\] entries must be numbers"):
            parse_channel(json.dumps(doc))

    def test_valid_doc_parses(self):
        ch = parse_channel(json.dumps(VALID_DOC))
        assert ch.state_alphabet == ("0", "1") and ch.dim == 2

    @settings(max_examples=300, deadline=None)
    @given(
        st.fixed_dictionaries(
            {key: st.just(value) | JSON_VALUES for key, value in VALID_DOC.items()}
        )
    )
    def test_arbitrary_fields_parse_or_raise_domain_error(self, doc):
        # Each required key holds either its valid value or an arbitrary JSON
        # value; json writes NaN and infinities as literals it reads back.
        try:
            ch = parse_channel(json.dumps(doc))
        except GpcqError:
            return
        assert ch.dim == doc["dim"]

    @pytest.mark.parametrize(
        "text",
        ['{"dim": ' + "1" * 5000 + "}", "[" * 100000 + "]" * 100000],
        ids=["long-integer", "deep-nesting"],
    )
    def test_json_the_reader_refuses_is_parse_error(self, text):
        # Past the interpreter's integer-digit and recursion limits.
        with pytest.raises(ParseError):
            parse_channel(text)

    def test_integer_beyond_float_range_is_parse_error(self):
        # json reads 10**400 as an int that float() cannot hold.
        doc = json.loads(json.dumps(VALID_DOC))
        doc["p"]["0"] = 10**400
        with pytest.raises(ParseError, match=r"p\['0'\] is not a number"):
            parse_channel(json.dumps(doc))
        doc = json.loads(json.dumps(VALID_DOC))
        doc["rho"]["0|a"][0][0][0] = 10**400
        with pytest.raises(ParseError, match=r"entries must be numbers"):
            parse_channel(json.dumps(doc))

    @pytest.mark.parametrize("value", ["0.5", False, True])
    def test_string_or_boolean_mass_is_parse_error(self, flip, value):
        # float() reads "0.5" and booleans, but the format asks for numbers.
        doc = json.loads(serialize_channel(flip))
        doc["p"]["0"] = value
        with pytest.raises(ParseError, match=r"p\['0'\] is not a number"):
            parse_channel(json.dumps(doc))

    @pytest.mark.parametrize("pair", [["1", False], ["1", 0], [1, False], [True, 0]])
    def test_string_or_boolean_entry_is_parse_error(self, flip, pair):
        # np.asarray(..., dtype=float) reads "1" and booleans, but the format asks for numbers.
        doc = json.loads(serialize_channel(flip))
        doc["rho"]["0|0"][0][0] = pair
        with pytest.raises(ParseError, match=r"rho\['0\|0'\] entries must be numbers"):
            parse_channel(json.dumps(doc))

    def test_zero_mass_state_stripped_with_warning(self):
        ch = build_channel(
            "01",
            "01",
            2,
            {
                (s, x): (KET0 if (int(s) + int(x)) % 2 == 0 else KET1)
                for s in "01"
                for x in "01"
            },
            [1.0, 0.0],
        )
        assert ch.state_alphabet == ("0",)
        assert ch.tensor.shape == (1, 2, 2, 2) and np.array_equal(ch.p, [1.0])
        assert any("'1'" in w and "zero probability" in w for w in ch.warnings)


class TestPrior:
    STATES = {(s, x): KET0 for s in "xy" for x in "a"}

    def test_prior_is_a_validated_array(self):
        ch = build_channel("xy", "a", 2, self.STATES, [0.25, 0.75])
        assert ch.p.shape == (2,) and ch.p.dtype == float
        assert ch.p.sum() == pytest.approx(1.0)
        assert (ch.dim, ch.num_states, ch.num_inputs) == (2, 2, 1)

    @pytest.mark.parametrize(
        "p, error",
        [
            ([np.nan, 0.5], NonFinite),
            ([np.inf, 0.5], NonFinite),
            ([-0.25, 1.25], NotPSD),
            ([0.5, 0.5 + 1e-6], TraceNotOne),
            ([1.0], DimensionMismatch),
        ],
    )
    def test_bad_prior_is_refused(self, p, error):
        with pytest.raises(error):
            build_channel("xy", "a", 2, self.STATES, p)


class TestDerivedChannel:
    def test_state_independent(self):
        states = {(s, x): (KET0 if x == "0" else PLUS) for s in "01" for x in "01"}
        ch = build_channel("01", "01", 2, states, [0.5, 0.5])
        out = unit_states(ch, IDENTITY)
        assert np.allclose(out[0], KET0, atol=1e-12)
        assert np.allclose(out[1], PLUS, atol=1e-12)

    def test_kernel_ignoring_u(self, flip):
        # Every auxiliary letter sends input 0 whatever the state.
        out = unit_states(flip, np.zeros((2, 2), dtype=np.int64))
        assert np.allclose(out[0], out[1], atol=1e-12)
        assert holevo_quantity(np.array([0.5, 0.5]), out) == pytest.approx(0.0, abs=1e-12)

    def test_flip_xor_inversion(self, flip):
        out = unit_states(flip, XOR)
        assert np.allclose(out[0], KET0, atol=1e-12)
        assert np.allclose(out[1], KET1, atol=1e-12)

    def test_conditional_variant_skips_state_average(self, flip):
        cond = letter_states(flip.tensor, XOR)
        assert cond.shape == (2, 2, 2, 2)
        for s in range(2):
            for u in range(2):
                expected = KET0 if u == 0 else KET1
                assert np.allclose(cond[s, u], expected, atol=1e-12)

    def test_weights_scale_each_state_letter(self, stuck):
        # A_u = sum_s p(s) weights[s, u] rho[s, strategy[s, u]], term by term.
        weights = np.array([[0.25, 0.75], [0.6, 0.4]])
        out = derived_states(stuck.p, stuck.tensor, weights, IDENTITY)
        tensor, p = stuck.tensor, stuck.p
        for u in range(2):
            expected = sum(p[s] * weights[s, u] * tensor[s, IDENTITY[s, u]] for s in range(2))
            assert np.allclose(out[u], expected, atol=1e-15)
        assert np.trace(out.sum(axis=0)).real == pytest.approx(1.0, abs=1e-12)

    def test_product_kernel_commutes_with_extension(self, flip, stuck):
        # The derived states of an n=2 product witness on the product channel
        # are Kronecker products of the single-letter ones, so product_witness
        # and product_extension lay out letters in the same order.
        sol = causal_capacity(stuck)
        witnesses = [
            (flip, np.full((2, 2), 0.5), XOR),
            (stuck, np.tile(sol.q, (2, 1)), np.asarray(sol.strategy.columns).T),
        ]
        for ch, q, strategy in witnesses:
            single = derived_states(ch.p, ch.tensor, q, strategy)
            ch2 = product_extension(ch, 2)
            q2, strategy2 = product_witness(q, strategy, ch.num_inputs, n=2)
            pair = derived_states(ch2.p, ch2.tensor, q2, strategy2)
            nu = q.shape[1]
            assert pair.shape == (nu * nu, 4, 4)
            for u in range(nu):
                for v in range(nu):
                    assert np.max(np.abs(pair[nu * u + v] - np.kron(single[u], single[v]))) <= 1e-12


class TestProductExtension:
    def test_identity_at_one(self, stuck):
        same = product_extension(stuck, 1)
        assert same.state_alphabet == stuck.state_alphabet
        assert np.array_equal(same.tensor, stuck.tensor)

    def test_two_fold_kron(self, flip):
        ch2 = product_extension(flip, 2)
        assert ch2.dim == 4
        assert len(ch2.state_alphabet) == 4
        s, x = ch2.state_alphabet.index("0:1"), ch2.input_alphabet.index("1:0")
        expected = np.kron(flip.tensor[0, 1], flip.tensor[1, 0])
        assert np.allclose(ch2.tensor[s, x], expected, atol=1e-15)
        assert np.allclose(ch2.p, 0.25)

    @pytest.mark.parametrize("name", ["flip", "purecq"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_every_state_is_the_kron_of_its_letters(self, suite, name, n):
        ch = suite[name]
        ext = product_extension(ch, n)
        assert ext.tensor.shape == (ch.num_states**n, ch.num_inputs**n, ch.dim**n, ch.dim**n)
        s_words = list(itertools.product(range(ch.num_states), repeat=n))
        x_words = list(itertools.product(range(ch.num_inputs), repeat=n))
        for i, s_word in enumerate(s_words):
            for j, x_word in enumerate(x_words):
                expected = functools.reduce(np.kron, (ch.tensor[s, x] for s, x in zip(s_word, x_word)))
                assert np.array_equal(ext.tensor[i, j], expected)
        expected_p = functools.reduce(np.multiply.outer, [ch.p] * n).ravel()
        assert np.array_equal(ext.p, expected_p)

    def test_all_product_traces_one(self, purecq):
        ch2 = product_extension(purecq, 2)
        traces = np.trace(ch2.tensor, axis1=2, axis2=3).real
        assert np.allclose(traces, 1.0, atol=1e-12)

    def test_colon_labels_extend_and_solve(self, flip):
        # Joined labels "a:b" + "c" and "a" + "b:c" would collide unescaped;
        # labels are for display, so the numbers match renamed letters.
        def relabeled(labels):
            states = {
                (labels[2 * a + b], x): flip.tensor[a, int(x)] for a in range(2) for b in range(2) for x in "01"
            }
            return build_channel(labels, "01", 2, states, [0.25] * 4)

        colon = relabeled(["a", "a:b", "c", "b:c"])
        plain = relabeled(["s0", "s1", "s2", "s3"])
        assert parse_channel(serialize_channel(colon)).state_alphabet == colon.state_alphabet
        ext = product_extension(colon, 2)
        assert len(set(ext.state_alphabet)) == 16
        assert np.array_equal(ext.tensor, product_extension(plain, 2).tensor)
        got = noncausal_lower_bound(colon, n=2, restarts=1, seed=1)
        want = noncausal_lower_bound(plain, n=2, restarts=1, seed=1)
        assert got.value == want.value
        assert np.array_equal(got.q_given_s, want.q_given_s)

    @pytest.mark.parametrize("n", [0, -1])
    def test_nonpositive_power_is_rejected(self, flip, n):
        with pytest.raises(PreconditionViolated):
            product_extension(flip, n)

    def test_env_override(self, flip, monkeypatch):
        monkeypatch.setenv("GPCQ_BUDGET_BYTES", "1024")
        with pytest.raises(BudgetExceeded):
            product_extension(flip, 4)


class TestClassicalEmbedding:
    def test_diagonal_channel(self, flip):
        w, _ = classical_embedding(flip)
        assert w.shape == (2, 2, 2)
        assert np.allclose(w, np.real(np.diagonal(flip.tensor, axis1=2, axis2=3)), atol=1e-12)

    def test_noncommuting_pair(self):
        states = {("0", "a"): KET0, ("0", "b"): PLUS}
        ch = build_channel(["0"], ["a", "b"], 2, states, [1.0])
        w, worst = classical_embedding(ch)
        assert w is None
        assert worst == pytest.approx(0.5, abs=1e-12)

    def test_single_state_channel(self):
        ch = build_channel(["0"], ["a"], 2, {("0", "a"): PLUS}, [1.0])
        w, worst = classical_embedding(ch)
        assert w is not None and worst == 0.0
        assert np.allclose(np.sort(w[0, 0]), [0.0, 1.0], atol=1e-12)

    def test_purecq_not_classical(self, purecq):
        w, worst = classical_embedding(purecq)
        assert w is None and worst > TAU_COMM

    def test_holevo_equals_mutual_information_on_diagonals(self, stuck):
        # Feed the classical table back through the Shannon formula; the
        # Holevo quantity of diagonal ensembles must match exactly.
        table, _ = classical_embedding(stuck)
        assert table is not None
        ens = unit_states(stuck, IDENTITY)
        q = np.array([0.4, 0.6])
        w = np.einsum("s,sxy->xy", stuck.p, table)
        out = q @ w
        mutual = shannon_entropy(out) - sum(q[x] * shannon_entropy(w[x]) for x in range(2))
        assert holevo_quantity(q, ens) == pytest.approx(mutual, abs=1e-9)

    def test_classical_capacity_cross_check(self, flip):
        # The state-averaged flip channel is a binary symmetric channel with
        # crossover 1/2 and zero capacity.
        table, _ = classical_embedding(flip)
        w = np.einsum("s,sxy->xy", flip.p, table)
        assert classical_channel_capacity(w) == pytest.approx(0.0, abs=1e-6)
