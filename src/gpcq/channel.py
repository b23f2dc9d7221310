"""State-parametrized classical-quantum channels and their on-disk format.

A channel is a family of density operators rho[s, x] indexed by a state
letter s (drawn i.i.d. from a known distribution p) and an input letter x
chosen by the sender. Channel documents are JSON with fields

    dim     output Hilbert-space dimension
    states  list of state labels
    inputs  list of input labels
    p       map state label -> probability
    rho     map "s|x" -> dim x dim array of [re, im] pairs

The serializer emits decimals with 17 significant digits, which round-trip
IEEE doubles exactly, so serialize -> parse is the identity on channels.
In memory a channel is two arrays, the prior p and the (|S|, |X|, dim, dim)
state tensor, aligned with the alphabets. Labels are opaque display strings;
product-extension labels join letters with ":" (a ":" or "\\" inside a
letter is escaped with "\\").
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Mapping

import numpy as np

from .errors import (
    AlphabetMismatch,
    BudgetExceeded,
    DimensionMismatch,
    GpcqError,
    NonFinite,
    NotPSD,
    ParseError,
    PreconditionViolated,
    TraceNotOne,
)
from .quantum import TAU_TR, validate_density

DEFAULT_BUDGET_BYTES = 1 << 30
BUDGET_ENV_VAR = "GPCQ_BUDGET_BYTES"

LABEL_JOIN = ":"


def memory_budget_bytes() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET_BYTES
    try:
        return int(raw)
    except ValueError as exc:
        raise GpcqError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from exc


@dataclass(eq=False)
class StateChannel:
    """Validated channel: prior p over the state letters and states tensor[s, x].

    ``p`` is a 1-D pmf aligned with ``state_alphabet`` and ``tensor`` the
    (|S|, |X|, dim, dim) array of density matrices aligned with both
    alphabets. Labels are for display; every solver reads the arrays.
    """

    state_alphabet: tuple[str, ...]
    input_alphabet: tuple[str, ...]
    p: np.ndarray
    tensor: np.ndarray
    warnings: tuple[str, ...] = ()

    @property
    def dim(self) -> int:
        return self.tensor.shape[2]

    @property
    def num_states(self) -> int:
        return self.tensor.shape[0]

    @property
    def num_inputs(self) -> int:
        return self.tensor.shape[1]


def _positive_prior(p, state_alphabet) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Check that p is a pmf over the state letters; keep its positive letters.

    Returns the indices of the positive letters, their renormalized masses
    and one warning per zero-probability letter.
    """
    pvec = np.asarray(p, dtype=float)
    if pvec.shape != (len(state_alphabet),):
        raise DimensionMismatch(f"{len(state_alphabet)} labels but masses of shape {pvec.shape}")
    if not np.all(np.isfinite(pvec)):
        raise NonFinite("masses must be finite numbers")
    if np.any(pvec < -TAU_TR):
        raise NotPSD(f"negative mass {pvec.min():.3e}")
    total = float(pvec.sum())
    if abs(total - 1.0) > TAU_TR:
        raise TraceNotOne(f"masses sum to {total!r}", total=total)
    keep = np.flatnonzero(pvec > 0)
    if keep.size == 0:
        raise AlphabetMismatch("no state letter has positive probability")
    warnings = [
        f"state {s!r} has zero probability; removed"
        for s, w in zip(state_alphabet, pvec)
        if not w > 0
    ]
    return keep, pvec[keep] / pvec[keep].sum(), warnings


def _check_states(tensor: np.ndarray, state_alphabet, input_alphabet) -> None:
    for i, j in np.ndindex(tensor.shape[:2]):
        validate_density(tensor[i, j], context=f"rho[{state_alphabet[i]}|{input_alphabet[j]}]")


def build_channel(
    state_alphabet,
    input_alphabet,
    dim: int,
    states: Mapping[tuple[str, str], np.ndarray],
    p,
    warnings=(),
) -> StateChannel:
    """Validate all pieces and assemble a StateChannel.

    ``states`` maps (s, x) label pairs to matrices and ``p`` lists the state
    masses in the order of ``state_alphabet``. Zero-probability state
    letters are stripped (recorded in ``warnings``); every remaining (s, x)
    pair must carry a valid density matrix of the declared dimension.
    """
    state_alphabet = tuple(str(s) for s in state_alphabet)
    input_alphabet = tuple(str(x) for x in input_alphabet)
    if len(set(state_alphabet)) != len(state_alphabet):
        raise AlphabetMismatch("duplicate state labels")
    if len(set(input_alphabet)) != len(input_alphabet):
        raise AlphabetMismatch("duplicate input labels")
    if not input_alphabet:
        raise AlphabetMismatch("empty input alphabet")
    keep, pvec, dropped = _positive_prior(p, state_alphabet)
    state_alphabet = tuple(state_alphabet[i] for i in keep)

    def entry(s, x):
        if (s, x) not in states:
            raise ParseError(f"missing state ({s},{x})")
        mat = np.asarray(states[(s, x)], dtype=complex)
        if mat.shape != (dim, dim):
            raise DimensionMismatch(f"rho[{s}|{x}] has shape {mat.shape}, expected ({dim},{dim})")
        return mat

    tensor = np.array([[entry(s, x) for x in input_alphabet] for s in state_alphabet])
    _check_states(tensor, state_alphabet, input_alphabet)
    return StateChannel(state_alphabet, input_alphabet, pvec, tensor, (*warnings, *dropped))


def parse_channel(document: str) -> StateChannel:
    """Parse and validate a channel document (see module docstring for format)."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # Integers past the interpreter's digit limit, or nesting past its
        # recursion limit: the text is JSON the reader refuses to hold.
        raise ParseError(f"unreadable JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    for key in ("dim", "states", "inputs", "p", "rho"):
        if key not in doc:
            raise ParseError(f"missing field {key!r}")
    dim = doc["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ParseError(f"dim must be a positive integer, got {dim!r}")
    for key in ("states", "inputs"):
        if not isinstance(doc[key], list):
            raise ParseError(f"{key} must be a list of labels, got {doc[key]!r}")
    state_alphabet = [str(s) for s in doc["states"]]
    input_alphabet = [str(x) for x in doc["inputs"]]
    p = doc["p"]
    if not isinstance(p, dict):
        raise ParseError("p must map state labels to probabilities")
    missing = [s for s in state_alphabet if s not in p]
    if missing:
        raise ParseError(f"p is missing state {missing[0]!r}")
    pvec = []
    for s in state_alphabet:
        if not _is_number(p[s]):
            raise ParseError(f"p[{s!r}] is not a number: {p[s]!r}")
        try:
            pvec.append(float(p[s]))
        except OverflowError as exc:
            raise ParseError(f"p[{s!r}] is not a number: {p[s]!r}") from exc

    rho = doc["rho"]
    if not isinstance(rho, dict):
        raise ParseError("rho must map 's|x' keys to matrices")
    states = {}
    for s in state_alphabet:
        for x in input_alphabet:
            key = f"{s}|{x}"
            if key not in rho:
                raise ParseError(f"missing state ({s},{x})")
            states[(s, x)] = _matrix_from_entries(rho[key], dim, key)
    return build_channel(state_alphabet, input_alphabet, dim, states, np.array(pvec))


def _is_number(value) -> bool:
    """A JSON number: strings and booleans do not count, though float() takes them."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _matrix_from_entries(entries, dim: int, key: str) -> np.ndarray:
    try:
        arr = np.asarray(entries, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"rho[{key!r}] entries must be numbers") from exc
    if arr.shape != (dim, dim, 2):
        raise ParseError(
            f"rho[{key!r}] must be a {dim}x{dim} array of [re, im] pairs, got shape {arr.shape}"
        )
    if not all(_is_number(v) for row in entries for pair in row for v in pair):
        raise ParseError(f"rho[{key!r}] entries must be numbers")
    if not np.all(np.isfinite(arr)):
        raise NonFinite(f"rho[{key!r}] entries must be finite numbers")
    return arr[..., 0] + 1j * arr[..., 1]


def _fmt(x: float) -> str:
    """Decimal with 17 significant digits; round-trips IEEE doubles exactly."""
    return format(float(x), ".17g")


def serialize_channel(ch: StateChannel) -> str:
    """Channel document text; parse(serialize(ch)) reproduces ch bit-exactly."""
    lines = ["{"]
    lines.append(f' "dim": {ch.dim},')
    lines.append(" \"inputs\": [" + ", ".join(json.dumps(x) for x in ch.input_alphabet) + "],")
    p_rows = ",\n".join(
        f"  {json.dumps(s)}: {_fmt(w)}" for s, w in zip(ch.state_alphabet, ch.p)
    )
    lines.append(' "p": {\n' + p_rows + "\n },")
    entries = []
    for s, states in zip(ch.state_alphabet, ch.tensor):
        for x, mat in zip(ch.input_alphabet, states):
            rows = []
            for row in mat:
                cells = ", ".join(f"[{_fmt(v.real)}, {_fmt(v.imag)}]" for v in row)
                rows.append(f"   [{cells}]")
            entries.append(f'  {json.dumps(f"{s}|{x}")}: [\n' + ",\n".join(rows) + "\n  ]")
    lines.append(' "rho": {\n' + ",\n".join(entries) + "\n },")
    lines.append(" \"states\": [" + ", ".join(json.dumps(s) for s in ch.state_alphabet) + "]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def load_channel(path: str) -> StateChannel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_channel(fh.read())


def letter_states(tensor: np.ndarray, strategy: np.ndarray) -> np.ndarray:
    """rho[s, strategy[s, u]] as an (|S|, |U|, dim, dim) array.

    ``tensor`` is a channel's (|S|, |X|, dim, dim) state array and
    ``strategy`` an (|S|, |U|) table of input indices: entry (s, u) is the
    output state when the state is s and the auxiliary letter is u.
    """
    return tensor[np.arange(tensor.shape[0])[:, None], strategy]


def derived_states(p: np.ndarray, tensor: np.ndarray, weights: np.ndarray, strategy: np.ndarray) -> np.ndarray:
    """States the decoder sees per auxiliary letter, an (|U|, dim, dim) array.

        A_u = sum_s p(s) weights[s, u] rho[s, strategy[s, u]].

    With weights q(u|s) this is p(u) times the decoder state of letter u
    (the Gel'fand-Pinsker ensemble); with weights 1 and one Shannon strategy
    per column it is the state-averaged output of each strategy, and with
    the identity strategy it is the state-averaged channel.
    """
    return np.einsum("su,suij->uij", p[:, None] * weights, letter_states(tensor, strategy))


def _joined(letters) -> str:
    """Product label: the letters joined by ':', with '\\' and ':' inside a letter escaped.

    The escaping keeps the labels of distinct words distinct whatever the
    letters' labels contain.
    """
    escaped = (s.replace("\\", "\\\\").replace(LABEL_JOIN, "\\" + LABEL_JOIN) for s in letters)
    return LABEL_JOIN.join(escaped)


def product_extension(ch: StateChannel, n: int) -> StateChannel:
    """n-fold memoryless extension with ':'-joined labels.

    Word (s_1..s_n, x_1..x_n) carries the state rho[s_1, x_1] (x) ... (x)
    rho[s_n, x_n] and the mass p(s_1)...p(s_n), with the first letter the
    most significant index. The extension materializes |S|^n * |X|^n density
    matrices of size d^n, so the log2 of its footprint is checked against the
    memory budget first (GPCQ_BUDGET_BYTES overrides the 1 GiB default), and
    no power of n is formed before it fits.
    """
    if n < 1:
        raise PreconditionViolated("extension power n", n, ">= 1")
    if n == 1:
        return ch
    budget = memory_budget_bytes()
    ns, nx, d = ch.num_states, ch.num_inputs, ch.dim
    log2_bytes = n * math.log2(ns * nx * d * d) + 4
    if log2_bytes > math.log2(max(budget, 1)):
        raise BudgetExceeded(
            f"product extension needs ~2^{log2_bytes:.1f} bytes, budget is {budget}", log2_bytes=log2_bytes
        )

    tensor, prior = ch.tensor, ch.p
    for _ in range(n - 1):
        a, b, m = tensor.shape[:3]
        tensor = np.einsum("abij,cdkl->acbdikjl", tensor, ch.tensor)
        tensor = tensor.reshape(a * ns, b * nx, m * d, m * d)
        prior = np.multiply.outer(prior, ch.p).ravel()
    state_alphabet = tuple(_joined(w) for w in iproduct(ch.state_alphabet, repeat=n))
    input_alphabet = tuple(_joined(w) for w in iproduct(ch.input_alphabet, repeat=n))
    keep, prior, warnings = _positive_prior(prior, state_alphabet)
    state_alphabet = tuple(state_alphabet[i] for i in keep)
    tensor = tensor[keep]
    _check_states(tensor, state_alphabet, input_alphabet)
    return StateChannel(state_alphabet, input_alphabet, prior, tensor, tuple(warnings))
