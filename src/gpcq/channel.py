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
Labels are opaque strings; product-extension labels join letters with ":".
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import product as iproduct
from typing import Mapping

import numpy as np

from .errors import (
    AlphabetMismatch,
    BudgetExceeded,
    DimensionMismatch,
    GpcqError,
    NonFinite,
    ParseError,
)
from .quantum import Distribution, kron_all, validate_density

TAU_COMM = 1e-9

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
    """Validated channel: states rho[(s, x)], state prior p over the s letters."""

    state_alphabet: tuple[str, ...]
    input_alphabet: tuple[str, ...]
    dim: int
    states: Mapping[tuple[str, str], np.ndarray]
    p: Distribution
    warnings: tuple[str, ...] = ()
    _tensor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ns, nx = len(self.state_alphabet), len(self.input_alphabet)
        t = np.empty((ns, nx, self.dim, self.dim), dtype=complex)
        for i, s in enumerate(self.state_alphabet):
            for j, x in enumerate(self.input_alphabet):
                t[i, j] = self.states[(s, x)]
        self._tensor = t

    @property
    def num_states(self) -> int:
        return len(self.state_alphabet)

    @property
    def num_inputs(self) -> int:
        return len(self.input_alphabet)

    def state(self, s: str, x: str) -> np.ndarray:
        return self.states[(s, x)]

    def tensor(self) -> np.ndarray:
        """States as an (|S|, |X|, dim, dim) array aligned with the alphabets."""
        return self._tensor


@dataclass(eq=False)
class RandomizedEncoder:
    """Auxiliary-letter encoder kernel: (s, u) -> distribution over inputs.

    ``kernel`` has shape (|S|, |U|, |X|) with rows summing to one.
    """

    aux_size: int
    kernel: np.ndarray

    def __post_init__(self):
        self.kernel = np.asarray(self.kernel, dtype=float)
        if self.kernel.ndim != 3 or self.kernel.shape[1] != self.aux_size:
            raise DimensionMismatch(
                f"kernel shape {self.kernel.shape} does not match aux size {self.aux_size}"
            )
        rows = self.kernel.sum(axis=2)
        if np.any(np.abs(rows - 1.0) > 1e-9) or np.any(self.kernel < -1e-12):
            raise DimensionMismatch("kernel rows must be distributions over inputs")


def build_channel(
    state_alphabet,
    input_alphabet,
    dim: int,
    states: Mapping[tuple[str, str], np.ndarray],
    p,
    warnings=(),
) -> StateChannel:
    """Validate all pieces and assemble a StateChannel.

    Zero-probability state letters are stripped (recorded in ``warnings``);
    every remaining (s, x) pair must carry a valid density matrix of the
    declared dimension.
    """
    state_alphabet = tuple(str(s) for s in state_alphabet)
    input_alphabet = tuple(str(x) for x in input_alphabet)
    if len(set(state_alphabet)) != len(state_alphabet):
        raise AlphabetMismatch("duplicate state labels")
    if len(set(input_alphabet)) != len(input_alphabet):
        raise AlphabetMismatch("duplicate input labels")
    if not input_alphabet:
        raise AlphabetMismatch("empty input alphabet")
    if isinstance(p, Distribution):
        if tuple(p.labels) != state_alphabet:
            raise AlphabetMismatch("p labels do not match the state alphabet")
        pvec = p.probs
    else:
        pvec = np.asarray(p, dtype=float)
    dist = Distribution(state_alphabet, pvec)

    warnings = list(warnings)
    keep = [i for i, w in enumerate(dist.probs) if w > 0]
    dropped = [s for i, s in enumerate(state_alphabet) if i not in keep]
    for s in dropped:
        warnings.append(f"state {s!r} has zero probability; removed")
    if not keep:
        raise AlphabetMismatch("no state letter has positive probability")
    state_alphabet = tuple(state_alphabet[i] for i in keep)
    pvec = dist.probs[keep]
    pvec = pvec / pvec.sum()

    checked = {}
    for s in state_alphabet:
        for x in input_alphabet:
            if (s, x) not in states:
                raise ParseError(f"missing state ({s},{x})")
            mat = np.asarray(states[(s, x)], dtype=complex)
            if mat.shape != (dim, dim):
                raise DimensionMismatch(
                    f"rho[{s}|{x}] has shape {mat.shape}, expected ({dim},{dim})"
                )
            checked[(s, x)] = validate_density(mat, context=f"rho[{s}|{x}]").matrix
    return StateChannel(
        state_alphabet,
        input_alphabet,
        dim,
        checked,
        Distribution(state_alphabet, pvec),
        tuple(warnings),
    )


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
        f"  {json.dumps(s)}: {_fmt(w)}" for s, w in zip(ch.state_alphabet, ch.p.probs)
    )
    lines.append(' "p": {\n' + p_rows + "\n },")
    entries = []
    for s in ch.state_alphabet:
        for x in ch.input_alphabet:
            rows = []
            for row in ch.states[(s, x)]:
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


def derived_channel(ch: StateChannel, enc: RandomizedEncoder) -> np.ndarray:
    """States seen by the receiver per auxiliary letter, averaged over p and x.

    Returns an (|U|, dim, dim) array:
        rho_u = sum_s sum_x p(s) kernel(s, u)(x) rho[s, x].
    """
    _check_encoder_shape(ch, enc)
    return np.einsum("s,sux,sxij->uij", ch.p.probs, enc.kernel, ch.tensor())


def conditional_derived_channel(ch: StateChannel, enc: RandomizedEncoder) -> np.ndarray:
    """Per-(s, u) averaged states, an (|S|, |U|, dim, dim) array."""
    _check_encoder_shape(ch, enc)
    return np.einsum("sux,sxij->suij", enc.kernel, ch.tensor())


def _check_encoder_shape(ch: StateChannel, enc: RandomizedEncoder):
    ns, nu, nx = enc.kernel.shape
    if ns != ch.num_states or nx != ch.num_inputs:
        raise AlphabetMismatch(
            f"encoder kernel is ({ns},{nu},{nx}) but channel has |S|={ch.num_states}, |X|={ch.num_inputs}"
        )


def product_extension(ch: StateChannel, n: int, budget_bytes: int | None = None) -> StateChannel:
    """n-fold memoryless extension with ':'-joined labels.

    The extension materializes |S|^n * |X|^n density matrices of size d^n, so
    the estimated footprint is checked against the memory budget first
    (GPCQ_BUDGET_BYTES overrides the 1 GiB default).
    """
    if n < 1:
        raise GpcqError(f"extension power must be >= 1, got {n}")
    if n == 1:
        return ch
    budget = memory_budget_bytes() if budget_bytes is None else budget_bytes
    ns, nx, d = ch.num_states, ch.num_inputs, ch.dim
    required = (ns**n) * (nx**n) * (d ** (2 * n)) * 16
    if required > budget:
        raise BudgetExceeded(
            f"product extension needs ~{required} bytes, budget is {budget}",
            required_bytes=required,
        )

    def joined(letters):
        return LABEL_JOIN.join(letters)

    s_seqs = list(iproduct(ch.state_alphabet, repeat=n))
    x_seqs = list(iproduct(ch.input_alphabet, repeat=n))
    states = {}
    for s_seq in s_seqs:
        for x_seq in x_seqs:
            states[(joined(s_seq), joined(x_seq))] = kron_all(
                ch.states[(s, x)] for s, x in zip(s_seq, x_seq)
            )
    pvec = []
    for s_seq in s_seqs:
        w = 1.0
        for s in s_seq:
            w *= ch.p.mass(s)
        pvec.append(w)
    return build_channel(
        [joined(s) for s in s_seqs],
        [joined(x) for x in x_seqs],
        d**n,
        states,
        np.array(pvec),
    )


@dataclass(eq=False)
class ClassicalTable:
    """Classical reduction of a commuting channel.

    ``table[(s, x)]`` is the output pmf over ``output_labels`` in the common
    eigenbasis; ``basis`` holds that eigenbasis as columns. ``classical`` is
    False when some commutator is above tolerance, in which case only
    ``max_commutator_norm`` is meaningful.
    """

    classical: bool
    max_commutator_norm: float
    basis: np.ndarray | None = None
    table: dict | None = None
    output_labels: tuple[int, ...] = ()


def classical_embedding(ch: StateChannel, tol: float = TAU_COMM) -> ClassicalTable:
    """Joint-diagonalize all channel states when they pairwise commute.

    Commutators are measured in spectral norm. On success the returned table
    w(y | s, x) reproduces every state as a diagonal matrix in one shared
    orthonormal basis.
    """
    mats = [ch.states[(s, x)] for s in ch.state_alphabet for x in ch.input_alphabet]
    worst = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            c = mats[i] @ mats[j] - mats[j] @ mats[i]
            worst = max(worst, float(np.linalg.norm(c, 2)))
    if worst > tol:
        return ClassicalTable(classical=False, max_commutator_norm=worst)

    basis = _common_eigenbasis(mats, ch.dim)
    table = {}
    for s in ch.state_alphabet:
        for x in ch.input_alphabet:
            diag = np.real(np.einsum("ij,jk,ki->i", basis.conj().T, ch.states[(s, x)], basis))
            diag = np.clip(diag, 0.0, None)
            table[(s, x)] = diag / diag.sum()
    return ClassicalTable(
        classical=True,
        max_commutator_norm=worst,
        basis=basis,
        table=table,
        output_labels=tuple(range(ch.dim)),
    )


def _common_eigenbasis(mats, dim: int) -> np.ndarray:
    """Eigenbasis of a deterministic random combination of commuting Hermitians."""
    for attempt in range(8):
        rng = np.random.default_rng(1234 + attempt)
        coeffs = rng.normal(size=len(mats))
        h = sum(c * m for c, m in zip(coeffs, mats))
        h = (h + h.conj().T) / 2.0
        _, basis = np.linalg.eigh(h)
        off = 0.0
        for m in mats:
            rot = basis.conj().T @ m @ basis
            off = max(off, float(np.max(np.abs(rot - np.diag(np.diagonal(rot))))))
        if off <= 1e-7:
            return basis
    raise GpcqError(
        "failed to jointly diagonalize a commuting family (degenerate combination)"
    )
