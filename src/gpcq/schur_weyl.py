"""Permutation-symmetric projectors on tensor powers of a finite-dim space.

Young frames index the isotypic blocks of the commuting symmetric-group and
general-linear actions on (C^d)^(tensor n). Central projectors are built
from cached conjugacy-class sums with integer characters. A frequency class
is a diagonal mask in any product basis (frequency_mask) and commutes with
them exactly, so typicality-filtered decoding projectors factor into a
diagonal mask times a sum of central projectors, conjugated back to the
original tensor slots.
Block and decoding projectors are returned as plain arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations as iter_permutations

import numpy as np

from .channel import memory_budget_bytes
from .errors import (
    BudgetExceeded,
    CapExceeded,
    GpcqError,
    NotProjection,
    NumericalRankFailure,
    PreconditionViolated,
)
from .quantum import kl_divergence, kron_all, shannon_entropy, spectrum, pinch
from .util import compositions, digit_table

PERM_GROUP_CAP = 9
DIM_CAP = 4096
FRAME_CAP = 100_000
TAU_PROJ = 1e-8

YoungFrame = tuple[int, ...]


def young_frames(d: int, n: int) -> list[YoungFrame]:
    """Partitions of n into at most d parts, in descending lexicographic order.

    Raises PreconditionViolated for d < 1 or n < 0.
    """
    if d < 1 or n < 0:
        raise PreconditionViolated("d >= 1 and n >= 0", (d, n), "in range")
    out: list[YoungFrame] = []

    def extend(prefix, remaining, max_part, slots):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if slots == 0:
            return
        top = min(max_part, remaining)
        floor = -(-remaining // slots)
        for part in range(top, floor - 1, -1):
            extend(prefix + [part], remaining - part, part, slots - 1)

    extend([], n, n, d)
    return out


def frame_distribution(frame: YoungFrame, d: int) -> np.ndarray:
    """Row lengths normalized to a pmf, zero-padded to dimension d."""
    n = sum(frame)
    padded = np.zeros(d)
    padded[: len(frame)] = frame
    return padded / n


def frame_entropy(frame: YoungFrame, d: int) -> float:
    return shannon_entropy(frame_distribution(frame, d))


def hook_lengths(frame: YoungFrame) -> list[list[int]]:
    cols = [sum(1 for row in frame if row > j) for j in range(frame[0])] if frame else []
    return [
        [frame[i] - j + cols[j] - i - 1 for j in range(frame[i])]
        for i in range(len(frame))
    ]


def irrep_dimension(frame: YoungFrame) -> int:
    """Symmetric-group irrep dimension by the hook length formula."""
    n = sum(frame)
    denom = 1
    for row in hook_lengths(frame):
        for h in row:
            denom *= h
    dim, rem = divmod(math.factorial(n), denom)
    if rem:
        raise GpcqError(f"hook product does not divide {n}! for frame {frame}")
    return dim


def gl_multiplicity(frame: YoungFrame, d: int) -> int:
    """Dimension of the commutant block: hook content formula."""
    if len(frame) > d:
        return 0
    hooks = hook_lengths(frame)
    num, den = 1, 1
    for i, row in enumerate(hooks):
        for j, h in enumerate(row):
            num *= d + j - i
            den *= h
    mult, rem = divmod(num, den)
    if rem:
        raise GpcqError(f"hook content not integral for frame {frame}, d={d}")
    return mult


@dataclass(frozen=True)
class FrameDimensionBounds:
    dimension: int
    lower: float
    upper: float


def _multinomial_bound(frame: YoungFrame, d: int) -> float:
    """2^(n H(frame/n)); CapExceeded when it is beyond the float range."""
    n = sum(frame)
    h = frame_entropy(frame, d)
    try:
        return 2.0 ** (n * h)
    except OverflowError:
        raise CapExceeded(
            f"n*H = {n * h:.1f} bits: 2^(n*H) exceeds the float range"
        ) from None


def frame_dimension_bounds(frame: YoungFrame, d: int) -> FrameDimensionBounds:
    """Entropy sandwich on the irrep dimension.

    Upper bound is the multinomial bound 2^(n H(frame/n)); the lower bound
    carries a crude polynomial correction 2^(-2 d^6 log2(2n)) that is valid
    for every frame and tightens only in the exponent rate. An upper bound
    beyond the float range raises CapExceeded before the dimension is computed.
    """
    n = sum(frame)
    upper = _multinomial_bound(frame, d)
    dim = irrep_dimension(frame)
    lower = upper * 2.0 ** (-2.0 * d**6 * math.log2(2 * n))
    if not (lower <= dim <= upper * (1 + 1e-9)):
        raise GpcqError(f"dimension sandwich violated for {frame}: {lower} <= {dim} <= {upper}")
    return FrameDimensionBounds(dim, lower, upper)


def frame_count(d: int, n: int) -> int:
    """Number of Young frames of n with at most d rows, counted without listing them.

    By conjugation these are the partitions of n into parts of size at most d.
    """
    k = min(d, n)
    if k < 2:
        return 1
    ways = [1] * (n + 1)
    for part in range(2, k + 1):
        for m in range(part, n + 1):
            ways[m] += ways[m - part]
    return ways[n]


def check_frame_table(d: int, n: int) -> None:
    """Refuse, before any frame is listed, a table of frames of n with at most d rows.

    CapExceeded when the most balanced frame, which has the largest entropy,
    has a bound 2^(n*H) beyond the float range, or when there are more than
    FRAME_CAP frames. The entropy check comes first: for d >= 2 it keeps n
    below about 1,030, which bounds frame_count's n * min(d, n) loop.
    """
    k = min(d, n)
    q, r = divmod(n, k)
    _multinomial_bound((q + 1,) * r + (q,) * (k - r), d)
    count = frame_count(d, n)
    if count > FRAME_CAP:
        raise CapExceeded(f"{count} frames of n = {n} with at most {d} rows exceed the cap {FRAME_CAP}")


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


def _remove_border_strips(frame: YoungFrame, k: int):
    """All (smaller frame, sign) results of deleting a length-k border strip."""
    length = len(frame)
    beta = [frame[i] + (length - 1 - i) for i in range(length)]
    beta_set = set(beta)
    results = []
    for i, b in enumerate(beta):
        nb = b - k
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for other in beta if nb < other < b)
        new_beta = sorted((set(beta) - {b}) | {nb}, reverse=True)
        new_frame = tuple(
            nb_i - (length - 1 - idx) for idx, nb_i in enumerate(new_beta)
        )
        new_frame = tuple(part for part in new_frame if part > 0)
        results.append((new_frame, (-1) ** height))
    return results


@lru_cache(maxsize=None)
def character(frame: YoungFrame, cycle_type: tuple[int, ...]) -> int:
    """Integer symmetric-group character by border-strip recursion."""
    if sum(frame) != sum(cycle_type):
        raise GpcqError(f"frame {frame} and cycle type {cycle_type} disagree in size")
    if not frame:
        return 1
    k, rest = cycle_type[0], cycle_type[1:]
    total = 0
    for smaller, sign in _remove_border_strips(frame, k):
        total += sign * character(smaller, rest)
    return total


_CLASS_SUMS: dict[tuple[int, int], dict[tuple[int, ...], np.ndarray]] = {}
_CENTRAL_PROJECTORS: dict[tuple["YoungFrame", int, int], np.ndarray] = {}


def _check_caps(d: int, n: int):
    if n > PERM_GROUP_CAP:
        raise CapExceeded(f"n = {n} exceeds permutation-group cap {PERM_GROUP_CAP}")
    if d**n > DIM_CAP:
        raise CapExceeded(f"d^n = {d**n} exceeds dimension cap {DIM_CAP}")


def class_sums(d: int, n: int) -> dict[tuple[int, ...], np.ndarray]:
    """Sum of position-permutation operators per conjugacy class, cached.

    The p(n) dense d^n x d^n sums are checked against the memory budget
    (GPCQ_BUDGET_BYTES overrides the 1 GiB default) before any is allocated.
    """
    key = (d, n)
    if key in _CLASS_SUMS:
        return _CLASS_SUMS[key]
    _check_caps(d, n)
    dim = d**n
    types = cycle_types(n)
    budget = memory_budget_bytes()
    required = len(types) * dim * dim * 8
    if required > budget:
        raise BudgetExceeded(
            f"class sums need ~{required} bytes, budget is {budget}",
            required_bytes=required,
        )
    digits = digit_table(d, n)
    place = d ** np.arange(n - 1, -1, -1)
    sums = {ct: np.zeros((dim, dim)) for ct in types}
    cols = np.arange(dim)
    for perm in iter_permutations(range(n)):
        ct = permutation_cycle_type(perm)
        rows = digits[:, perm] @ place
        np.add.at(sums[ct], (rows, cols), 1.0)
    _CLASS_SUMS[key] = sums
    return sums


def central_projector(frame: YoungFrame, d: int, n: int) -> np.ndarray:
    """Projector onto the isotypic block of one frame, real symmetric.

    Cached per (frame, d, n); the returned array is marked read-only.
    """
    key = (frame, d, n)
    if key in _CENTRAL_PROJECTORS:
        return _CENTRAL_PROJECTORS[key]
    sums = class_sums(d, n)
    dim_frame = irrep_dimension(frame)
    out = np.zeros((d**n, d**n))
    for ct, mat in sums.items():
        chi = character(frame, ct)
        if chi:
            out += chi * mat
    out *= dim_frame / math.factorial(n)
    out = 0.5 * (out + out.T)
    _assert_projector(out, f"central projector {frame}")
    expected = dim_frame * gl_multiplicity(frame, d)
    if abs(np.trace(out) - expected) > 1e-6:
        raise GpcqError(
            f"central projector trace {np.trace(out)} != {expected} for {frame}"
        )
    out.setflags(write=False)
    _CENTRAL_PROJECTORS[key] = out
    return out


def _assert_projector(mat: np.ndarray, context: str):
    defect = float(np.max(np.abs(mat @ mat - mat)))
    if defect > TAU_PROJ:
        raise NotProjection(f"{context}: idempotency defect {defect}")


@lru_cache(maxsize=None)
def _sequence_types_cached(d: int, n: int):
    digits = digit_table(d, n)
    return np.stack([(digits == a).sum(axis=1) for a in range(d)], axis=1)


def sequence_types(d: int, n: int) -> np.ndarray:
    """Letter counts of every length-n sequence, shape (d^n, d)."""
    _check_caps(d, n)
    return _sequence_types_cached(d, n)


def frequency_mask(freq, d: int, n: int) -> np.ndarray:
    freq = np.asarray(freq, dtype=np.int64)
    if freq.sum() != n:
        raise GpcqError(f"frequency {freq.tolist()} does not sum to {n}")
    return np.all(sequence_types(d, n) == freq[None, :], axis=1)


def kostka_zero_combinatorial(freq, frame: YoungFrame) -> bool:
    """True when the frame fails to dominate the sorted frequency vector."""
    sorted_f = sorted((int(c) for c in freq), reverse=True)
    width = max(len(sorted_f), len(frame))
    lam = list(frame) + [0] * (width - len(frame))
    fv = sorted_f + [0] * (width - len(sorted_f))
    run_l = run_f = 0
    for i in range(width):
        run_l += lam[i]
        run_f += fv[i]
        if run_l < run_f:
            return True
    return False


def kostka_rank(freq, frame: YoungFrame, d: int, n: int) -> int:
    """Rank of the frequency-filtered isotypic projector via its trace.

    The product of the commuting diagonal mask and central projector is a
    projector, so its rank equals its trace restricted to the frequency
    class. The trace must sit within 1e-6 of an integer.
    """
    mask = frequency_mask(freq, d, n)
    trace = float(np.sum(np.diag(central_projector(frame, d, n))[mask]))
    rank = round(trace)
    if abs(trace - rank) > 1e-6:
        raise NumericalRankFailure(
            f"trace {trace} not near an integer for {tuple(freq)}/{frame}"
        )
    return rank


def a_set(rho: np.ndarray, basis: np.ndarray, m: int, radius: float) -> tuple[tuple, tuple]:
    """Frequencies close to the pinched diagonal, frames close to the spectrum.

    Closeness is relative-entropy distance at most ``radius`` for the
    normalized frequency against the pinched distribution and for the
    normalized frame against the spectrum. Membership separates into these
    two conditions, so the typicality-filtered (frequency, frame) index set
    of a block is the Cartesian product of the returned (freqs, frames).
    """
    d = rho.shape[0]
    pinched = pinch(rho, basis)
    spec = spectrum(rho)
    freqs = tuple(
        f for f in compositions(m, d) if kl_divergence(np.asarray(f) / m, pinched) <= radius
    )
    frames = tuple(
        lam
        for lam in young_frames(d, m)
        if kl_divergence(frame_distribution(lam, d), spec) <= radius
    )
    return freqs, frames


def block_projector(rho: np.ndarray, basis: np.ndarray, m: int, radius: float) -> np.ndarray:
    """Projector summing the filtered (frequency, frame) blocks on m slots.

    The Cartesian structure of the index set factorizes the sum into a
    diagonal frequency mask times a sum of central projectors; both factors
    commute exactly, and the result is conjugated into the basis-labeled
    product frame.
    """
    d = rho.shape[0]
    freqs, frames = a_set(rho, basis, m, radius)
    dim = d**m
    if not freqs or not frames:
        return np.zeros((dim, dim), dtype=complex)
    types = sequence_types(d, m)
    mask = np.any(np.all(types[:, None, :] == np.asarray(freqs)[None], axis=2), axis=1).astype(float)
    p_sum = np.zeros((dim, dim))
    for lam in frames:
        p_sum += central_projector(lam, d, m)
    core = mask[:, None] * p_sum * mask[None, :]
    core = 0.5 * (core + core.T)
    _assert_projector(core, f"block projector m={m}")
    rot = kron_all([basis] * m)
    mat = rot @ core @ rot.conj().T
    return 0.5 * (mat + mat.conj().T)


class DecodeContext:
    """Decoding projectors of auxiliary words, with per-letter blocks cached.

    The projector of a word groups its positions by letter; each group of
    size t carries the block projector at divergence radius n*delta/t, and
    the blocks are placed back on the original slots.
    """

    def __init__(self, states: np.ndarray, basis: np.ndarray, n: int, delta: float):
        self.states = np.asarray(states, dtype=complex)
        self.basis = np.asarray(basis, dtype=complex)
        self.n = n
        self.delta = delta
        self.d = self.states.shape[1]
        self._cache: dict[tuple[int, int], np.ndarray] = {}

    def block(self, u: int, t: int) -> np.ndarray:
        key = (u, t)
        if key not in self._cache:
            radius = self.n * self.delta / t
            self._cache[key] = block_projector(self.states[u], self.basis, t, radius)
        return self._cache[key]

    def projector(self, u_seq) -> np.ndarray:
        u_seq = np.asarray(u_seq, dtype=np.int64)
        if u_seq.size != self.n:
            raise GpcqError(f"word length {u_seq.size} != {self.n}")
        order = np.argsort(u_seq, kind="stable")
        letters, sizes = np.unique(u_seq, return_counts=True)
        mat = kron_all(self.block(int(u), int(t)) for u, t in zip(letters, sizes))
        d = self.d
        tensor = mat.reshape((d,) * (2 * self.n))
        inv = np.argsort(order)
        axes = list(inv) + [self.n + a for a in inv]
        return np.transpose(tensor, axes=axes).reshape(d**self.n, d**self.n)

    def projectors(self, words) -> list[np.ndarray]:
        """Projector of each row of an (L, n) word array, built once per distinct word.

        Equal rows share one read-only array. The context keeps none of them,
        so they are freed with the caller's list.
        """
        words = np.asarray(words, dtype=np.int64)
        if words.ndim != 2 or words.shape[1] != self.n:
            raise GpcqError(f"word array of shape {words.shape} is not (L, {self.n})")
        distinct, inverse = np.unique(words, axis=0, return_inverse=True)
        built = [self.projector(w) for w in distinct]
        for mat in built:
            mat.setflags(write=False)
        return [built[i] for i in inverse.reshape(-1)]
