"""Permutation-symmetric projectors on tensor powers of a finite-dim space.

Young frames index the isotypic blocks of the commuting symmetric-group and
general-linear actions on (C^d)^(tensor n). A frequency class, the span of
the product-basis words with one letter count, is invariant under slot
permutations, so every isotypic projector is block diagonal over the
classes. Each class's blocks are eigenprojectors of Jucys-Murphy
transposition sums on its words, built once per (d, n) and cached
(frequency_classes). A typicality-filtered decoding projector is the sum of
the filtered (frequency, frame) blocks, rotated from the product basis into
the decoding basis. Block and decoding projectors are returned as plain
arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, GpcqError, NotProjection, NumericalRankFailure, PreconditionViolated
from .quantum import kl_divergence, kron_all, shannon_entropy, spectrum, pinch
from .util import compositions, digit_table

DIM_CAP = 4096
FRAME_CAP = 100_000
TAU_PROJ = 1e-8
TAU_LABEL = 1e-6

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


def irrep_dimension(frame: YoungFrame) -> int:
    """Symmetric-group irrep dimension from the shifted rows l_i = frame_i + k - i.

    With k rows and L_i = l_1 + ... + l_i, the dimension is
    prod_{i<j} (l_i - l_j) * prod_i C(L_i, l_i) / ((n+1)(n+2)...L_k): the
    determinant formula n! prod_{i<j} (l_i - l_j) / prod_i l_i! with the
    factorials cancelled, so no n! is formed.
    """
    n, k = sum(frame), len(frame)
    ell = [part + k - 1 - i for i, part in enumerate(frame)]
    num = math.prod(ell[i] - ell[j] for i in range(k) for j in range(i + 1, k))
    run = 0
    for length in ell:
        run += length
        num *= math.comb(run, length)
    dim, rem = divmod(num, math.prod(range(n + 1, run + 1)))
    if rem:
        raise GpcqError(f"determinant formula not integral for frame {frame}")
    return dim


def gl_multiplicity(frame: YoungFrame, d: int) -> int:
    """Dimension of the commutant block: Weyl's prod_{i<j<d} (l_i - l_j + j - i) / (j - i).

    Pairs of two empty rows contribute 1. The pairs of frame row i with the
    empty rows k..d-1 telescope into C(l_i + d-1-i, l_i) / C(l_i + k-1-i, l_i),
    so the cost does not grow with d.
    """
    k = len(frame)
    if k > d:
        return 0
    num = den = 1
    for i, part in enumerate(frame):
        for j in range(i + 1, k):
            num *= part - frame[j] + j - i
            den *= j - i
        num *= math.comb(part + d - 1 - i, part)
        den *= math.comb(part + k - 1 - i, part)
    mult, rem = divmod(num, den)
    if rem:
        raise GpcqError(f"Weyl formula not integral for frame {frame}, d={d}")
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


@dataclass(frozen=True)
class FrequencyClass:
    """The words of one letter count and the isotypic blocks on their span.

    ``words`` are ascending indices in d^t; ``blocks`` maps every frame whose
    block on the class is nonzero to that block, a read-only projector.
    """

    words: np.ndarray
    blocks: dict[YoungFrame, np.ndarray]


_FREQUENCY_CLASSES: dict[tuple[int, int], dict[tuple[int, ...], FrequencyClass]] = {}


def _frequency_class(words: np.ndarray, digits: np.ndarray, d: int, frames: list) -> FrequencyClass:
    """Isotypic blocks on one class from the Jucys-Murphy elements J_k = sum_{i<k} (i k).

    Each block is an eigenprojector of A = sum_k J_k + alpha sum_k J_k^2 on the
    class, alpha = pi/(t^2+1). A acts on a frame's block as sum c + alpha sum c^2
    over the contents c of its boxes; for t <= 12, which DIM_CAP admits, these
    are at least 4e-3 apart, so each eigenvector takes the frame within
    TAU_LABEL of its eigenvalue. NumericalRankFailure when an eigenvalue matches
    no frame or a block's rank is not a multiple of the frame's irrep dimension.
    """
    digits = digits[words]
    size, t = digits.shape
    place, cols = d ** np.arange(t - 1, -1, -1), np.arange(size)
    linear, square = np.zeros((size, size)), np.zeros((size, size))
    for k in range(t):
        swaps = [np.searchsorted(words, words + (digits[:, k] - digits[:, i]) * (place[i] - place[k]))
                 for i in range(k)]
        for swap in swaps:
            np.add.at(linear, (swap, cols), 1.0)
            for other in swaps:
                np.add.at(square, (swap[other], cols), 1.0)
    alpha = math.pi / (t * t + 1)
    values, vectors = np.linalg.eigh(linear + alpha * square)
    contents = [[j - i for i, part in enumerate(lam) for j in range(part)] for lam in frames]
    gaps = np.abs(values[:, None] - np.array([sum(c) + alpha * sum(x * x for x in c) for c in contents]))
    label = np.argmin(gaps, axis=1)
    if np.any(gaps[cols, label] > TAU_LABEL):
        raise NumericalRankFailure(f"an eigenvalue on {size} words of length {t} matches no frame")
    blocks = {}
    for idx in np.flatnonzero(np.bincount(label)):
        frame, basis = frames[idx], vectors[:, label == idx]
        if basis.shape[1] % irrep_dimension(frame):
            raise NumericalRankFailure(f"rank {basis.shape[1]} of {frame} is not a multiple of its dimension")
        blocks[frame] = basis @ basis.T
        blocks[frame].setflags(write=False)
    return FrequencyClass(words, blocks)


def frequency_classes(d: int, t: int) -> dict[tuple[int, ...], FrequencyClass]:
    """Every frequency class of t slots over d letters, keyed by its letter counts.

    Cached per (d, t); CapExceeded when max(d, 2)^t exceeds DIM_CAP, tested on
    t first so that a huge t forms no huge power. At d = 1 the one word still
    takes about t^3/3 np.add.at calls, so t is bounded as at d = 2.
    """
    if (d, t) not in _FREQUENCY_CLASSES:
        if t >= DIM_CAP.bit_length() or max(d, 2) ** t > DIM_CAP:
            raise CapExceeded(f"{max(d, 2)}^{t} exceeds dimension cap {DIM_CAP}")
        digits, frames = digit_table(d, t), young_frames(d, t)
        # Each word's class is named by its letters sorted ascending, itself a word.
        sorted_word = np.sort(digits, axis=1) @ d ** np.arange(t - 1, -1, -1)
        _FREQUENCY_CLASSES[d, t] = {
            tuple(int(c) for c in np.bincount(digits[name], minlength=d)):
                _frequency_class(np.flatnonzero(sorted_word == name), digits, d, frames)
            for name in np.flatnonzero(np.bincount(sorted_word))
        }
    return _FREQUENCY_CLASSES[d, t]


def central_projector(frame: YoungFrame, d: int, n: int) -> np.ndarray:
    """Projector onto the isotypic block of one frame: its class blocks on the diagonal.

    Real symmetric; its trace must equal irrep_dimension * gl_multiplicity.
    """
    classes = frequency_classes(d, n)
    out = np.zeros((d**n, d**n))
    for cls in classes.values():
        if frame in cls.blocks:
            out[np.ix_(cls.words, cls.words)] = cls.blocks[frame]
    expected = irrep_dimension(frame) * gl_multiplicity(frame, d)
    if abs(np.trace(out) - expected) > 1e-6:
        raise GpcqError(f"central projector trace {np.trace(out)} != {expected} for {frame}")
    return out


def _assert_projector(mat: np.ndarray, context: str):
    defect = float(np.max(np.abs(mat @ mat - mat)))
    if defect > TAU_PROJ:
        raise NotProjection(f"{context}: idempotency defect {defect}")


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
    """Rank of the frame's block on one frequency class, 0 where it has none.

    The block is a projector, so its rank is its trace, within 1e-6 of an integer.
    """
    freq = tuple(int(c) for c in freq)
    cls = frequency_classes(d, n).get(freq)
    if cls is None:
        raise GpcqError(f"frequency {freq} is not a count of {n} slots over {d} letters")
    trace = float(np.trace(cls.blocks[frame])) if frame in cls.blocks else 0.0
    if abs(trace - round(trace)) > 1e-6:
        raise NumericalRankFailure(f"trace {trace} not near an integer for {freq}/{frame}")
    return round(trace)


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

    Each filtered frequency class contributes the sum of its filtered frames'
    blocks on its own words; the classes are disjoint, so the sum is a
    projector. It is conjugated into the basis-labeled product frame.
    """
    d = rho.shape[0]
    freqs, frames = a_set(rho, basis, m, radius)
    dim = d**m
    if not freqs or not frames:
        return np.zeros((dim, dim), dtype=complex)
    core = np.zeros((dim, dim))
    for freq in freqs:
        cls = frequency_classes(d, m)[freq]
        core[np.ix_(cls.words, cls.words)] = sum(cls.blocks[lam] for lam in frames if lam in cls.blocks)
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
