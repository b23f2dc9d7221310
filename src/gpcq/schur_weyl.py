"""Permutation-symmetric projectors on tensor powers of a finite-dim space.

Young frames index the isotypic blocks of the commuting symmetric-group and
general-linear actions on (C^d)^(tensor n). A frequency class, the span of
the product-basis words with one letter count, is invariant under slot
permutations, so every isotypic projector is block diagonal over the
classes. class_partition lists the classes of (d, n) by one sort of the
words and caches them per (d, n); each class's blocks are eigenspaces of
Jucys-Murphy transposition sums on its words, kept with the partition as
orthonormal bases (ClassPartition.bases), not as projectors: a block's
projector V V^T is formed where it is used.

Decoding stays in the basis frame, where product vectors are labeled by the
columns of the decoding basis. There a typicality-filtered block projector
is a sum of (frequency, frame) blocks, so block_projector returns its class
blocks. A word's decoding projector is the tensor product of its letters'
block projectors on the word's slots, and it is block diagonal over the
frequency classes of all n slots, one real block per class. DecodeContext
builds each letter type's projector once, one class block at a time from
its letters' class blocks; every word of the type is that projector with
its slots permuted, which maps each class onto itself, so its blocks are
one index gather per class. A dense operator in the product frame is
basis^(tensor n) · blocks · its adjoint, which the program never forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapExceeded, GpcqError, NotProjection, NumericalRankFailure, PreconditionViolated
from .quantum import BlockStack, kl_divergence, pinch, shannon_entropy, slot_pairs, spectrum
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
class ClassPartition:
    """The frequency classes of the d^t words of t slots over d letters.

    ``words[c]`` lists class c's words ascending, and the classes are ordered
    by their smallest word, the one whose letters are sorted ascending.
    ``label[w]`` is word w's class, ``rank[w]`` its place in ``words[label[w]]``.
    ``pairs`` holds each class's slot-paired positions (quantum.slot_pairs)
    and ``bases`` maps, per class, every frame whose isotypic block on the
    class is nonzero to a read-only orthonormal basis of that block, its
    columns indexed like ``words[c]``; both are built on first use and kept
    with the partition.
    """

    d: int
    t: int
    words: tuple[np.ndarray, ...]
    label: np.ndarray
    rank: np.ndarray

    def index(self, freq) -> int:
        """Class of the words with letter counts freq; GpcqError when freq counts no word."""
        counts = [int(c) for c in freq]
        if len(counts) != self.d or min(counts) < 0 or sum(counts) != self.t:
            raise GpcqError(f"frequency {tuple(counts)} is not a count of {self.t} slots over {self.d} letters")
        smallest = 0
        for letter, count in enumerate(counts):
            for _ in range(count):
                smallest = smallest * self.d + letter
        return int(self.label[smallest])

    @cached_property
    def pairs(self) -> tuple[np.ndarray, ...]:
        return slot_pairs(self.words, self.d)

    @cached_property
    def bases(self) -> tuple[dict[YoungFrame, np.ndarray], ...]:
        digits, frames = digit_table(self.d, self.t), young_frames(self.d, self.t)
        return tuple(_class_bases(words, digits, self.d, frames) for words in self.words)


_PARTITIONS: dict[tuple[int, int], ClassPartition] = {}


def class_partition(d: int, t: int) -> ClassPartition:
    """The frequency classes of t slots over d letters, cached per (d, t).

    Keyed by one sort of the d^t words, with no per-class work. CapExceeded
    when max(d, 2)^t exceeds DIM_CAP, tested on t first so that a huge t
    forms no huge power; at d = 1 the one word's bases still take about
    t^3/3 np.add.at calls.
    """
    if (d, t) not in _PARTITIONS:
        if t >= DIM_CAP.bit_length() or max(d, 2) ** t > DIM_CAP:
            raise CapExceeded(f"{max(d, 2)}^{t} exceeds dimension cap {DIM_CAP}")
        # Each word's class is named by its letters sorted ascending, itself a word.
        names = np.sort(digit_table(d, t), axis=1) @ d ** np.arange(t - 1, -1, -1)
        _, label = np.unique(names, return_inverse=True)
        order, sizes = np.argsort(label, kind="stable"), np.bincount(label)
        starts = np.cumsum(sizes) - sizes
        _PARTITIONS[d, t] = ClassPartition(d, t, tuple(np.split(order, starts[1:])), label, np.argsort(order) - starts[label])
    return _PARTITIONS[d, t]


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an int (L, t) array and each row's index among them, as np.unique(axis=0) gives them.

    One lexsort over the columns, the first the primary key, then a compare of
    adjacent sorted rows: no structured-dtype sort and no packed key to overflow.
    """
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ranked[first], inverse


def _class_bases(words: np.ndarray, digits: np.ndarray, d: int, frames: list) -> dict[YoungFrame, np.ndarray]:
    """Isotypic block bases on one class from the Jucys-Murphy elements J_k = sum_{i<k} (i k).

    Each block is an eigenspace of A = sum_k J_k + alpha sum_k J_k^2 on the
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
    bases = {}
    for idx in np.flatnonzero(np.bincount(label)):
        frame, basis = frames[idx], vectors[:, label == idx]
        if basis.shape[1] % irrep_dimension(frame):
            raise NumericalRankFailure(f"rank {basis.shape[1]} of {frame} is not a multiple of its dimension")
        bases[frame] = basis
        basis.setflags(write=False)
    return bases


def _assert_projector(mat: np.ndarray, context: str):
    defect = float(np.max(np.abs(mat @ mat - mat)))
    if defect > TAU_PROJ:
        raise NotProjection(f"{context}: idempotency defect {defect}")


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


def block_projector(rho: np.ndarray, basis: np.ndarray, m: int, radius: float) -> dict[int, np.ndarray]:
    """Class blocks, in the basis frame, of the projector summing the filtered (frequency, frame) blocks on m slots.

    Keys index class_partition(d, m); each filtered frequency class maps to
    the sum, in frame order, of its filtered frames' blocks V V^T (V their
    bases), checked idempotent, and a class absent from the dict is a zero block. The basis frame labels product
    vectors by basis columns, so the projector in the product frame is
    basis^(tensor m) · blocks · its adjoint.
    """
    d = rho.shape[0]
    freqs, frames = a_set(rho, basis, m, radius)
    part = class_partition(d, m)
    out = {}
    for freq in freqs:
        c = part.index(freq)
        picked = [part.bases[c][lam] for lam in frames if lam in part.bases[c]]
        if picked:
            block = sum(v @ v.T for v in picked)
            out[c] = 0.5 * (block + block.T)
            _assert_projector(out[c], f"block projector m={m}, class {freq}")
    return out


class DecodeContext:
    """Decode operators of auxiliary words as class blocks in the basis frame.

    A word's projector is the tensor product, over its letters, of each
    letter's block projector on the t slots holding it, at divergence radius
    n*delta/t; it is block diagonal over the frequency classes of n slots
    (class_partition(d, n)). A message's decode operator sums its codewords'
    projectors (projectors).
    """

    def __init__(self, states: np.ndarray, basis: np.ndarray, n: int, delta: float):
        self.states = np.asarray(states, dtype=complex)
        self.basis = np.asarray(basis, dtype=complex)
        self.n = n
        self.delta = delta
        self.d = self.states.shape[1]
        self.partition = class_partition(self.d, n)
        ends = np.cumsum([0] + [words.size for words in self.partition.words])
        self._spans = [slice(a, b) for a, b in zip(ends, ends[1:])]  # class c's rows of _digits
        self._digits = digit_table(self.d, n)[np.concatenate(self.partition.words)]
        self._cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def rotate(self, states) -> np.ndarray:
        """Every state of a (..., d, d) stack in the basis frame, real when no entry has an imaginary part."""
        out = self.basis.conj().T @ np.asarray(states) @ self.basis
        return out if np.any(out.imag) else out.real

    def _letter(self, u: int, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Letter u's block_projector class blocks on t slots, cached per (u, t) as (values, row_start, column).

        values is 0.0, then each block in C order. The entry at words x, y of one
        class is values[row_start[x] + column[y]]; both are 0 in a class left out.
        """
        if (u, t) not in self._cache:
            blocks = block_projector(self.states[u], self.basis, t, self.n * self.delta / t)
            part, row_start = class_partition(self.d, t), np.zeros(self.d**t, dtype=np.int64)
            starts = np.cumsum([1] + [block.size for block in blocks.values()])
            for (c, block), start in zip(blocks.items(), starts):
                row_start[part.words[c]] = start + len(block) * np.arange(len(block))
            values = np.concatenate([np.zeros(1), *(block.ravel() for block in blocks.values())])
            self._cache[u, t] = values, row_start, np.where(row_start > 0, part.rank, 0)
        return self._cache[u, t]

    def projectors(self, words) -> BlockStack:
        """Decode operators of an (L, K, n) word array: row l sums, in k order, the projectors of words[l, k].

        Each distinct word is gathered once (_gather, whose index arrays are
        freed before the sums) into a stack the context does not keep.
        GpcqError for a letter outside range(len(states)).
        """
        words = np.asarray(words, dtype=np.int64)
        if words.ndim != 3 or words.shape[1] < 1 or words.shape[2] != self.n:
            raise GpcqError(f"word array of shape {words.shape} is not (L, K, {self.n}) with K >= 1")
        if words.size and (words.min() < 0 or words.max() >= len(self.states)):
            raise GpcqError(f"word letters span [{words.min()}, {words.max()}], outside range({len(self.states)})")
        distinct, inverse = _unique_rows(words.reshape(-1, self.n))
        inverse = inverse.reshape(words.shape[:2])
        summed = []
        for block in self._gather(distinct):
            total = block[inverse[:, 0]]
            for column in inverse.T[1:]:
                total += block[column]
            summed.append(total)
        return BlockStack(tuple(summed), self.partition.words)

    def _gather(self, distinct: np.ndarray) -> tuple[np.ndarray, ...]:
        """Class blocks of each row's projector for a (D, n) array of distinct words.

        A letter type's projector, its sorted word's, is built one class block
        at a time: its entry at words a, b is the product, left to right over
        the letters as the tensor product's left fold rounds it, of each
        letter's entry (_letter) at a's and b's segments, 0.0 where those lie in
        different classes. Row w's entry at (a, b) is its type's at (a[order],
        b[order]); a[order] is a's digits weighted by the place values their slots sort to.
        """
        order = np.argsort(distinct, axis=1, kind="stable")
        types, type_of = _unique_rows(np.take_along_axis(distinct, order, axis=1))
        weights = np.empty_like(order)  # weights[w, order[w, j]] is the place value of position j
        np.put_along_axis(weights, order, self.d ** np.arange(self.n - 1, -1, -1), axis=1)
        pos = self.partition.rank[weights @ self._digits.T]
        blocks = tuple(np.empty((len(distinct), words.size, words.size)) for words in self.partition.words)
        for k, word in enumerate(types):
            rows, segments = np.flatnonzero(type_of == k), []
            for u, first, t in zip(*np.unique(word, return_index=True, return_counts=True)):
                values, row_start, column = self._letter(int(u), int(t))
                seg = self._digits[:, first : first + t] @ self.d ** np.arange(t - 1, -1, -1)
                segments.append((values, row_start[seg], column[seg], class_partition(self.d, t).label[seg]))
            for block, span in zip(blocks, self._spans):
                product = np.ones((span.stop - span.start,) * 2)
                for values, row_start, column, label in segments:
                    idx = row_start[span, None] + column[None, span]
                    idx[label[span, None] != label[None, span]] = 0
                    product *= values[idx]
                at = pos[rows, span]
                block[rows] = product[at[:, :, None], at[:, None, :]]
        return blocks
