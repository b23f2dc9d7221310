"""Permutation-symmetric projectors on tensor powers of a finite-dim space.

Young frames index the isotypic blocks of the commuting symmetric-group and
general-linear actions on (C^d)^(tensor n). A frequency class, the span of
the product-basis words with one letter count, is invariant under slot
permutations, so every isotypic projector is block diagonal over the
classes. class_partition lists the classes of (d, n) by one sort of the
words; each class's blocks are eigenprojectors of Jucys-Murphy
transposition sums on its words, built once per (d, n) and cached
(frequency_classes).

Decoding stays in the basis frame, where product vectors are labeled by the
columns of the decoding basis. There a typicality-filtered block projector
is a sum of (frequency, frame) blocks, so block_projector returns its class
blocks. A word's decoding projector is the tensor product of its letters'
block projectors on the word's slots, and it is block diagonal over the
frequency classes of all n slots, one real block per class. DecodeContext
builds each letter type's projector once, as the Kronecker product of its
letters' dense blocks in ascending letter order; every word of the type is
that product with its slots permuted, which maps each class onto itself, so
its blocks are one index gather per class. A dense operator in the product
frame is basis^(tensor n) · blocks · its adjoint, which the program never
forms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, GpcqError, NotProjection, NumericalRankFailure, PreconditionViolated
from .quantum import BlockStack, kl_divergence, pinch, shannon_entropy, spectrum
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
    ``label[w]`` is word w's class.
    """

    d: int
    t: int
    words: tuple[np.ndarray, ...]
    label: np.ndarray

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


_PARTITIONS: dict[tuple[int, int], ClassPartition] = {}


def class_partition(d: int, t: int) -> ClassPartition:
    """The frequency classes of t slots over d letters, cached per (d, t).

    Keyed by one sort of the d^t words, with no per-class work. CapExceeded
    when max(d, 2)^t exceeds DIM_CAP, tested on t first so that a huge t
    forms no huge power.
    """
    if (d, t) not in _PARTITIONS:
        if t >= DIM_CAP.bit_length() or max(d, 2) ** t > DIM_CAP:
            raise CapExceeded(f"{max(d, 2)}^{t} exceeds dimension cap {DIM_CAP}")
        # Each word's class is named by its letters sorted ascending, itself a word.
        names = np.sort(digit_table(d, t), axis=1) @ d ** np.arange(t - 1, -1, -1)
        _, label = np.unique(names, return_inverse=True)
        starts = np.cumsum(np.bincount(label))[:-1]
        _PARTITIONS[d, t] = ClassPartition(d, t, tuple(np.split(np.argsort(label, kind="stable"), starts)), label)
    return _PARTITIONS[d, t]


@dataclass(frozen=True)
class FrequencyClass:
    """The words of one letter count and the isotypic blocks on their span.

    ``words`` are ascending indices in d^t; ``blocks`` maps every frame whose
    block on the class is nonzero to that block, a read-only projector.
    """

    words: np.ndarray
    blocks: dict[YoungFrame, np.ndarray]


_FREQUENCY_CLASSES: dict[tuple[int, int], tuple[FrequencyClass, ...]] = {}


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


def frequency_classes(d: int, t: int) -> tuple[FrequencyClass, ...]:
    """Every frequency class of t slots over d letters, in class_partition(d, t) order.

    Cached per (d, t); CapExceeded past DIM_CAP as in class_partition. At
    d = 1 the one word still takes about t^3/3 np.add.at calls, so t is
    bounded as at d = 2.
    """
    if (d, t) not in _FREQUENCY_CLASSES:
        part = class_partition(d, t)
        digits, frames = digit_table(d, t), young_frames(d, t)
        _FREQUENCY_CLASSES[d, t] = tuple(_frequency_class(words, digits, d, frames) for words in part.words)
    return _FREQUENCY_CLASSES[d, t]


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
    the sum of its filtered frames' blocks, checked idempotent, and a class
    absent from the dict is a zero block. The basis frame labels product
    vectors by basis columns, so the projector in the product frame is
    basis^(tensor m) · blocks · its adjoint.
    """
    d = rho.shape[0]
    freqs, frames = a_set(rho, basis, m, radius)
    classes, part = frequency_classes(d, m), class_partition(d, m)
    out = {}
    for freq in freqs:
        c = part.index(freq)
        picked = [classes[c].blocks[lam] for lam in frames if lam in classes[c].blocks]
        if picked:
            block = sum(picked)
            out[c] = 0.5 * (block + block.T)
            _assert_projector(out[c], f"block projector m={m}, class {freq}")
    return out


class DecodeContext:
    """Decoding projectors of auxiliary words as class blocks in the basis frame.

    A word's projector is the tensor product, over its letters, of each
    letter's block projector on the t slots holding it, at divergence radius
    n*delta/t. A slot permutation maps every frequency class
    of n slots (class_partition(d, n)) onto itself, so the projector is block
    diagonal over those classes. Each letter type's product is one Kronecker
    product, over its letters in ascending order, of the letters' dense
    d^t x d^t blocks: the projector of the type's sorted word. Any other word
    of the type is that product with its slots permuted, so each of its class
    blocks is one index gather from the product.
    """

    def __init__(self, states: np.ndarray, basis: np.ndarray, n: int, delta: float):
        self.states = np.asarray(states, dtype=complex)
        self.basis = np.asarray(basis, dtype=complex)
        self.n = n
        self.delta = delta
        self.d = self.states.shape[1]
        self.partition = class_partition(self.d, n)
        digits = digit_table(self.d, n)
        self._digits = [digits[words] for words in self.partition.words]
        self._cache: dict[tuple[int, int], np.ndarray] = {}

    def rotate(self, states) -> np.ndarray:
        """Every state of a (..., d, d) stack in the basis frame, real when no entry has an imaginary part."""
        out = self.basis.conj().T @ np.asarray(states) @ self.basis
        return out if np.any(out.imag) else out.real

    def block(self, u: int, t: int) -> np.ndarray:
        """Letter u's block projector on t slots as one dense real d^t x d^t matrix in the basis frame.

        block_projector's class blocks at radius n*delta/t, placed on their
        words; cached per (u, t).
        """
        key = (u, t)
        if key not in self._cache:
            words = class_partition(self.d, t).words
            dense = np.zeros((self.d**t,) * 2)
            for c, block in block_projector(self.states[u], self.basis, t, self.n * self.delta / t).items():
                dense[np.ix_(words[c], words[c])] = block
            self._cache[key] = dense
        return self._cache[key]

    def projector(self, u_seq) -> tuple[np.ndarray, ...]:
        """Class blocks of one word's projector, aligned with self.partition.words: projectors' one-row case."""
        stack, _ = self.projectors(np.asarray(u_seq, dtype=np.int64).reshape(1, -1))
        return tuple(block[0] for block in stack.blocks)

    def projectors(self, words) -> tuple[BlockStack, np.ndarray]:
        """Projectors of the distinct rows of an (L, n) word array, and each row's index among them.

        Each letter type's Kronecker product is built once, and only one is
        held at a time. Sorting row w's slots sends product word a to the
        word a[order] of the same class, and the row's entry at (a, b) is its
        type's at (a[order], b[order]). The index of a[order] is a's digits
        weighted by the place values their slots sort to. The blocks are
        read-only and the context keeps none of them.
        """
        words = np.asarray(words, dtype=np.int64)
        if words.ndim != 2 or words.shape[1] != self.n:
            raise GpcqError(f"word array of shape {words.shape} is not (L, {self.n})")
        distinct, inverse = np.unique(words, axis=0, return_inverse=True)
        order = np.argsort(distinct, axis=1, kind="stable")
        types, type_of = np.unique(np.take_along_axis(distinct, order, axis=1), axis=0, return_inverse=True)
        weights = np.empty_like(order)  # weights[w, order[w, j]] is the place value of position j
        np.put_along_axis(weights, order, self.d ** np.arange(self.n - 1, -1, -1), axis=1)
        index = [weights @ digits.T for digits in self._digits]
        blocks = tuple(np.empty((len(distinct), len(digits), len(digits))) for digits in self._digits)
        for k, word in enumerate(types):
            rows = np.flatnonzero(type_of.reshape(-1) == k)
            letters, sizes = np.unique(word, return_counts=True)
            dense = functools.reduce(np.kron, [self.block(int(u), int(t)) for u, t in zip(letters, sizes)])
            for block, idx in zip(blocks, index):
                pos = idx[rows]
                block[rows] = dense[pos[:, :, None], pos[:, None, :]]
            del dense  # freed before the next type's product is built
        for block in blocks:
            block.setflags(write=False)
        return BlockStack(blocks, self.partition.words), inverse.reshape(-1)
