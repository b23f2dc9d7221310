"""Type-class combinatorics over finite alphabets.

Sequences are integer arrays over an alphabet {0..k-1}; a type is the vector
of letter counts of a length-n sequence. Exact counts use Python big
integers, masses are accumulated in log space, and all distances between
distributions are total-variation style L1 norms unless stated otherwise.
The nearest denominator-n type to a distribution comes from one exact
rule (nearest_type): floors plus the largest fractional parts.
The module holds what the simulator and the ``types`` command run:
type-class sizes, typical masses, type-class codeword draws, the
matched-set test and the covering estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, GpcqError, LengthMismatch, PreconditionViolated
from .quantum import shannon_entropy
from .util import compositions, digit_table, rng_for, wilson_interval

TYPE_ENUMERATION_CAP = 10**6
SEQUENCE_ENUMERATION_CAP = 1 << 20
NEAREST_TYPE_CAP = 1 << 53  # float64 holds every integer below it


def multinomial_exact(counts) -> int:
    """n! / prod(counts!) as an exact integer."""
    total = int(sum(counts))
    out = 1
    for c in counts:
        out *= math.comb(total, int(c))
        total -= int(c)
    return out


def log2_multinomial(counts) -> float:
    total = int(sum(counts))
    lg = math.lgamma(total + 1)
    for c in counts:
        lg -= math.lgamma(int(c) + 1)
    return lg / math.log(2)


@dataclass(frozen=True)
class TypeClassSize:
    """Exact type-class cardinality with its entropy sandwich bounds."""

    size: int
    lower: float
    upper: float


def type_class_size(counts) -> TypeClassSize:
    """|T_f| with bounds (n+1)^(-d) 2^(n H(fbar)) <= |T_f| <= 2^(n H(fbar)).

    d is the full alphabet size (the length of ``counts``). A bound beyond the
    float range raises CapExceeded.
    """
    counts = tuple(int(c) for c in counts)
    if any(c < 0 for c in counts):
        raise GpcqError(f"negative count in {counts}")
    n, d = sum(counts), len(counts)
    if n == 0:
        raise GpcqError("empty type")
    h = shannon_entropy(np.asarray(counts, dtype=float) / n)
    try:
        upper = 2.0 ** (n * h)
        lower = upper / float((n + 1) ** d)
    except OverflowError:
        raise CapExceeded(
            f"n*H = {n * h + 0.0:.1f} bits: 2^(n*H) or (n+1)^{d} exceeds the float range"
        ) from None
    size = multinomial_exact(counts)
    if not (lower <= size <= upper * (1 + 1e-12)):
        raise GpcqError(
            f"type-class sandwich violated for {counts}: {lower} <= {size} <= {upper}"
        )
    return TypeClassSize(size, lower, upper)


def is_exact_type(p, n: int) -> bool:
    scaled = np.asarray(p, dtype=float) * n
    return bool(np.all(np.abs(scaled - np.rint(scaled)) <= 1e-9))


def nearest_type(p, n: int) -> np.ndarray:
    """Counts of the L1-closest denominator-n type to p; zero letters stay zero.

    Every letter gets floor(n p) counts and the n - sum floor(n p) leftover
    counts go one each to the letters with the largest fractional parts,
    which is exactly L1-optimal. Fractional parts within 1e-12 count as
    equal and the later letter wins, the tie rule of enumerating all
    compositions in order and keeping the first closest one. A p that sums
    to 1 only within 1e-9 may leave more counts than letters, or too many
    floors: each further count then moves the L1 distance by the same 1/n
    wherever it goes, and the last letters of positive mass take or give
    it. An n of 2^53 or more raises CapExceeded before any count is formed:
    n p is then no longer exact to the unit in float64.
    """
    p = np.asarray(p, dtype=float)
    if abs(p.sum() - 1.0) > 1e-9 or np.any(p < 0):
        raise GpcqError("p must be a probability vector")
    if n >= NEAREST_TYPE_CAP:
        raise CapExceeded(f"n is at least 2^53 = {NEAREST_TYPE_CAP}, past which n * p is not exact in float64")
    counts = np.floor(p * n).astype(np.int64)
    frac = np.where(p > 0, p * n - counts, -np.inf)
    positive = np.flatnonzero(p > 0)
    leftover = n - int(counts.sum())
    for _ in range(min(leftover, positive.size)):
        top = np.flatnonzero(frac >= frac.max() - 1e-12)[-1]
        counts[top] += 1
        frac[top] = -np.inf
    counts[positive[-1]] += max(leftover - positive.size, 0)
    for i in positive[::-1]:  # floors past n are given up by the last letters
        take = min(max(-leftover, 0), int(counts[i]))
        counts[i] -= take
        leftover += take
    return counts


def typical_types(p, delta: float, n: int):
    """All types f with || f/n - p ||_1 <= delta."""
    p = np.asarray(p, dtype=float)
    d = p.size
    if math.comb(n + d - 1, d - 1) > TYPE_ENUMERATION_CAP:
        raise CapExceeded(f"too many types to enumerate: C({n + d - 1},{d - 1})")
    out = []
    for f in compositions(n, d):
        if float(np.abs(np.asarray(f) / n - p).sum()) <= delta:
            out.append(f)
    return out


def typical_mass(p, delta: float, n: int) -> float:
    """Exact p^n-probability of the L1 delta-typical set at blocklength n."""
    p = np.asarray(p, dtype=float)
    if delta < 0:
        raise PreconditionViolated("delta >= 0", delta, 0.0)
    logs = np.full(p.size, -math.inf)
    logs[p > 0] = np.log2(p[p > 0])
    total = 0.0
    for f in typical_types(p, delta, n):
        f_arr = np.asarray(f, dtype=float)
        if np.any((f_arr > 0) & (p <= 0)):
            continue
        lg = log2_multinomial(f) + float(np.sum(f_arr[f_arr > 0] * logs[f_arr > 0]))
        total += 2.0**lg
    return min(total, 1.0)


def support_floor(p_su: np.ndarray) -> float:
    """Smallest positive joint mass (the beta margin of a joint pmf)."""
    vals = p_su[p_su > 0]
    if vals.size == 0:
        raise GpcqError("joint distribution has empty support")
    return float(vals.min())


def matched_set_members(s_words, u_words, p_su: np.ndarray, delta: float) -> np.ndarray:
    """Which auxiliary words match which state words, as a (T, W) bool array.

    s_words has shape (T, n) and u_words shape (W, n); words may be of any
    type. Per auxiliary letter u of a word, the empirical state distribution
    on u's positions must stay within divergence delta/2 of the conditional
    p(s|u), weighted by the letter frequency; letters absent from a word
    contribute nothing. The count vector over S of every (state word,
    auxiliary word) pair is packed into one exact int64 key in base n+1, so
    each distinct count vector is scored once.
    """
    s_words = np.asarray(s_words, dtype=np.int64)
    u_words = np.asarray(u_words, dtype=np.int64)
    p_su = np.asarray(p_su, dtype=float)
    num_s, num_u = p_su.shape
    T, n = s_words.shape
    if u_words.ndim != 2 or u_words.shape[1] != n:
        raise LengthMismatch(f"state words of length {n}, auxiliary words of shape {u_words.shape}")
    if (n + 1) ** num_s > 2**62:
        raise CapExceeded(f"(n+1)^|S| = {n + 1}^{num_s} count keys exceed int64")
    p_u = p_su.sum(axis=0)
    cond = np.where(p_u > 0, p_su / np.where(p_u > 0, p_u, 1.0), 0.0)
    radix = (n + 1) ** np.arange(num_s - 1, -1, -1, dtype=np.int64)
    packed = radix[s_words]
    scores = np.zeros((T, u_words.shape[0]))
    for u in range(num_u):
        keys = packed @ (u_words == u).T.astype(np.int64)
        distinct, inverse = np.unique(keys.ravel(), return_inverse=True)
        counts = distinct[:, None] // radix % (n + 1)
        t_u = counts.sum(axis=1)
        emp = counts / np.maximum(t_u, 1)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = emp * (np.log2(emp) - np.log2(cond[:, u])[None, :])
        terms = np.where(emp > 0, terms, 0.0)
        d = terms.sum(axis=1)
        d[np.any((emp > 0) & (cond[:, u][None, :] <= 0), axis=1)] = np.inf
        scores = np.maximum(scores, ((t_u / n) * d)[inverse].reshape(keys.shape))
    return scores <= delta / 2


def type_class_words(counts, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Words drawn i.i.d. uniformly from the type class with these letter counts.

    The result has shape ``shape + (n,)`` with n = sum(counts). One
    rng.permuted call shuffles a row per word, in C order over ``shape``;
    it draws the same words, and leaves the generator in the same state, as
    one rng.permutation of the sorted word per word.
    """
    base = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    words = rng.permuted(np.tile(base, (math.prod(shape), 1)), axis=1)
    return words.reshape(*shape, base.size)


@dataclass(frozen=True)
class CoverageResult:
    estimate: float
    ci_low: float
    ci_high: float
    trials: int
    hypotheses_hold: bool
    hypothesis_note: str
    typical_count: int


def covering_hypotheses(p_su: np.ndarray, n: int, delta: float) -> tuple[bool, str]:
    """Whether delta < beta/2 and n > 4 |U| max(|S|, 1/beta) hold, with a note.

    beta is the smallest positive joint mass; these are the hypotheses under
    which every delta-typical state sequence has a completion to a joint
    type within 2*delta of p_su, reported instead of enforced.
    """
    num_s, num_u = p_su.shape
    beta = support_floor(p_su)
    n_floor = 4 * num_u * max(num_s, 1.0 / beta)
    if delta < beta / 2 and n > n_floor:
        return True, "analytic hypotheses satisfied"
    return False, f"delta < beta/2 is {delta < beta / 2}, n > {n_floor:.1f} is {n > n_floor}"


def coverage_probability(
    p_su: np.ndarray,
    n: int,
    K: int,
    delta: float,
    trials: int,
    seed: int,
) -> CoverageResult:
    """Monte-Carlo probability that K random auxiliary words cover all typical states.

    A trial succeeds when every delta-typical state sequence lies in the
    matched set of at least one of K codewords drawn uniformly from the type
    class of the auxiliary marginal. The forall is evaluated by exact
    enumeration of state sequences, which caps n. The analytic covering
    hypotheses cannot hold at enumerable blocklengths, so they are reported
    in the result instead of enforced.
    """
    p_su = np.asarray(p_su, dtype=float)
    num_s = p_su.shape[0]
    if trials < 1 or K < 0 or n < 1 or not delta >= 0:
        raise PreconditionViolated(
            "trials >= 1, K >= 0, n >= 1, delta >= 0", (trials, K, n, delta), "in range"
        )
    if np.any(p_su < 0) or not p_su.sum() > 0:
        raise PreconditionViolated(
            "joint has no negative entry and positive mass",
            (float(p_su.min()), float(p_su.sum())),
            "min >= 0, sum > 0",
        )
    p_s = p_su.sum(axis=1)
    p_u = p_su.sum(axis=0)
    if not is_exact_type(p_u, n):
        raise PreconditionViolated("n * p_U integral", (p_u * n).tolist(), "integers")
    # Tested on n first, so that a huge n forms no huge power. One state has one state word, but
    # its table row still holds n digits.
    if num_s == 1:
        if n > SEQUENCE_ENUMERATION_CAP:
            raise CapExceeded(f"n = {n} digits of one state word exceed enumeration cap {SEQUENCE_ENUMERATION_CAP}")
    elif n >= SEQUENCE_ENUMERATION_CAP.bit_length() or num_s**n > SEQUENCE_ENUMERATION_CAP:
        raise CapExceeded(f"|S|^n = {num_s}^{n} exceeds enumeration cap {SEQUENCE_ENUMERATION_CAP}")
    hypotheses, note = covering_hypotheses(p_su, n, delta)

    seqs = digit_table(num_s, n)
    types = np.stack([np.sum(seqs == s, axis=1) for s in range(num_s)], axis=1)
    typical = np.abs(types / n - p_s).sum(axis=1) <= delta
    seqs = seqs[typical]
    t_count = int(seqs.shape[0])
    if t_count == 0:
        return CoverageResult(1.0, 1.0, 1.0, trials, hypotheses, note, 0)

    counts = np.rint(p_u * n).astype(np.int64)
    successes = 0
    for trial in range(trials):
        words = type_class_words(counts, (K,), rng_for(seed, trial))
        if matched_set_members(seqs, words, p_su, delta).any(axis=1).all():
            successes += 1
    lo, hi = wilson_interval(successes, trials)
    return CoverageResult(successes / trials, lo, hi, trials, hypotheses, note, t_count)
