"""Explicit codes evaluated exactly, and the other exact forms that only tests call.

An explicit Code lists, per (message, state word), the encoder's law of the
input word as (input word, probability) pairs, beside one decoder POVM
element per message in the product frame. average_error sums p(state word)
· probability · tr(povm[m] · ρ[s_1, x_1] ⊗ ... ⊗ ρ[s_n, x_n]) over every
row, each product state a Kronecker fold; a (message, state word) with no
row adds no success, so it counts as a full error.

binned_code and causal_code write one simulated trial's codewords and decode
elements as such a code, so the trial's error can be checked against
average_error. A binned row is the uniform law over the message's bins whose
codeword u matches the state word, with x_i = f(s_i, u_i); a message with no
matched bin (a declare) has no row. A causal row sends x_i = f_{u_i}(s_i)
for the message's one codeword u, so it passes the prefix-marginal check.

The rest are exact forms the program does not run: the sequential-testing
union bound, central projectors and Kostka ranks read off the frequency
classes, joint types with a joint-type completion, the Holevo quantity
as a weighted divergence sum, and the 60-step bisection for the pairwise
Frank-Wolfe step length that inner_maximize's Newton search replaced.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from gpcq.causal import _shifted, _stats
from gpcq.channel import StateChannel
from gpcq.coding import validate_povm
from gpcq.errors import GpcqError, LengthMismatch, NumericalRankFailure, PreconditionViolated
from gpcq.method_of_types import is_exact_type, matched_set_members, support_floor
from gpcq.quantum import _ensemble_arrays, relative_entropy
from gpcq.schur_weyl import YoungFrame, class_partition, gl_multiplicity, irrep_dimension

from dense_reference import kron_all


@dataclass(frozen=True)
class Code:
    """Explicit block code: randomized encoder table plus decoder POVM.

    encoder maps (message, state word) to a list of (input word, probability)
    pairs; povm lists one operator per message, with the identity deficit
    implicitly assigned to an error outcome. Words are tuples of alphabet
    indices. A causal tag asserts that input prefixes depend on the state
    word only through its prefix of the same length.
    """

    n: int
    num_messages: int
    encoder: Mapping[tuple[int, tuple[int, ...]], Sequence[tuple[tuple[int, ...], float]]]
    povm: Sequence[np.ndarray]
    causal: bool = False


def validate_code(code: Code, ch: StateChannel) -> None:
    dim = ch.dim**code.n
    validate_povm(code.povm, dim)
    for (m, s_word), rows in code.encoder.items():
        total = sum(prob for _, prob in rows)
        if abs(total - 1.0) > 1e-9 or any(prob < -1e-12 for _, prob in rows):
            raise GpcqError(f"encoder row for message {m}, states {s_word} is not a distribution")
    if code.causal:
        _check_causal_marginals(code)


def _check_causal_marginals(code: Code) -> None:
    """Input prefixes may depend on the state word only through its prefix."""
    for m in range(code.num_messages):
        for t in range(1, code.n + 1):
            marginals: dict[tuple[int, ...], dict[tuple[int, ...], float]] = {}
            for (msg, s_word), rows in code.encoder.items():
                if msg != m:
                    continue
                marg = marginals.setdefault(s_word[:t], {})
                probe: dict[tuple[int, ...], float] = {}
                for x_word, prob in rows:
                    probe[x_word[:t]] = probe.get(x_word[:t], 0.0) + prob
                if not marg:
                    marg.update(probe)
                else:
                    keys = set(marg) | set(probe)
                    worst = max(abs(marg.get(k, 0.0) - probe.get(k, 0.0)) for k in keys)
                    if worst > 1e-9:
                        raise GpcqError(f"causal marginal violated at message {m}, prefix length {t}")


def average_error(code: Code, ch: StateChannel) -> float:
    """Exact average error: one minus the success summed over every encoder row, per message."""
    validate_code(code, ch)
    success = 0.0
    for (m, s_word), rows in code.encoder.items():
        weight = math.prod(ch.p[s] for s in s_word)
        for x_word, prob in rows:
            if prob == 0.0:
                continue
            output = kron_all(ch.tensor[s, x] for s, x in zip(s_word, x_word))
            success += weight * prob * float(np.einsum("ij,ji->", code.povm[m], output).real)
    return min(max(1.0 - success / code.num_messages, 0.0), 1.0)


def admissible_indices(words: np.ndarray, m: int, s_word, p_su: np.ndarray, delta: float) -> list[int]:
    """Bins k of message m whose codeword words[k, m] of a (K, M, n) array matches the state word."""
    members = matched_set_members(np.asarray(s_word)[None, :], words[:, m], p_su, delta)
    return np.flatnonzero(members[0]).tolist()


def _inputs(strategy: np.ndarray, s_word, u_word) -> tuple[int, ...]:
    """x_i = strategy[s_i, u_i] slot by slot."""
    return tuple(int(x) for x in strategy[np.asarray(s_word), np.asarray(u_word)])


def binned_row(words: np.ndarray, m: int, s_word, p_su: np.ndarray, delta: float, strategy: np.ndarray):
    """Encoder row of message m on a state word: uniform over its matched bins, empty on a declare."""
    ks = admissible_indices(words, m, s_word, p_su, delta)
    return [(_inputs(strategy, s_word, words[k, m]), 1.0 / len(ks)) for k in ks]


def binned_code(words: np.ndarray, p_su: np.ndarray, strategy: np.ndarray, delta: float, povm) -> Code:
    """A binned trial's (K, M, n) codewords as an explicit code, one row per matched (message, state word)."""
    _, M, n = words.shape
    encoder = {}
    for m in range(M):
        for s_word in itertools.product(range(p_su.shape[0]), repeat=n):
            row = binned_row(words, m, s_word, p_su, delta, strategy)
            if row:
                encoder[m, s_word] = row
    return Code(n, M, encoder, povm)


def causal_code(words: np.ndarray, strategy: np.ndarray, num_states: int, povm) -> Code:
    """A causal trial's (M, n) strategy codewords as an explicit causal code."""
    M, n = words.shape
    encoder = {
        (m, s_word): [(_inputs(strategy, s_word, words[m]), 1.0)]
        for m in range(M)
        for s_word in itertools.product(range(num_states), repeat=n)
    }
    return Code(n, M, encoder, povm, causal=True)


def union_bound_gap(sigma: np.ndarray, projectors: Sequence[np.ndarray]):
    """Loss of sequential testing against its square-root deviation bound.

    Returns (loss, bound) with loss = tr(sigma) - tr(P_L...P_1 sigma P_1...P_L)
    and bound = 2 sqrt(sum_k tr((1 - P_k) sigma)); the inequality loss <=
    bound holds for any sub-normalized sigma and any projector sequence.
    """
    sigma = np.asarray(sigma, dtype=complex)
    dim = sigma.shape[0]
    chain = np.eye(dim, dtype=complex)
    miss = 0.0
    for p in projectors:
        chain = np.asarray(p) @ chain
        miss += float(np.real(np.trace((np.eye(dim) - p) @ sigma)))
    survived = float(np.real(np.trace(chain @ sigma @ chain.conj().T)))
    loss = float(np.real(np.trace(sigma))) - survived
    bound = 2.0 * math.sqrt(max(miss, 0.0))
    return loss, bound


def central_projector(frame: YoungFrame, d: int, n: int) -> np.ndarray:
    """Projector onto the isotypic block of one frame: its class blocks on the diagonal.

    Real symmetric; its trace must equal irrep_dimension * gl_multiplicity.
    """
    out = np.zeros((d**n, d**n))
    part = class_partition(d, n)
    for words, bases in zip(part.words, part.bases):
        if frame in bases:
            out[np.ix_(words, words)] = bases[frame] @ bases[frame].T
    expected = irrep_dimension(frame) * gl_multiplicity(frame, d)
    if abs(np.trace(out) - expected) > 1e-6:
        raise GpcqError(f"central projector trace {np.trace(out)} != {expected} for {frame}")
    return out


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
    part = class_partition(d, n)
    bases = part.bases[part.index(freq)]
    trace = float(np.trace(bases[frame] @ bases[frame].T)) if frame in bases else 0.0
    if abs(trace - round(trace)) > 1e-6:
        raise NumericalRankFailure(f"trace {trace} not near an integer for {freq}/{frame}")
    return round(trace)


def joint_type(a_seq, b_seq, a_size: int, b_size: int) -> np.ndarray:
    """Pair counts N(a, b) of two aligned sequences, shape (a_size, b_size)."""
    a_seq = np.asarray(a_seq, dtype=np.int64)
    b_seq = np.asarray(b_seq, dtype=np.int64)
    if a_seq.shape != b_seq.shape:
        raise LengthMismatch(f"lengths {a_seq.size} and {b_seq.size} differ")
    flat = np.bincount(a_seq * b_size + b_seq, minlength=a_size * b_size)
    return flat.reshape(a_size, b_size)


def joint_type_completion(s_seq, p_su: np.ndarray, delta: float) -> np.ndarray:
    """Pair a state sequence with an auxiliary sequence of prescribed type.

    Given s_seq whose type is within delta of the S-marginal of p_su, and an
    auxiliary marginal that is an exact denominator-n type, builds u_seq in
    the type class of that marginal with joint empirical distribution within
    2*delta of p_su (L1). Hypotheses checked: delta < beta/2 and
    n > 4 |U| max(|S|, 1/beta) for beta the smallest positive joint mass.
    """
    s_seq = np.asarray(s_seq, dtype=np.int64)
    p_su = np.asarray(p_su, dtype=float)
    num_s, num_u = p_su.shape
    n = s_seq.size
    p_s = p_su.sum(axis=1)
    p_u = p_su.sum(axis=0)
    if not is_exact_type(p_u, n):
        raise PreconditionViolated("n * p_U integral", (p_u * n).tolist(), "integers")
    beta = support_floor(p_su)
    if not delta < beta / 2:
        raise PreconditionViolated("delta < beta/2", delta, beta / 2)
    n_floor = 4 * num_u * max(num_s, 1.0 / beta)
    if not n > n_floor:
        raise PreconditionViolated("n > 4 |U| max(|S|, 1/beta)", n, n_floor)
    s_counts = np.bincount(s_seq, minlength=num_s)
    s_gap = float(np.abs(s_counts / n - p_s).sum())
    if s_gap > delta + 1e-12:
        raise PreconditionViolated("state sequence delta-typical", s_gap, delta)

    target_u = np.rint(p_u * n).astype(np.int64)
    joint_counts = np.zeros((num_s, num_u), dtype=np.int64)
    for s in range(num_s - 1):
        block = int(s_counts[s])
        if block == 0:
            continue
        w = p_su[s] / p_s[s] if p_s[s] > 0 else np.zeros(num_u)
        row = np.rint(w * block).astype(np.int64)
        row[w <= 0] = 0
        heavy = int(np.argmax(w))
        row[heavy] = block - (row.sum() - row[heavy])
        if row[heavy] < 0:
            raise GpcqError(f"completion failed rounding row for state {s}")
        joint_counts[s] = row
    last = num_s - 1
    joint_counts[last] = target_u - joint_counts[:last].sum(axis=0)
    if np.any(joint_counts[last] < 0):
        raise GpcqError("completion failed: remainder row went negative")
    if int(joint_counts[last].sum()) != int(s_counts[last]):
        raise GpcqError("completion failed: block sizes inconsistent")

    gap = float(np.abs(joint_counts / n - p_su).sum())
    if gap > 2.0 * delta + 1e-12:
        raise GpcqError(f"completion exceeded 2*delta: {gap} > {2 * delta}")

    u_seq = np.empty(n, dtype=np.int64)
    cursor = {s: 0 for s in range(num_s)}
    fills = {s: np.repeat(np.arange(num_u), joint_counts[s]) for s in range(num_s)}
    for i, s in enumerate(s_seq):
        u_seq[i] = fills[int(s)][cursor[int(s)]]
        cursor[int(s)] += 1
    return u_seq


def holevo_via_divergence(q, ensemble) -> float:
    """The Holevo quantity through the identity chi = sum_u q(u) D(rho_u || avg)."""
    weights, states = _ensemble_arrays(q, ensemble)
    avg = np.einsum("u,uij->ij", weights, states)
    used = weights > 0
    return float(weights[used] @ relative_entropy(states[used], avg))


def bisection_step_length(q, toward, away, states, entropies) -> tuple[float, int]:
    """The pairwise Frank-Wolfe step length by 60 halvings of [0, q[away]], and the decompositions used.

    The step inner_maximize took before its Newton search: the full step
    q[away] when the slope D(rho_toward || rho_bar) - D(rho_away || rho_bar)
    is nonnegative there, else the midpoint of a bracket halved 60 times on
    the slope's sign, one rho_bar eigh per slope. A NaN slope counts as -inf.
    """

    def slope(gamma):
        _, div, _ = _stats(_shifted(q, toward, away, gamma), states, entropies)
        total = float(div[toward] - div[away])
        return -math.inf if math.isnan(total) else total

    gamma = float(q[away])
    if not slope(gamma) < 0:
        return gamma, 1
    lo, hi = 0.0, gamma
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), 61
