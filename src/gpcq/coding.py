"""Random-coding schemes and exact error evaluation at desk scale.

Two decoders are realized on top of the block decoding projectors: the
square-root measurement normalizing message operators by the inverse square
root of their sum, and the sequential measurement applying projective tests
in message order. Errors are evaluated exactly whenever the term count
allows, every success trace by one product-state contraction
(quantum.product_traces); encoder Declare failures count as full errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .channel import StateChannel
from .errors import (
    CapExceeded,
    GpcqError,
    InvalidPOVM,
    NonFinite,
    NotProjection,
    PreconditionViolated,
)
from .method_of_types import (
    is_exact_type,
    matched_set_members,
    nearest_type_exhaustive,
    support_floor,
)
from .quantum import eigenbasis, product_traces
from .schur_weyl import DecodeContext
from .util import digit_table, rng_for

EXACT_TERM_CAP = 10**6
POVM_TOL = 1e-8
# Largest |S|^n whose state words simulate_noncausal_trial enumerates.
STATE_WORD_CAP = 4096


class Declare:
    """Sentinel returned when the encoder has no admissible codeword."""

    def __repr__(self):
        return "Declare"


DECLARE = Declare()


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
        _check_causal_marginals(code, ch)


def _check_causal_marginals(code: Code, ch: StateChannel) -> None:
    """Input prefixes may depend on the state word only through its prefix."""
    n = code.n
    for m in range(code.num_messages):
        for t in range(1, n + 1):
            marginals: dict[tuple[int, ...], dict[tuple[int, ...], float]] = {}
            for (msg, s_word), rows in code.encoder.items():
                if msg != m:
                    continue
                prefix = s_word[:t]
                marg = marginals.setdefault(prefix, {})
                probe: dict[tuple[int, ...], float] = {}
                for x_word, prob in rows:
                    probe[x_word[:t]] = probe.get(x_word[:t], 0.0) + prob
                if not marg:
                    marg.update(probe)
                else:
                    keys = set(marg) | set(probe)
                    worst = max(abs(marg.get(k, 0.0) - probe.get(k, 0.0)) for k in keys)
                    if worst > 1e-9:
                        raise GpcqError(
                            f"causal marginal violated at message {m}, prefix length {t}"
                        )


def validate_povm(elements: Sequence[np.ndarray], dim: int) -> None:
    total = np.zeros((dim, dim), dtype=complex)
    for i, el in enumerate(elements):
        el = np.asarray(el)
        if el.shape != (dim, dim):
            raise InvalidPOVM(f"element {i} has shape {el.shape}, expected ({dim},{dim})")
        if np.max(np.abs(el - el.conj().T)) > 1e-8:
            raise InvalidPOVM(f"element {i} is not Hermitian")
        if float(np.linalg.eigvalsh(el).min()) < -1e-8:
            raise InvalidPOVM(f"element {i} has a negative eigenvalue")
        total += el
    top = float(np.linalg.eigvalsh(total).max())
    if top > 1.0 + POVM_TOL:
        raise InvalidPOVM(f"elements sum above identity by {top - 1.0}")


def average_error(
    code: Code,
    ch: StateChannel,
    seed: int | None = None,
    samples: int = 20000,
    term_cap: int = EXACT_TERM_CAP,
) -> float:
    """Average error of an explicit code: exact when enumerable, else sampled.

    Exact mode sums p(state word) * encoder probability * success trace over
    every term; Monte Carlo (requires a seed) samples state and input words
    from their laws and averages the same success trace.
    """
    validate_code(code, ch)
    n, M = code.n, code.num_messages
    tensor = ch.tensor()
    p = ch.p.probs
    terms = sum(len(rows) for rows in code.encoder.values())

    def success_trace(m, s_word, x_word):
        return _product_trace(code.povm[m], [tensor[s, x] for s, x in zip(s_word, x_word)])

    if terms <= term_cap:
        success = 0.0
        for (m, s_word), rows in code.encoder.items():
            weight = math.prod(p[s] for s in s_word)
            for x_word, prob in rows:
                if prob == 0.0:
                    continue
                success += weight * prob * success_trace(m, s_word, x_word)
        err = 1.0 - success / M
        return min(max(err, 0.0), 1.0)

    if seed is None:
        raise CapExceeded(
            f"{terms} exact terms exceed cap {term_cap} and no seed given for sampling"
        )
    rng = rng_for(seed, "code-error")
    hits = 0.0
    by_message: dict[int, list[tuple[int, ...]]] = {}
    for (m, s_word) in code.encoder:
        by_message.setdefault(m, []).append(s_word)
    for _ in range(samples):
        m = int(rng.integers(M))
        s_word = tuple(int(rng.choice(len(p), p=p)) for _ in range(n))
        rows = code.encoder[(m, s_word)]
        probs = np.array([pr for _, pr in rows])
        x_word = rows[int(rng.choice(len(rows), p=probs / probs.sum()))][0]
        hits += success_trace(m, s_word, x_word)
    err = 1.0 - hits / samples
    return min(max(err, 0.0), 1.0)


def _product_trace(op: np.ndarray, states) -> float:
    """Real part of tr(op · states[0] ⊗ states[1] ⊗ ...)."""
    return float(product_traces(op, [st[None] for st in states]).item().real)


def square_root_decoder(projectors: Sequence[np.ndarray], rank_tol: float = 1e-10):
    """POVM normalizing each operator by the inverse square root of the sum.

    The inverse square root is taken on the support of the sum; the kernel
    projector is returned as the error outcome. Elements sum to the support
    projector exactly, so closure holds to machine precision.
    """
    mats = [np.asarray(m, dtype=complex) for m in projectors]
    dim = mats[0].shape[0]
    total = np.zeros((dim, dim), dtype=complex)
    for m in mats:
        total += m
    vals, vecs = np.linalg.eigh(total)
    top = float(vals.max(initial=0.0))
    if top <= 0.0:
        return [np.zeros((dim, dim), dtype=complex) for _ in mats], np.eye(dim, dtype=complex)
    support = vals > rank_tol * top
    inv_sqrt = np.zeros_like(vals)
    inv_sqrt[support] = vals[support] ** -0.5
    smoother = (vecs * inv_sqrt[None, :]) @ vecs.conj().T
    elements = [smoother @ m @ smoother for m in mats]
    elements = [0.5 * (e + e.conj().T) for e in elements]
    support_proj = (vecs[:, support]) @ (vecs[:, support].conj().T)
    d0 = np.eye(dim, dtype=complex) - support_proj
    d0 = 0.5 * (d0 + d0.conj().T)
    validate_povm(list(elements) + [d0], dim)
    closure = np.max(np.abs(sum(elements) + d0 - np.eye(dim)))
    if closure > POVM_TOL:
        raise InvalidPOVM(f"square-root closure defect {closure}")
    return elements, d0


def sequential_decoder(projectors: Sequence[np.ndarray]):
    """Effective POVM of projective tests applied in the given order.

    Element m is the m-th projector conjugated by the complements of all
    earlier ones; the telescoping identity keeps the total below identity,
    and the remainder is the error outcome.
    """
    mats = [np.asarray(m, dtype=complex) for m in projectors]
    dim = mats[0].shape[0]
    for i, m in enumerate(mats):
        if np.max(np.abs(m - m.conj().T)) > 1e-8 or np.max(np.abs(m @ m - m)) > 1e-7:
            raise NotProjection(f"operator {i} is not a projector")
    eye = np.eye(dim, dtype=complex)
    chain = eye.copy()
    elements = []
    for m in mats:
        elements.append(chain.conj().T @ m @ chain)
        chain = (eye - m) @ chain
    elements = [0.5 * (e + e.conj().T) for e in elements]
    d0 = eye - sum(elements)
    d0 = 0.5 * (d0 + d0.conj().T)
    validate_povm(list(elements) + [d0], dim)
    return elements, d0


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


@dataclass(frozen=True)
class GPCodebook:
    """Binned codebook of auxiliary words, all from one exact type class.

    words has shape (K, M, n); p_su is the witness joint over (state, aux)
    whose conditionals drive the matched-set test at radius delta; regime_ok
    records whether the asymptotic covering hypotheses held (they cannot at
    desk-scale n, so this is a report, not a gate).
    """

    words: np.ndarray
    p_su: np.ndarray
    delta: float
    regime_ok: bool

    @property
    def K(self) -> int:
        return self.words.shape[0]

    @property
    def M(self) -> int:
        return self.words.shape[1]

    @property
    def n(self) -> int:
        return self.words.shape[2]


def build_gp_codebook(
    p_su: np.ndarray,
    n: int,
    K: int,
    M: int,
    delta: float,
    seed: int,
) -> GPCodebook:
    """K*M codewords drawn i.i.d. uniformly from the auxiliary type class.

    The auxiliary marginal must be an exact denominator-n type. The asymptotic
    covering hypotheses are evaluated and recorded; they are not enforced
    because simulation blocklengths sit far below them.
    """
    p_su = np.asarray(p_su, dtype=float)
    p_u = p_su.sum(axis=0)
    if not is_exact_type(p_u, n):
        raise PreconditionViolated(
            "auxiliary marginal is a denominator-n type", (p_u * n).tolist(), "integers"
        )
    beta = support_floor(p_su)
    num_s, num_u = p_su.shape
    regime_ok = delta < beta / 2 and n > 4 * num_u * max(num_s, 1.0 / beta)
    counts = np.rint(p_u * n).astype(np.int64)
    base = np.repeat(np.arange(num_u), counts)
    rng = rng_for(seed, "gp-codebook")
    words = np.stack(
        [np.stack([rng.permutation(base) for _ in range(M)]) for _ in range(K)]
    )
    return GPCodebook(words, p_su, delta, regime_ok)


def admissible_indices(codebook: GPCodebook, m: int, s_word) -> list[int]:
    """Bins of message m whose codeword matches the state word."""
    s_words = np.asarray(s_word)[None, :]
    return [
        k
        for k in range(codebook.K)
        if matched_set_members(s_words, codebook.words[k, m], codebook.p_su, codebook.delta)[0]
    ]


def gp_encoder(codebook: GPCodebook, m: int, s_word, seed: int):
    """Uniform choice among matching codewords of the bin; Declare when none."""
    ks = admissible_indices(codebook, m, s_word)
    if not ks:
        return DECLARE
    rng = rng_for(seed, "gp-encode", m, tuple(int(s) for s in s_word))
    return codebook.words[int(rng.choice(ks)), m]


@dataclass(frozen=True)
class SimRow:
    scheme: str
    n: int
    rate: float
    K: int
    M: int
    err: float
    ci_low: float
    ci_high: float
    declares: float


def _messages_for_rate(rate: float, n: int) -> int:
    return max(1, math.ceil(2.0 ** (n * rate) - 1e-9))


def _mean_ci(values: np.ndarray):
    mean = float(np.mean(values))
    if values.size < 2:
        return mean, mean, mean
    half = 1.96 * float(np.std(values, ddof=1)) / math.sqrt(values.size)
    return mean, max(mean - half, 0.0), min(mean + half, 1.0)


def _typical_word(q: np.ndarray, n: int, delta: float, rng: np.random.Generator) -> np.ndarray:
    """Word drawn i.i.d. from q conditioned on delta-typicality (rejection)."""
    for _ in range(1000):
        word = rng.choice(q.size, size=n, p=q)
        counts = np.bincount(word, minlength=q.size)
        if float(np.abs(counts / n - q).sum()) <= delta:
            return word.astype(np.int64)
    counts = nearest_type_exhaustive(q, n)
    return rng.permutation(np.repeat(np.arange(q.size), counts))


def simulate_noncausal_trial(
    ch: StateChannel,
    p_su: np.ndarray,
    strategy: np.ndarray,
    ctx: DecodeContext,
    n: int,
    K: int,
    M: int,
    delta: float,
    rng: np.random.Generator,
):
    """One binned-codebook round with the square-root decoder, evaluated exactly.

    Returns (error, declare mass). State words are enumerated exhaustively;
    a Declare (empty bin) counts as a full error for its state mass.
    """
    num_s, num_u = p_su.shape
    if num_s**n > STATE_WORD_CAP:
        raise CapExceeded(f"|S|^n = {num_s**n} exceeds exact-evaluation cap {STATE_WORD_CAP}")
    p_u = p_su.sum(axis=0)
    counts = nearest_type_exhaustive(p_u, n)
    base = np.repeat(np.arange(num_u), counts)
    words = np.stack([np.stack([rng.permutation(base) for _ in range(M)]) for _ in range(K)])

    proj = [
        sum(ctx.projector(words[k, m]).matrix for k in range(K)) for m in range(M)
    ]
    elements, _ = square_root_decoder(proj)

    p = ch.p.probs
    s_digits = digit_table(num_s, n)
    mass = p[s_digits].prod(axis=1)
    # letter_states[:, u] stacks the output of every state letter under auxiliary letter u.
    letter_states = ch.tensor()[np.arange(num_s)[:, None], strategy]

    err_total = 0.0
    declare_total = 0.0
    for m in range(M):
        members = np.stack(
            [matched_set_members(s_digits, words[k, m], p_su, delta) for k in range(K)], axis=1
        )
        counts_k = members.sum(axis=1)
        succ = np.zeros(s_digits.shape[0])
        for k in range(K):
            # One trace per state word, in digit_table order.
            traces = product_traces(elements[m], [letter_states[:, u] for u in words[k, m]])
            succ += members[:, k] * traces.reshape(-1).real
        with np.errstate(invalid="ignore"):
            succ = np.where(counts_k > 0, succ / np.where(counts_k > 0, counts_k, 1), 0.0)
        declare_mass = float(mass[counts_k == 0].sum())
        err_total += float((mass * (1.0 - succ)).sum())
        declare_total += declare_mass
    return err_total / M, declare_total / M


def simulate_causal_trial(
    derived_states: np.ndarray,
    q: np.ndarray,
    ctx: DecodeContext,
    n: int,
    M: int,
    delta: float,
    rng: np.random.Generator,
):
    """One strategy-codebook round with the sequential decoder, evaluated exactly.

    The state average factorizes, so the expected success of message m is the
    trace of its effective measurement element against the product of
    per-letter averaged states.
    """
    words = [_typical_word(q, n, delta, rng) for _ in range(M)]
    projectors = [ctx.projector(w).matrix for w in words]
    elements, _ = sequential_decoder(projectors)
    succ = 0.0
    for w, el in zip(words, elements):
        succ += _product_trace(el, [derived_states[u] for u in w])
    return 1.0 - succ / M, 0.0


def simulate_rate_error_curve(
    ch: StateChannel,
    scheme: str,
    rates: Sequence[float],
    n_list: Sequence[int],
    trials: int,
    seed: int,
    K: int = 2,
    delta: float = 0.2,
    causal_witness=None,
    gp_witness=None,
    restarts: int = 8,
) -> list[SimRow]:
    """Expected-error sweep over (rate, n) for one scheme, deterministic in seed.

    causal-sequential draws message codewords from the optimal strategy
    weights and decodes sequentially; noncausal-sqrt builds a binned codebook
    from a trade-off witness and decodes with the square-root measurement.
    Witnesses are solved once per channel unless supplied.
    """
    from .causal import causal_capacity
    from .noncausal import noncausal_lower_bound, trim_witness

    if scheme not in ("causal-sequential", "noncausal-sqrt"):
        raise GpcqError(f"unknown scheme {scheme!r}")
    if not all(math.isfinite(r) for r in rates) or not math.isfinite(delta):
        raise NonFinite(f"rates {list(rates)} and delta {delta} must be finite")
    if trials < 1 or K < 1 or any(n < 1 for n in n_list):
        raise PreconditionViolated("trials, K and every n", (trials, K, list(n_list)), ">= 1")

    rows: list[SimRow] = []
    if scheme == "causal-sequential":
        if causal_witness is None:
            sol = causal_capacity(ch)
            q, columns = sol.q, np.asarray(sol.strategy.columns, dtype=np.int64)
        else:
            q, columns = causal_witness
            q = np.asarray(q, dtype=float)
            columns = np.asarray(columns, dtype=np.int64)
        keepers = q > 1e-9
        q = q[keepers] / q[keepers].sum()
        columns = columns[keepers]
        tensor = ch.tensor()
        states = np.einsum("s,usij->uij", ch.p.probs, tensor[np.arange(ch.num_states)[None, :], columns])
        rho_bar = np.einsum("u,uij->ij", q, states)
        _, basis = eigenbasis(rho_bar)
        for n in n_list:
            ctx = DecodeContext(states, basis, n, delta)
            for r_idx, rate in enumerate(rates):
                M = _messages_for_rate(rate, n)
                results = np.array([
                    simulate_causal_trial(
                        states, q, ctx, n, M, delta, rng_for(seed, "causal", n, r_idx, t)
                    )
                    for t in range(trials)
                ])
                err, lo, hi = _mean_ci(results[:, 0])
                rows.append(SimRow(scheme, n, float(rate), 1, M, err, lo, hi, 0.0))
        return rows

    if gp_witness is None:
        wit = noncausal_lower_bound(ch, n=1, restarts=restarts, seed=seed)
        q_rows, strat = trim_witness(wit.q_given_s, wit.strategy, tol=1e-6)
    else:
        q_rows, strat = gp_witness
        q_rows = np.asarray(q_rows, dtype=float)
        strat = np.asarray(strat, dtype=np.int64)
    p_su = ch.p.probs[:, None] * q_rows
    q_u = p_su.sum(axis=0)
    keepers = q_u > 1e-9
    p_su = p_su[:, keepers]
    p_su /= p_su.sum()
    strat = strat[:, keepers]
    q_u = p_su.sum(axis=0)
    tensor = ch.tensor()
    picked = tensor[np.arange(ch.num_states)[:, None], strat]
    blended = np.einsum("su,suij->uij", p_su, picked)
    states = blended / q_u[:, None, None]
    rho_bar = blended.sum(axis=0)
    _, basis = eigenbasis(rho_bar)
    for n in n_list:
        ctx = DecodeContext(states, basis, n, delta)
        for r_idx, rate in enumerate(rates):
            M = _messages_for_rate(rate, n)
            results = np.array([
                simulate_noncausal_trial(
                    ch, p_su, strat, ctx, n, K, M, delta,
                    rng_for(seed, "noncausal", n, r_idx, t),
                )
                for t in range(trials)
            ])
            err, lo, hi = _mean_ci(results[:, 0])
            declares = float(np.mean(results[:, 1]))
            rows.append(SimRow(scheme, n, float(rate), K, M, err, lo, hi, declares))
    return rows


def rows_to_csv(rows: Sequence[SimRow]) -> str:
    out = ["scheme,n,rate,K,M,err,ci_low,ci_high,declares"]
    for r in rows:
        out.append(
            f"{r.scheme},{r.n},{r.rate:.10g},{r.K},{r.M},"
            f"{r.err:.10g},{r.ci_low:.10g},{r.ci_high:.10g},{r.declares:.10g}"
        )
    return "\n".join(out) + "\n"
