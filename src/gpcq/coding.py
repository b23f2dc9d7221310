"""Random-coding schemes and exact error evaluation at desk scale.

Two decoders are realized on top of the block decoding projectors: the
square-root measurement normalizing message operators by the inverse square
root of their sum, and the sequential measurement applying projective tests
in message order. Every decode operator of a simulation is a
quantum.BlockStack: for each message, one real block per frequency class of
the n slots, in the decoding basis frame (schur_weyl.DecodeContext). The
square-root sum, its eigh, the smoothed elements, the sequential chain,
validate_povm's checks and the closure check all run block by block. A
dense operator list is the one-block case of the same code, and each
decoder returns its input's form.

Each trial builds one projector per letter type of its codewords, the
Kronecker product of its letters' dense blocks, and gathers every distinct
codeword's class blocks from its type's product by a slot permutation
(DecodeContext.projectors); a causal trial draws its codewords by
rejection from batches of candidates. Letter states are rotated into the
basis frame, and the success traces of all messages come from one
quantum.product_traces contraction per chunk of messages scattered into
dense operators; a state word that no bin of its message matches (a
declare) counts as a full error. The memory
model behind BudgetExceeded is the largest footprint of a trial's phases:
stacks of sum_f |f|^2 float64 entries per message, f over the frequency
classes of n slots, the gather's index arrays, one type's d^n x d^n
product, class-block temporaries of the largest class, and the dense chunk
of the success traces (_messages_for_rate lists them).

validate_povm refuses non-finite elements before any other check on them,
and tests positivity by a Cholesky factorization of el + 1e-8 I, which
exists exactly when the least eigenvalue of el exceeds -1e-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import StateChannel, derived_states, letter_states, memory_budget_bytes
from .errors import (
    BudgetExceeded,
    CapExceeded,
    GpcqError,
    InvalidPOVM,
    NonFinite,
    NotProjection,
    PreconditionViolated,
)
from .method_of_types import matched_set_members, nearest_type, type_class_words
from .quantum import BlockStack, eigenbasis, product_traces
from .schur_weyl import DecodeContext, class_partition
from .util import digit_table, rng_for

POVM_TOL = 1e-8
# Eigenvalues of the square-root sum below RANK_TOL times the largest are its kernel.
RANK_TOL = 1e-10
# Largest |S|^n whose state words simulate_noncausal_trial enumerates.
STATE_WORD_CAP = 4096


def _stack(operators, noun: str, dim: int | None = None) -> tuple[BlockStack, bool]:
    """Operators as a BlockStack, and whether they came as a dense sequence.

    Empty input and non-finite entries are refused first. A dense sequence
    then becomes the one-block stack once every shape is (dim, dim), dim
    defaulting to the first operator's.
    """
    if isinstance(operators, BlockStack):
        if len(operators) == 0:
            raise PreconditionViolated(f"number of {noun}s", 0, ">= 1")
        bad = _first_flagged(operators, lambda b: ~np.isfinite(b).all(axis=(-2, -1)))
        if bad is not None:
            raise NonFinite(f"{noun} {bad} has a non-finite entry")
        return operators, False
    mats = [np.asarray(m) for m in operators]
    if not mats:
        raise PreconditionViolated(f"number of {noun}s", 0, ">= 1")
    bad = next((i for i, m in enumerate(mats) if not np.all(np.isfinite(m))), None)
    if bad is not None:
        raise NonFinite(f"{noun} {bad} has a non-finite entry")
    if dim is None:
        dim = mats[0].shape[0] if mats[0].ndim == 2 else -1
    for i, m in enumerate(mats):
        if m.shape != (dim, dim):
            raise InvalidPOVM(f"{noun} {i} has shape {m.shape}, expected ({dim},{dim})")
    stacked = np.stack(mats).astype(np.result_type(float, *mats), copy=False)
    return BlockStack((stacked,), (np.arange(dim),)), True


def _first_flagged(stack: BlockStack, flags) -> int | None:
    """First element that flags(block), one bool per element, marks in any block."""
    marked = np.zeros(len(stack), dtype=bool)
    for block in stack.blocks:
        marked |= flags(block)
    return int(np.argmax(marked)) if marked.any() else None


def _not_hermitian(block: np.ndarray, tol: float) -> np.ndarray:
    return np.abs(block - block.conj().swapaxes(-1, -2)).max(axis=(-2, -1)) > tol


def _not_positive(block: np.ndarray) -> np.ndarray:
    """Elements of the block without a Cholesky factor of el + 1e-8 I."""
    shifted = block + POVM_TOL * np.eye(block.shape[-1])
    try:
        np.linalg.cholesky(shifted)
        return np.zeros(len(block), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    failed = np.zeros(len(block), dtype=bool)
    for i, el in enumerate(shifted):
        try:
            np.linalg.cholesky(el)
        except np.linalg.LinAlgError:
            failed[i] = True
    return failed


def validate_povm(elements, dim: int) -> None:
    """Refuse an empty list, bad elements, and element sums above identity.

    ``elements`` is a sequence of dense (dim, dim) arrays or a BlockStack.
    Every element must be finite (checked first, over all elements), of
    dimension dim, Hermitian to 1e-8 and positive: el + 1e-8 I must have a
    Cholesky factor, which holds exactly when the least eigenvalue of el
    exceeds -1e-8. A block-diagonal operator passes each check exactly when
    each of its blocks does, so every check runs block by block.
    """
    stack, _ = _stack(elements, "element", dim)
    if stack.dim != dim:
        raise InvalidPOVM(f"elements act on dimension {stack.dim}, expected {dim}")
    bad = _first_flagged(stack, lambda b: _not_hermitian(b, 1e-8))
    if bad is not None:
        raise InvalidPOVM(f"element {bad} is not Hermitian")
    bad = _first_flagged(stack, _not_positive)
    if bad is not None:
        raise InvalidPOVM(f"element {bad} has a negative eigenvalue")
    top = max(float(np.linalg.eigvalsh(block.sum(axis=0)).max()) for block in stack.blocks)
    if top > 1.0 + POVM_TOL:
        raise InvalidPOVM(f"elements sum above identity by {top - 1.0}")


def _returned(povm: BlockStack, dense: bool):
    """(elements, error outcome) of a POVM whose last element is the error outcome, in the input's form."""
    if dense:
        return list(povm.blocks[0][:-1]), povm.blocks[0][-1]
    return (
        BlockStack(tuple(b[:-1] for b in povm.blocks), povm.index),
        BlockStack(tuple(b[-1:] for b in povm.blocks), povm.index),
    )


def _hermitian_part(ops: np.ndarray) -> np.ndarray:
    return 0.5 * (ops + ops.conj().swapaxes(-1, -2))


def square_root_decoder(projectors):
    """POVM normalizing each operator by the inverse square root of the sum.

    The inverse square root is taken on the support of the sum; the kernel
    projector is returned as the error outcome. Elements sum to the support
    projector exactly, so closure holds to machine precision. Block-diagonal
    input (a BlockStack) is decoded block by block: one eigh of each block
    of the sum, with the support judged against the largest eigenvalue of
    all blocks. The output has the input's form.
    """
    stack, dense = _stack(projectors, "operator")
    spectra = [np.linalg.eigh(block.sum(axis=0)) for block in stack.blocks]
    top = max(float(vals.max(initial=0.0)) for vals, _ in spectra)
    povm = []
    for block, (vals, vecs) in zip(stack.blocks, spectra):
        support = (vals > RANK_TOL * top) & (top > 0.0)
        inv_sqrt = np.zeros_like(vals)
        inv_sqrt[support] = vals[support] ** -0.5
        smoother = (vecs * inv_sqrt[None, :]) @ vecs.conj().T
        ops = np.empty((len(block) + 1,) + block.shape[1:], dtype=np.result_type(block, vecs))
        np.matmul(smoother @ block, smoother, out=ops[:-1])
        ops[-1] = np.eye(len(vals)) - vecs[:, support] @ vecs[:, support].conj().T
        povm.append(_hermitian_part(ops))
    povm = BlockStack(tuple(povm), stack.index)
    validate_povm(povm, stack.dim)
    closure = max(float(np.max(np.abs(b.sum(axis=0) - np.eye(b.shape[-1])))) for b in povm.blocks)
    if closure > POVM_TOL:
        raise InvalidPOVM(f"square-root closure defect {closure}")
    return _returned(povm, dense)


def sequential_decoder(projectors):
    """Effective POVM of projective tests applied in the given order.

    Element m is the m-th projector conjugated by the complements of all
    earlier ones; the telescoping identity keeps the total below identity,
    and the remainder is the error outcome. Block-diagonal input runs the
    chain block by block; the output has the input's form.
    """
    stack, dense = _stack(projectors, "operator")
    bad = _first_flagged(
        stack, lambda b: _not_hermitian(b, 1e-8) | (np.abs(b @ b - b).max(axis=(-2, -1)) > 1e-7)
    )
    if bad is not None:
        raise NotProjection(f"operator {bad} is not a projector")
    povm = []
    for block in stack.blocks:
        eye = np.eye(block.shape[-1])
        ops = np.empty((len(block) + 1,) + block.shape[1:], dtype=np.result_type(block, float))
        chain = eye
        for m, proj in enumerate(block):
            ops[m] = chain.conj().T @ proj @ chain
            chain = (eye - proj) @ chain
        ops[:-1] = _hermitian_part(ops[:-1])
        ops[-1] = _hermitian_part(eye - ops[:-1].sum(axis=0))
        povm.append(ops)
    povm = BlockStack(tuple(povm), stack.index)
    validate_povm(povm, stack.dim)
    return _returned(povm, dense)


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


def _chunk_entries(dim: int, d: int, candidates: int) -> int:
    """Entries one message takes in a _success_traces chunk.

    Its dense dim x dim operator, quantum.product_traces' reordered copy of
    it, and the first slot's contraction over ``candidates`` (broadcast axes
    times the slot's states) with its reordered copy. Later slots hold no
    more while a slot lists at most d^2 states.
    """
    return 2 * dim * dim + 2 * (dim * dim // (d * d)) * candidates


def _messages_for_rate(rate: float, n: int, d: int, held: int, candidates: int) -> int:
    """2^(n rate) messages, refused when their decoder cannot fit the memory budget.

    The model is the largest float64 footprint of a trial's phases, with
    E = sum_f |f|^2 and F = max_f |f|^2 over the frequency classes f of n
    slots and M messages:

    - gathering codeword projectors: (held - 1) M (E + F + 2 d^n) + d^(2n),
      the distinct words' stack, the words' int64 gather indices and the
      slice of them for one letter type (at most d^n entries per word
      each), the gathered block of the class being read (at most F per
      word), and the one letter type's Kronecker product held at a time;
    - building the decoder input: M (held E + F), ``held`` stacks and one
      class-block temporary;
    - decoding: (2M + 1) E + 3 (M + 1) F, the decoder input, the POVM with
      its error outcome, validate_povm's Cholesky copy and factor of the
      largest class, and one class block more for what peak RSS adds to
      the arrays (allocator slack, LAPACK copies);
    - success traces: (M + 1) E and one chunk of _chunk_entries per message.

    The per-message part is compared in log2 terms first, so 2^(n rate) is
    only formed once it fits. CapExceeded first when the n-slot classes are
    past schur_weyl.DIM_CAP.
    """
    budget = memory_budget_bytes()
    sizes = [words.size**2 for words in class_partition(d, n).words]
    E, F = sum(sizes), max(sizes)
    gather = (held - 1) * (E + F + 2 * d**n)
    per_message = max(gather, held * E + F, 2 * E + 3 * F)
    log2_bytes = max(n * rate, 0.0) + math.log2(8 * per_message)
    if log2_bytes <= math.log2(max(budget, 1)):
        M = max(1, math.ceil(2.0 ** (n * rate) - 1e-9))
        chunk = _chunk_entries(d**n, d, candidates)
        traces = (M + 1) * E + max(1, M * E // chunk) * chunk
        projectors = M * gather + d ** (2 * n)
        entries = max(projectors, M * (held * E + F), (2 * M + 1) * E + 3 * (M + 1) * F, traces)
        log2_bytes = math.log2(8 * entries)
    if log2_bytes > math.log2(max(budget, 1)):
        raise BudgetExceeded(
            f"rate {rate} at n={n} needs ~2^{log2_bytes:.1f} bytes of decoder, budget is {budget}",
            log2_bytes=log2_bytes,
        )
    return M


def _success_traces(elements: BlockStack, slots: Sequence[np.ndarray]) -> np.ndarray:
    """Re tr(E_m · σ_1 ⊗ ... ⊗ σ_n) for every element m and every state its slots list.

    slots[j] has shape (M, ..., L_j, d, d), in the basis frame of the
    elements; the result is (M, ..., L_1 * ... * L_n). Elements are scattered
    into dense operators a chunk of messages at a time, one
    quantum.product_traces contraction per chunk. A chunk holds about as
    many entries as the block stack, and at least one message's
    _chunk_entries.
    """
    count, dim = len(elements), elements.dim
    lead = slots[0].shape[1:-3]
    chunk = _chunk_entries(dim, slots[0].shape[-1], math.prod(lead) * slots[0].shape[-3])
    step = max(1, count * sum(block[0].size for block in elements.blocks) // chunk)
    out = np.empty((count, *lead, math.prod(s.shape[-3] for s in slots)))
    for lo in range(0, count, step):
        ops = elements.dense(lo, lo + step).reshape((-1,) + (1,) * len(lead) + (dim, dim))
        traces = product_traces(ops, [s[lo : lo + step] for s in slots])
        out[lo : lo + step] = traces.reshape(traces.shape[: 1 + len(lead)] + (-1,)).real
    return out


def _mean_ci(values: np.ndarray):
    mean = float(np.mean(values))
    if values.size < 2:
        return mean, mean, mean
    half = 1.96 * float(np.std(values, ddof=1)) / math.sqrt(values.size)
    return mean, max(mean - half, 0.0), min(mean + half, 1.0)


def _typical_words(q: np.ndarray, n: int, M: int, delta: float, rng: np.random.Generator) -> np.ndarray:
    """M words, each drawn i.i.d. from q conditioned on delta-typicality by rejection.

    A word is the first typical one of up to 1000 candidates, else a uniform
    word of the nearest type. Candidates come in batches, each letter the
    searchsorted of a uniform in q's cdf as Generator.choice(q.size, size=n,
    p=q) draws it, so the stream is read as by one choice per candidate. No
    batch passes the current word's 1000th candidate, so a fallback word
    draws from the same stream position; rows past the M-th word are unused.
    """
    cdf = q.cumsum()
    cdf /= cdf[-1]
    words: list[np.ndarray] = []
    tried = 0  # candidates of the current word drawn so far
    while len(words) < M:
        # Eight candidates per word still wanted, doubling while none is typical.
        batch = min(1000 - tried, max(8 * (M - len(words)), tried))
        rows = cdf.searchsorted(rng.random((batch, n)), side="right")
        counts = (rows[:, :, None] == np.arange(q.size)).sum(axis=1)
        typical = np.flatnonzero(np.abs(counts / n - q).sum(axis=1) <= delta)
        words.extend(rows[typical])
        tried = batch - 1 - typical[-1] if typical.size else tried + batch
        if tried == 1000:
            words.append(type_class_words(nearest_type(q, n), (), rng))
            tried = 0
    return np.array(words[:M], dtype=np.int64)


def simulate_noncausal_trial(
    ch: StateChannel,
    p_su: np.ndarray,
    strategy: np.ndarray,
    ctx: DecodeContext,
    K: int,
    M: int,
    rng: np.random.Generator,
):
    """One binned-codebook round with the square-root decoder, evaluated exactly.

    Returns (error, declare mass). The blocklength and the matched-set radius
    are ctx.n and ctx.delta. State words are enumerated exhaustively; the
    encoder picks uniformly among the message's bins whose codeword matches
    the state word, and a declare (no bin matches) counts as a full error
    for its state mass.
    """
    n, delta = ctx.n, ctx.delta
    num_s = p_su.shape[0]
    if num_s**n > STATE_WORD_CAP:
        raise CapExceeded(f"|S|^n = {num_s**n} exceeds exact-evaluation cap {STATE_WORD_CAP}")
    p_u = p_su.sum(axis=0)
    words = type_class_words(nearest_type(p_u, n), (K, M), rng)

    distinct, inverse = ctx.projectors(words.reshape(K * M, n))
    inverse = inverse.reshape(K, M)
    summed = []
    for block in distinct.blocks:
        total = block[inverse[0]]
        for k in range(1, K):
            total += block[inverse[k]]
        summed.append(total)
    del distinct  # the per-word blocks are freed before the decoder allocates its own
    elements, _ = square_root_decoder(BlockStack(tuple(summed), ctx.partition.words))
    del summed

    p = ch.p
    s_digits = digit_table(num_s, n)
    mass = p[s_digits].prod(axis=1)
    members = matched_set_members(s_digits, words.reshape(K * M, n), p_su, delta).reshape(-1, K, M).T
    # rotated[:, u] stacks, in the basis frame, the output of every state letter under auxiliary letter u.
    rotated = ctx.rotate(letter_states(ch.tensor, strategy))
    # One (M, K, |S|, d, d) stack per slot; traces[m, k] holds one trace per state word, in digit_table order.
    traces = _success_traces(elements, [np.moveaxis(rotated[:, words[:, :, j].T], 0, 2) for j in range(n)])
    counts = members.sum(axis=1)
    succ = (members * traces).sum(axis=1) / np.maximum(counts, 1)  # 0 where no bin matches
    err_total = float((mass * (1.0 - succ)).sum())
    declare_total = float((mass * (counts == 0)).sum())
    return err_total / M, declare_total / M


def simulate_causal_trial(
    derived_states: np.ndarray,
    q: np.ndarray,
    ctx: DecodeContext,
    M: int,
    rng: np.random.Generator,
):
    """One strategy-codebook round with the sequential decoder, evaluated exactly.

    Codewords are ctx.delta-typical words of length ctx.n. The state average
    factorizes, so the expected success of message m is the trace of its
    effective measurement element against the product of per-letter averaged
    states.
    """
    n = ctx.n
    words = _typical_words(q, n, M, ctx.delta, rng)
    distinct, inverse = ctx.projectors(words)
    projectors = BlockStack(tuple(block[inverse] for block in distinct.blocks), ctx.partition.words)
    del distinct
    elements, _ = sequential_decoder(projectors)
    del projectors
    rotated = ctx.rotate(derived_states)
    traces = _success_traces(elements, [rotated[words[:, j]][:, None] for j in range(n)])
    return 1.0 - float(traces.sum()) / M, 0.0


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
    Witnesses are solved once per channel unless supplied. Both decode
    against rho_u = sum_s p(s|u) rho[s, f(s, u)]: a causal witness (q,
    columns) leaks nothing about the state, so it is the witness q(u|s) = q(u)
    with the strategy f = columns.T.
    """
    from .causal import causal_capacity
    from .noncausal import _check_witness, noncausal_lower_bound, trim_witness

    if scheme not in ("causal-sequential", "noncausal-sqrt"):
        raise GpcqError(f"unknown scheme {scheme!r}")
    if not all(math.isfinite(r) for r in rates) or not math.isfinite(delta):
        raise NonFinite(f"rates {list(rates)} and delta {delta} must be finite")
    if delta < 0:
        raise PreconditionViolated("delta", delta, ">= 0")
    if trials < 1 or K < 1 or restarts < 1 or any(n < 1 for n in n_list):
        raise PreconditionViolated(
            "trials, K, restarts and every n", (trials, K, restarts, list(n_list)), ">= 1"
        )
    causal = scheme == "causal-sequential"
    # Stacks held while building: the distinct codeword projectors (up to K
    # per message) and their sums, or the causal projectors and their copy.
    # The traces contract against K state lists of |S| states per slot, or one state.
    held, candidates = (2, 1) if causal else (K + 1, K * ch.num_states)
    messages = [[_messages_for_rate(rate, n, ch.dim, held, candidates) for rate in rates] for n in n_list]

    p = ch.p
    # Each witness becomes letter weights q(u), weights p(s|u)/p(s) and an
    # (s, u) strategy table, so derived_states gives rho_u directly.
    if causal:
        if causal_witness is None:
            sol = causal_capacity(ch)
            causal_witness = (sol.q, sol.strategy.columns)
        q, columns = causal_witness
        q = np.asarray(q, dtype=float)
        strat = np.asarray(columns, dtype=np.int64).T
        weights = np.ones(strat.shape)
    else:
        if gp_witness is None:
            wit = noncausal_lower_bound(ch, n=1, restarts=restarts, seed=seed)
            gp_witness = trim_witness(wit.q_given_s, wit.strategy, tol=1e-6)
        q_rows, strat = _check_witness(ch, *gp_witness)
        q = p @ q_rows
        weights = q_rows / np.where(q > 0, q, 1.0)
    keepers = q > 1e-9
    q = q[keepers] / q[keepers].sum()
    weights, strat = weights[:, keepers], strat[:, keepers]
    p_su = p[:, None] * weights * q[None, :]  # the joint the binned codebook matches against
    states = derived_states(p, ch.tensor, weights, strat)
    _, basis = eigenbasis(np.einsum("u,uij->ij", q, states))

    rows: list[SimRow] = []
    for n, counts in zip(n_list, messages):
        ctx = DecodeContext(states, basis, n, delta)
        for r_idx, (rate, M) in enumerate(zip(rates, counts)):
            results = np.array([
                simulate_causal_trial(states, q, ctx, M, rng_for(seed, "causal", n, r_idx, t))
                if causal
                else simulate_noncausal_trial(ch, p_su, strat, ctx, K, M, rng_for(seed, "noncausal", n, r_idx, t))
                for t in range(trials)
            ])
            err, lo, hi = _mean_ci(results[:, 0])
            declares = float(np.mean(results[:, 1]))
            rows.append(SimRow(scheme, n, float(rate), 1 if causal else K, M, err, lo, hi, declares))
    return rows


def rows_to_csv(rows: Sequence[SimRow]) -> str:
    out = ["scheme,n,rate,K,M,err,ci_low,ci_high,declares"]
    for r in rows:
        out.append(
            f"{r.scheme},{r.n},{r.rate:.10g},{r.K},{r.M},"
            f"{r.err:.10g},{r.ci_low:.10g},{r.ci_high:.10g},{r.declares:.10g}"
        )
    return "\n".join(out) + "\n"
