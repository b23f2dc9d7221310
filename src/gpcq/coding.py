"""Random-coding schemes and exact error evaluation at desk scale.

Two decoders are realized on the block decoding projectors, each a
quantum.BlockStack of one real block per frequency class of the n slots in
the decoding basis frame (schur_weyl.DecodeContext): the square-root
measurement and the sequential one. Both have one streamed shape (_Stream):
advance forms, checks and returns a chunk of messages' elements and adds
them to the element sum; close returns the error outcome and checks the sum
against identity. SequentialChain keeps a chain operator per class between
chunks. SquareRoot is built by a first pass that sums the chunks, then takes
one eigh per class of the sum and keeps its eigenvectors.
square_root_decoder and sequential_decoder are the one-chunk cases; a dense
operator list is the one-block case. Leading batch axes of a BlockStack
index independent POVMs, each with its own support, error outcome and checks.

Both trials run one chunk loop (_decoded_traces): per chunk of messages of
every trial of a batch, one DecodeContext.projectors call, one advance and
one _success_traces call. The square root's two passes gather each chunk
twice, unless the plan is one chunk, whose one gather serves both. A binned
message sums its K bins' projectors, a causal message has one codeword, and
each trial draws from its own generator. A state word that no bin of its
message matches (a declare) counts as a full error. Each trial's error and
declare mass are summed in the order a lone trial sums them, so results
depend on neither the batching nor the chunking, and reruns are
byte-identical.

The memory model behind BudgetExceeded (_batch_entries) is the largest
float64 footprint of a batch's phases, plus the tables a batch keeps. A
rate is refused only when one message per chunk of one trial does not fit
the budget. A point's batches stay within the curve's largest one-trial,
whole-list footprint and within 1 - STREAM_HEADROOM of the budget: the most
trials that fit at a starting chunk (one message for the chain, the whole
list for the square root), then the most messages per chunk that fit.

validate_povm refuses non-finite elements before any other check on them,
and tests positivity by a Cholesky factorization of el + 1e-8 I, which
exists exactly when the least eigenvalue of el exceeds -1e-8.
"""

from __future__ import annotations

import bisect
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
# Entries the memory model allows for a trial's small arrays, cached letter
# class blocks and interpreter objects (3,000 to 3,700 of them measured at n = 8 on flip).
TABLE_SLACK = 2**13
# Entries the matched-set test holds per (state word, codeword) pair at its peak.
MATCHED_PAIR_ENTRIES = 10
# Share of the memory budget that a decoder streamed to fit it leaves free: peak RSS exceeds the
# model by the interpreter, BLAS buffers and freed heap the allocator keeps (130-170 MiB at n = 12).
STREAM_HEADROOM = 0.125


def _stack(operators, noun: str, dim: int | None = None, first: int = 0) -> tuple[BlockStack, bool]:
    """Operators as a BlockStack, and whether they came as a dense sequence.

    Empty input and non-finite entries are refused first, an operator named
    by first plus its index in its own list. A dense sequence then becomes
    the one-block stack once every shape is (dim, dim), dim defaulting to the
    first operator's.
    """
    if isinstance(operators, BlockStack):
        if len(operators) == 0:
            raise PreconditionViolated(f"number of {noun}s", 0, ">= 1")
        bad = _first_flagged(operators, lambda b: ~np.isfinite(b).all(axis=(-2, -1)), first)
        if bad is not None:
            raise NonFinite(f"{noun} {bad} has a non-finite entry")
        return operators, False
    mats = [np.asarray(m) for m in operators]
    if not mats:
        raise PreconditionViolated(f"number of {noun}s", 0, ">= 1")
    bad = next((i for i, m in enumerate(mats) if not np.all(np.isfinite(m))), None)
    if bad is not None:
        raise NonFinite(f"{noun} {first + bad} has a non-finite entry")
    if dim is None:
        dim = mats[0].shape[0] if mats[0].ndim == 2 else -1
    for i, m in enumerate(mats):
        if m.shape != (dim, dim):
            raise InvalidPOVM(f"{noun} {first + i} has shape {m.shape}, expected ({dim},{dim})")
    stacked = np.stack(mats).astype(np.result_type(float, *mats), copy=False)
    return BlockStack((stacked,), (np.arange(dim),)), True


def _first_flagged(stack: BlockStack, flags, first: int = 0) -> int | None:
    """first plus the index, within its own list, of the first element that flags(block) marks in any block.

    flags gives one bool per element, shape (*batch, N); the first is taken
    in C order, so in the first list that has one.
    """
    marked = np.zeros(stack.blocks[0].shape[:-2], dtype=bool)
    for block in stack.blocks:
        marked |= flags(block)
    return first + int(np.argmax(marked)) % len(stack) if marked.any() else None


def _not_hermitian(block: np.ndarray, tol: float) -> np.ndarray:
    return np.abs(block - block.conj().swapaxes(-1, -2)).max(axis=(-2, -1)) > tol


def _not_projector(block: np.ndarray) -> np.ndarray:
    return _not_hermitian(block, 1e-8) | (np.abs(block @ block - block).max(axis=(-2, -1)) > 1e-7)


def _not_positive(block: np.ndarray) -> np.ndarray:
    """Elements of the block without a Cholesky factor of el + 1e-8 I."""
    shifted = block + POVM_TOL * np.eye(block.shape[-1])
    failed = np.zeros(block.shape[:-2], dtype=bool)
    try:
        np.linalg.cholesky(shifted)
        return failed
    except np.linalg.LinAlgError:
        pass
    for i in np.ndindex(failed.shape):
        try:
            np.linalg.cholesky(shifted[i])
        except np.linalg.LinAlgError:
            failed[i] = True
    return failed


def _check_elements(stack: BlockStack, first: int = 0) -> None:
    """Refuse a non-Hermitian or non-positive element, named by first plus its index in its own POVM."""
    bad = _first_flagged(stack, lambda b: _not_hermitian(b, 1e-8), first)
    if bad is not None:
        raise InvalidPOVM(f"element {bad} is not Hermitian")
    bad = _first_flagged(stack, _not_positive, first)
    if bad is not None:
        raise InvalidPOVM(f"element {bad} has a negative eigenvalue")


def _check_sum(totals: Sequence[np.ndarray]) -> None:
    """Refuse POVMs whose elements sum above identity, given the sum's class blocks, (*batch, s, s) each."""
    top = np.max([np.linalg.eigvalsh(total).max(axis=-1) for total in totals], axis=0)
    over = top[top > 1.0 + POVM_TOL]
    if over.size:
        raise InvalidPOVM(f"elements sum above identity by {float(over[0]) - 1.0}")


def validate_povm(elements, dim: int) -> None:
    """Refuse an empty list, bad elements, and element sums above identity.

    ``elements`` is a sequence of dense (dim, dim) arrays or a BlockStack,
    whose leading batch axes index independent POVMs. Every element must be
    finite (checked first, over all elements), of dimension dim, Hermitian
    to 1e-8 and positive: el + 1e-8 I must have a Cholesky factor, which
    holds exactly when the least eigenvalue of el exceeds -1e-8. A
    block-diagonal operator passes each check exactly when each of its
    blocks does, so every check runs block by block. A refused element is
    named by its index in its own POVM, and each POVM's sum is checked
    against the identity on its own.
    """
    stack, _ = _stack(elements, "element", dim)
    if stack.dim != dim:
        raise InvalidPOVM(f"elements act on dimension {stack.dim}, expected {dim}")
    _check_elements(stack)
    _check_sum([block.sum(axis=-3) for block in stack.blocks])


def _adjoint(ops: np.ndarray) -> np.ndarray:
    return ops.conj().swapaxes(-1, -2)


def _hermitian_part(ops: np.ndarray) -> np.ndarray:
    """0.5 (ops + ops^H), scaled in place so that one temporary is formed."""
    out = ops + _adjoint(ops)
    out *= 0.5
    return out


def _running_sums(totals, blocks) -> list:
    """Each (*batch, N, s, s) block summed onto its running total in message order: the total leads the chunk."""
    if totals is None:
        return [block.sum(axis=-3) for block in blocks]
    return [np.concatenate([t[..., None, :, :], b], axis=-3).sum(axis=-3) for t, b in zip(totals, blocks)]


class _Stream:
    """A decoder fed a chunk of messages at a time, by its rule _elements and _error.

    advance takes the next messages' operators, in a BlockStack or a dense
    sequence, forms their elements, checks each as validate_povm does, adds
    them to the element sum and returns them; a refused operator or element
    is named by its index in its own list. close returns the error outcome,
    checked as an element, and checks its closure defect and the largest
    eigenvalue of the element sum plus it. Batch axes index independent lists.
    """

    count = 0  # messages advanced so far
    totals = None  # per class, the sum of the elements advanced

    def advance(self, operators) -> BlockStack:
        """The checked elements of the next messages."""
        stack, _ = _stack(operators, "operator", first=self.count)
        self.index = stack.index
        elements = self._elements(stack)
        _stack(elements, "element", first=self.count)  # finite entries first, as validate_povm checks them
        _check_elements(elements, self.count)
        self.totals = _running_sums(self.totals, elements.blocks)
        self.count += len(stack)
        return elements

    def close(self) -> BlockStack:
        """The checked error outcome, a one-element list per batch entry."""
        if self.count == 0:
            raise PreconditionViolated("number of operators", 0, ">= 1")
        error = BlockStack(tuple(e[..., None, :, :] for e in self._error()), self.index)
        _stack(error, "element", first=self.count)
        _check_elements(error, self.count)
        sums = [total + e[..., 0, :, :] for total, e in zip(self.totals, error.blocks)]
        _check_sum(sums)
        closure = max(float(np.max(np.abs(total - np.eye(total.shape[-1])))) for total in sums)
        if closure > POVM_TOL:
            raise InvalidPOVM(f"closure defect {closure}")
        return error


class SquareRoot(_Stream):
    """The square-root measurement of a list of operators, fed in two passes of chunks of messages.

    The first pass builds it from an iterable of the list's chunks,
    BlockStacks summed per class in message order. One eigh per class of the
    sum gives its inverse square root on the support, judged against the
    largest eigenvalue of all blocks. advance takes the same chunks again and
    forms each element sum^(-1/2) P sum^(-1/2); close returns the kernel
    projector as the error outcome, so closure holds to machine precision.
    Between chunks it keeps the eigenvectors and the element sum.
    """

    def __init__(self, chunks):
        sums = None
        for stack in chunks:
            sums = _running_sums(sums, stack.blocks)
            del stack  # freed before the next chunk is gathered
        spectra = [np.linalg.eigh(total) for total in sums]
        top = np.max([vals.max(axis=-1, initial=0.0) for vals, _ in spectra], axis=0)[..., None]
        self.factors = []  # per class, the eigenvectors, inverse square roots and support
        for vals, vecs in spectra:
            support = (vals > RANK_TOL * top) & (top > 0.0)
            inv_sqrt = np.zeros_like(vals)
            inv_sqrt[support] = vals[support] ** -0.5
            self.factors.append((vecs, inv_sqrt, support))

    def _elements(self, stack: BlockStack) -> BlockStack:
        blocks = []
        for block, (vecs, inv_sqrt, _) in zip(stack.blocks, self.factors):
            smoother = ((vecs * inv_sqrt[..., None, :]) @ _adjoint(vecs))[..., None, :, :]
            blocks.append(_hermitian_part(np.matmul(smoother @ block, smoother)))
        return BlockStack(tuple(blocks), stack.index)

    def _error(self) -> list:
        kept = [vecs * support[..., None, :] for vecs, _, support in self.factors]
        return [_hermitian_part(np.eye(k.shape[-1]) - k @ _adjoint(k)) for k in kept]


def _chain_step(chain, ops: np.ndarray):
    """Overwrite each projector of ops (..., N, s, s) by chain^H P chain, in message order; return the advanced chain."""
    eye = np.eye(ops.shape[-1])
    for m in range(ops.shape[-3]):
        proj = ops[..., m, :, :]
        conjugated, complement = _adjoint(chain) @ proj, eye - proj
        np.matmul(conjugated, chain, out=proj)
        chain = complement @ chain
    return chain


class SequentialChain(_Stream):
    """The sequential measurement of a list of projectors, fed a chunk of messages at a time.

    Element m is the m-th projector conjugated by the complements of all
    earlier ones, the chain (1 - P_{m-1}) ... (1 - P_1); the telescoping
    identity keeps the total below identity, and the remainder, identity
    minus the element sum, is the error outcome. advance also checks that
    each operator is a projector. Between chunks it keeps one chain operator
    per class and list and the element sum. The classes of one size advance
    together, one matmul per message for all of them.
    """

    def _elements(self, stack: BlockStack) -> BlockStack:
        bad = _first_flagged(stack, _not_projector, self.count)
        if bad is not None:
            raise NotProjection(f"operator {bad} is not a projector")
        if self.count == 0:
            sizes = [idx.size for idx in stack.index]
            self.groups = [[c for c, s in enumerate(sizes) if s == size] for size in dict.fromkeys(sizes)]
            self.chains = [np.eye(sizes[group[0]]) for group in self.groups]
        blocks = [None] * len(stack.index)
        for g, group in enumerate(self.groups):
            picked = [stack.blocks[c] for c in group]
            ops = np.stack(picked).astype(np.result_type(float, *picked), copy=False)
            self.chains[g] = _chain_step(self.chains[g], ops)
            for c, block in zip(group, _hermitian_part(ops)):
                blocks[c] = block
        return BlockStack(tuple(blocks), stack.index)

    def _error(self) -> list:
        return [_hermitian_part(np.eye(total.shape[-1]) - total) for total in self.totals]


def _decoded(opened, operators):
    """(elements, error outcome) of the decoder opened([stack]) fed a whole list as one chunk, in the list's form."""
    stack, dense = _stack(operators, "operator")
    decoder = opened([stack])
    elements, error = decoder.advance(stack), decoder.close()
    return (list(elements.blocks[0]), error.blocks[0][0]) if dense else (elements, error)


def square_root_decoder(projectors):
    """The one-chunk SquareRoot: (elements, error outcome) in the input's form, a list and one matrix when dense."""
    return _decoded(SquareRoot, projectors)


def sequential_decoder(projectors):
    """The one-chunk SequentialChain: (elements, error outcome) in the input's form, a list and one matrix when dense."""
    return _decoded(lambda chunks: SequentialChain(), projectors)


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


def _chunk_entries(dim: int, d: int, per_slot: Sequence[int]) -> int:
    """Entries one message takes in a _success_traces chunk.

    Its paired dim² operator, and the two consecutive slot outputs of
    quantum.product_traces that are alive while a slot's matmul runs. Slot
    k's output holds dim²/d^(2k) entries for each of per_slot[0] ...
    per_slot[k-1] candidates, where per_slot[0] is the broadcast axes times
    the first slot's states and per_slot[j] the (j+1)-th slot's states.
    """
    outs, size, candidates = [], dim * dim, 1
    for count in per_slot:
        size //= d * d
        candidates *= count
        outs.append(size * candidates)
    return dim * dim + max(a + b for a, b in zip(outs, outs[1:] + [0]))


def _batch_entries(trials: int, M: int, n: int, d: int, lead: int, states: int, chunk: int) -> int:
    """Float64 entries that a batch of ``trials`` trials of M messages holds at its largest phase.

    A message's decode operator sums ``lead`` codeword projectors, and its
    traces contract against ``lead`` lists of ``states`` states per slot: K
    bins and K lists of |S| states for a binned trial, one codeword and one
    state for a causal one. Either decoder is fed C = chunk messages of every
    trial at a time (_decoded_traces). With T = trials, E = sum_f |f|^2 and
    F = max_f |f|^2 over the frequency classes f of n slots, the phases are:

    - gathering codeword projectors: T lead C (E + F + 2 d^n) + 4 F +
      (3 n + 2) d^n, the distinct words' stack, the words' int64 gather
      indices and the slice of them for one letter type (at most d^n
      entries per word each), the gathered block of the class being read
      (at most F per word), and one letter type's build, shared by the
      batch: its class block with one letter's int64 indices, mask and
      factor (4 F), and three d^n index arrays per letter, at most n letters;
    - building the decoder input: T C ((lead + 1) E + F), the distinct
      words' stack, the per-message sums and one class-block temporary;
    - decoding: T C (2 E + 3 F), a chunk's input and elements, the Cholesky
      copy and factor of the largest class, and one class block more for
      what peak RSS adds to the arrays (allocator slack, LAPACK copies);
    - success traces: the chunk's elements, T C E, and one chunk of
      _chunk_entries per message of the chunk (its paired operator and the
      two slot outputs alive at once);
    - the matched-set test of a binned trial: 10 W T M lead, the
      method_of_types.matched_set_members temporaries (keys, their sort
      and inverse, scores: 8.2 to 9.5 entries per pair of a state word and
      a codeword under tracemalloc at n = 4 to 10), run before any decode
      operator exists.

    Every phase also counts the tables a batch keeps throughout: the decode
    context's n d^n word digits and the E slot-paired positions of the
    n-slot classes (ClassPartition.pairs); the T M lead codewords' n digits
    each; the W = states^n state words with their n digits, shared by the
    batch, and T M lead traces each; and TABLE_SLACK entries of small
    arrays, cached letter class blocks and interpreter objects. The
    decoder's 2 T E kept between chunks (chain operators or eigenvectors,
    and the element sum) count in decoding, tracing, and the gather and
    build of a chunk after the first. Left out is the process-wide cache of
    frame bases (ClassPartition.bases), filled once: E(d, t) entries per t,
    at most 2 E(d, n) over t <= n at d >= 2 (E(d, a) E(d, b) <= E(d, a + b)
    and E(d, 1) = d), 41 MiB at d = 2, n = 12, within STREAM_HEADROOM.
    """
    sizes = [words.size**2 for words in class_partition(d, n).words]
    E, F, C = sum(sizes), max(sizes), chunk
    state = 2 * trials * E
    per_message = _chunk_entries(d**n, d, [lead * states] + [states] * (n - 1))
    gather = trials * C * lead * (E + F + 2 * d**n) + 4 * F + (3 * n + 2) * d**n + (C < M) * state
    build = trials * C * ((lead + 1) * E + F) + (C < M) * state
    decode = trials * C * (2 * E + 3 * F) + state
    traces = trials * C * E + max(1, trials * C * E // per_message) * per_message + state
    matched = MATCHED_PAIR_ENTRIES * states**n * trials * M * lead
    tables = n * d**n + E + trials * M * lead * n + states**n * (n + trials * M * lead) + TABLE_SLACK
    return tables + max(gather, build, decode, traces, matched)


def _messages_for_rate(rate: float, n: int, d: int, lead: int, states: int) -> int:
    """2^(n rate) messages, refused when one trial of them cannot fit the memory budget.

    The one check is _batch_entries of one trial of M messages fed one
    message per chunk. Before M is formed, its log2 is bounded below by
    the per-message table term every plan holds, lead (n + states^n) entries
    for the codewords' digits and traces, so 2^(n rate) is only formed once
    that fits. Rates are at least 0, so M is at least one message.
    CapExceeded first when the n-slot classes are past schur_weyl.DIM_CAP,
    then when states^n exceeds STATE_WORD_CAP, the state words a binned
    trial enumerates.
    """
    class_partition(d, n)  # CapExceeded past schur_weyl.DIM_CAP
    if states**n > STATE_WORD_CAP:
        raise CapExceeded(f"|S|^n = {states**n} exceeds exact-evaluation cap {STATE_WORD_CAP}")
    budget = memory_budget_bytes()
    log2_bytes = n * rate + math.log2(8 * lead * (n + states**n))
    if log2_bytes <= math.log2(max(budget, 1)):
        M = math.ceil(2.0 ** (n * rate) - 1e-9)
        log2_bytes = math.log2(8 * _batch_entries(1, M, n, d, lead, states, 1))
    if log2_bytes > math.log2(max(budget, 1)):
        raise BudgetExceeded(
            f"rate {rate} at n={n} needs ~2^{log2_bytes:.1f} bytes of decoder, budget is {budget}",
            log2_bytes=log2_bytes,
        )
    return M


def _success_traces(elements: BlockStack, slots: Sequence[np.ndarray]) -> np.ndarray:
    """Re tr(E_m · σ_1 ⊗ ... ⊗ σ_n) for every element m and every state its slots list.

    slots[j] has shape (M, ..., L_j, d, d), in the basis frame of the
    elements, which are blocked over class_partition(d, n) as
    DecodeContext.projectors blocks them; the result is (M, ..., L_1 * ...
    * L_n). The elements' class blocks are scattered a chunk of messages at
    a time into the slot-paired layout (BlockStack.paired, at the positions
    the partition keeps), one quantum.product_traces contraction per chunk. A chunk holds about as many entries as the block stack, and at
    least one message's _chunk_entries.
    """
    count, dim, d = len(elements), elements.dim, slots[0].shape[-1]
    pairs, lead = class_partition(d, len(slots)).pairs, slots[0].shape[1:-3]
    per_slot = [math.prod(lead) * slots[0].shape[-3]] + [s.shape[-3] for s in slots[1:]]
    chunk = _chunk_entries(dim, d, per_slot)
    step = max(1, count * sum(block[0].size for block in elements.blocks) // chunk)
    out = np.empty((count, *lead, math.prod(s.shape[-3] for s in slots)))
    for lo in range(0, count, step):
        ops = elements.paired(pairs, lo, lo + step).reshape((-1,) + (1,) * len(lead) + (dim * dim,))
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


def _round_sums(x: np.ndarray) -> np.ndarray:
    """The sum of each x[t] over its entries in C order: one pairwise sum per round, as if it ran alone."""
    return np.ascontiguousarray(x).reshape(len(x), -1).sum(axis=1)


def _decoded_traces(opened, ctx: DecodeContext, words: np.ndarray, rotated: np.ndarray, chunk: int):
    """Every trial's success traces, decoded ``chunk`` messages of every trial at a time.

    words is (T, M, *bins, n): a message's decode operator sums its bins'
    projectors, and its element is traced against every product of the
    basis-frame states rotated[u], an (L, d, d) stack per letter u, on the
    slots holding u; the result is (T, M, *bins, L^n). opened(chunks) gives
    the decoder from the chunks' operators, which only the square root reads
    (its first pass). Then each chunk is one DecodeContext.projectors call,
    one advance and one _success_traces call, and the decoder closes: the
    square root gathers each chunk twice, unless the plan is one chunk.
    """
    T, M, n = len(words), words.shape[1], ctx.n

    def projectors(lo: int) -> BlockStack:
        part = words[:, lo : lo + chunk]
        return ctx.projectors(part.reshape(T * part.shape[1], -1, n)).reshape(T, -1)

    held = projectors(0) if chunk >= M else None  # a one-chunk plan's only gather
    decoder = opened(projectors(lo) if held is None else held for lo in range(0, M, chunk))
    traces = np.empty(words.shape[:-1] + (rotated.shape[1] ** n,))
    for lo in range(0, M, chunk):
        elements = decoder.advance(projectors(lo) if held is None else held).reshape(-1)
        held, part = None, words[:, lo : lo + chunk]  # the decoder input is freed before the traces
        slots = [rotated[part[..., j].reshape(len(elements), *part.shape[2:-1])] for j in range(n)]
        traces[:, lo : lo + chunk] = _success_traces(elements, slots).reshape(part.shape[:-1] + (-1,))
        del elements, slots  # freed before the next chunk is gathered
    decoder.close()
    return traces


def simulate_noncausal_trial(
    ch: StateChannel,
    p_su: np.ndarray,
    strategy: np.ndarray,
    ctx: DecodeContext,
    K: int,
    M: int,
    rngs: Sequence[np.random.Generator],
    chunk: int,
) -> np.ndarray:
    """Binned-codebook rounds with the square-root decoder, one per generator, evaluated exactly.

    Returns a (T, 2) array, one (error, declare mass) row per generator in
    rngs; round t draws its codebook from rngs[t] alone, so its row does not
    depend on the other rounds. The blocklength and the matched-set radius
    are ctx.n and ctx.delta. State words are enumerated exhaustively; the
    encoder picks uniformly among the message's bins whose codeword matches
    the state word, and a declare (no bin matches) counts as a full error
    for its state mass. The T rounds are decoded together, chunk messages at
    a time (_decoded_traces).
    """
    n, delta = ctx.n, ctx.delta
    num_s = p_su.shape[0]
    counts = nearest_type(p_su.sum(axis=0), n)
    # (T, M, K, n): round t's bins of message m.
    words = np.stack([type_class_words(counts, (K, M), rng) for rng in rngs]).swapaxes(1, 2)
    T = len(words)
    s_digits = digit_table(num_s, n)
    mass = ch.p[s_digits].prod(axis=1)
    # The matched-set test runs before any decode operator is alive.
    members = matched_set_members(s_digits, words.reshape(-1, n), p_su, delta)
    members = members.reshape(-1, T, M, K).transpose(1, 2, 3, 0)
    # rotated[u] stacks, in the basis frame, the output of every state letter under auxiliary letter u;
    # traces[t, m, k] holds one trace per state word, in digit_table order.
    rotated = ctx.rotate(letter_states(ch.tensor, strategy)).swapaxes(0, 1)
    traces = _decoded_traces(SquareRoot, ctx, words, rotated, chunk)
    hits = members.sum(axis=2)
    succ = (members * traces).sum(axis=2) / np.maximum(hits, 1)  # 0 where no bin matches
    err = _round_sums(mass * (1.0 - succ))
    # Declares are summed state word by state word over the messages.
    declares = _round_sums(mass[:, None] * (hits == 0).swapaxes(1, 2))
    return np.column_stack([err, declares]) / M


def simulate_causal_trial(
    derived_states: np.ndarray,
    q: np.ndarray,
    ctx: DecodeContext,
    M: int,
    rngs: Sequence[np.random.Generator],
    chunk: int,
) -> np.ndarray:
    """Strategy-codebook rounds with the sequential decoder, one per generator, evaluated exactly.

    Returns a (T, 2) array, one (error, 0) row per generator in rngs; round
    t draws its codewords from rngs[t] alone. Codewords are ctx.delta-typical
    words of length ctx.n. The state average factorizes, so the expected
    success of message m is the trace of its effective measurement element
    against the product of per-letter averaged states. The T rounds are
    decoded together, chunk messages at a time (_decoded_traces).
    """
    words = np.stack([_typical_words(q, ctx.n, M, ctx.delta, rng) for rng in rngs])
    traces = _decoded_traces(lambda chunks: SequentialChain(), ctx, words, ctx.rotate(derived_states)[:, None], chunk)
    return np.column_stack([1.0 - _round_sums(traces) / M, np.zeros(len(words))])


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
    with the strategy f = columns.T, and is checked as that witness. Both
    decoders stream chunks of messages (_decoded_traces). Each (n, rate)
    point runs its trials in batches whose memory model stays within the
    curve's largest one-trial, whole-list footprint and within
    1 - STREAM_HEADROOM of the budget: the most trials at a starting chunk,
    one message for causal-sequential and the whole list for noncausal-sqrt,
    then the most messages per chunk. Trial t draws from rng_for(seed,
    scheme tag, n, rate index, t), so a row depends on neither the batching
    nor the chunking.
    """
    from .causal import causal_capacity
    from .noncausal import _check_witness, noncausal_lower_bound, trim_witness

    if scheme not in ("causal-sequential", "noncausal-sqrt"):
        raise GpcqError(f"unknown scheme {scheme!r}")
    if not all(math.isfinite(r) for r in rates) or not math.isfinite(delta):
        raise NonFinite(f"rates {list(rates)} and delta {delta} must be finite")
    if delta < 0:
        raise PreconditionViolated("delta", delta, ">= 0")
    if any(r < 0 for r in rates):
        raise PreconditionViolated("every rate", list(rates), ">= 0")
    if trials < 1 or K < 1 or restarts < 1 or any(n < 1 for n in n_list):
        raise PreconditionViolated(
            "trials, K, restarts and every n", (trials, K, restarts, list(n_list)), ">= 1"
        )
    causal = scheme == "causal-sequential"
    # A message sums K bins against K lists of |S| states per slot, or one codeword against one state.
    lead, per_list = (1, 1) if causal else (K, ch.num_states)
    messages = [[_messages_for_rate(rate, n, ch.dim, lead, per_list) for rate in rates] for n in n_list]
    # Batches hold no more than the curve's largest one-trial, whole-list footprint. Where that exceeds
    # the budget, the chunks leave the budget's last STREAM_HEADROOM to what the model does not count.
    cap = min(
        max((_batch_entries(1, M, n, ch.dim, lead, per_list, M) for n, counts in zip(n_list, messages) for M in counts),
            default=0),
        int((1.0 - STREAM_HEADROOM) * memory_budget_bytes()) // 8,
    )
    p = ch.p
    # Each witness becomes letter weights q(u), weights p(s|u)/p(s) and an
    # (s, u) strategy table, so derived_states gives rho_u directly.
    if causal:
        if causal_witness is None:
            sol = causal_capacity(ch)
            causal_witness = (sol.q, sol.strategy.columns)
        q, columns = causal_witness
        q = np.asarray(q, dtype=float)
        _, strat = _check_witness(ch, np.tile(q, (ch.num_states, 1)), np.asarray(columns).T)
        weights = np.ones(strat.shape)
    else:
        if gp_witness is None:
            wit = noncausal_lower_bound(ch, n=1, restarts=restarts, seed=seed)
            gp_witness = trim_witness(wit.q_given_s, wit.strategy)
        q_rows, strat = _check_witness(ch, *gp_witness)
        q = p @ q_rows
        weights = q_rows / np.where(q > 0, q, 1.0)
    keepers = q > 1e-9
    q = q[keepers] / q[keepers].sum()
    weights, strat = weights[:, keepers], strat[:, keepers]
    p_su = p[:, None] * weights * q[None, :]  # the joint the binned codebook matches against
    states = derived_states(p, ch.tensor, weights, strat)
    _, basis = eigenbasis(np.einsum("u,uij->ij", q, states))

    tag = "causal" if causal else "noncausal"
    rows: list[SimRow] = []
    for n, counts in zip(n_list, messages):
        ctx = DecodeContext(states, basis, n, delta)
        for r_idx, (rate, M) in enumerate(zip(rates, counts)):
            # The most trials within cap at the starting chunk, then the most messages per chunk, at least
            # one of each. The chain starts at one message, the square root at the whole list: on flip at
            # n = 6, rate 1.2 (2 cores, one BLAS thread), six chain trials in chunks of 23 messages take
            # 88.3 ms and six lone whole-list trials 105.9 ms; six lone square-root trials take 61.9 ms,
            # one six-trial batch 76.8 ms, and a second gather of the point's projectors 5.8 ms.
            chunk = 1 if causal else M
            size = max(1, bisect.bisect_right(
                range(1, trials + 1), cap, key=lambda t: _batch_entries(t, M, n, ch.dim, lead, per_list, chunk)
            ))
            chunk = max(1, bisect.bisect_right(
                range(1, M + 1), cap, key=lambda c: _batch_entries(size, M, n, ch.dim, lead, per_list, c)
            ))
            batches = []
            for first in range(0, trials, size):
                rngs = [rng_for(seed, tag, n, r_idx, t) for t in range(first, min(first + size, trials))]
                batches.append(
                    simulate_causal_trial(states, q, ctx, M, rngs, chunk)
                    if causal
                    else simulate_noncausal_trial(ch, p_su, strat, ctx, K, M, rngs, chunk)
                )
            results = np.concatenate(batches)
            err, lo, hi = _mean_ci(results[:, 0])
            declares = float(np.mean(results[:, 1]))
            rows.append(SimRow(scheme, n, float(rate), 1 if causal else K, M, err, lo, hi, declares))
    return rows
