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
decoder returns its input's form. Leading batch axes of a BlockStack index
independent POVMs: each keeps its own support, error outcome, closure and
sum check. The sequential measurement is a SequentialChain fed a chunk of
messages at a time; it keeps one chain operator per class and POVM and the
running element sum, so each element is formed, checked and dropped with
its chunk, and sequential_decoder is the one-chunk case.

A simulation point's trials run in batches. Each trial draws its codewords
from its own generator. A binned batch's decoder input is one
DecodeContext.projectors call on the (trials * messages, K, n) word array,
each message's operator the sum of its K bins' projectors; a causal batch
makes one projectors call per chunk of messages of every trial, one
codeword per message, and advances one chain with it. Every distinct
codeword is gathered once, by a slot permutation, from its letter type's
projector, built from the letters' class blocks. A causal trial draws its
codewords by rejection from batches of candidates. Letter states are
rotated into the basis frame, and the success traces of a batch, or of a
chunk, come from one quantum.product_traces contraction per chunk of
messages. The chunk's class blocks are scattered straight into the
slot-paired layout, each slot's row and column digit adjacent
(BlockStack.paired, at positions the class partition keeps), with no dense
matrix or transpose in between. A state word that no bin of its message
matches (a declare) counts as a full error. Each trial's error and declare
mass are summed in the order a lone trial sums them, so results depend on
neither the batching nor the chunking, and reruns are byte-identical.

The memory model behind BudgetExceeded (_batch_entries) is the largest
float64 footprint of a batch's phases, plus the tables a batch keeps
throughout. Batches stay within the curve's largest one-trial, whole-list
footprint. A binned rate is checked at one whole trial and its batch holds
the most trials within that cap, so the largest trial runs alone. A causal
rate is refused only when one message per chunk of one trial does not fit;
its point runs the most trials that fit at one message per chunk, with the
most messages per chunk that fit, and where a whole list exceeds the budget
the chunks leave STREAM_HEADROOM of the budget free.

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
# Share of the memory budget that a chain streamed to fit it leaves free: peak RSS exceeds the
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


def _returned(elements: BlockStack, error: BlockStack, dense: bool):
    """(elements, error outcome) in the input's form: a list and one matrix when it came dense."""
    if dense:
        return list(elements.blocks[0]), error.blocks[0][0]
    return elements, error


def _adjoint(ops: np.ndarray) -> np.ndarray:
    return ops.conj().swapaxes(-1, -2)


def _hermitian_part(ops: np.ndarray) -> np.ndarray:
    """0.5 (ops + ops^H), scaled in place so that one temporary is formed."""
    out = ops + _adjoint(ops)
    out *= 0.5
    return out


def square_root_decoder(projectors):
    """POVM normalizing each operator by the inverse square root of the sum.

    The inverse square root is taken on the support of the sum; the kernel
    projector is returned as the error outcome. Elements sum to the support
    projector exactly, so closure holds to machine precision. Block-diagonal
    input (a BlockStack) is decoded block by block: one eigh of each block
    of the sum, with the support judged against the largest eigenvalue of
    all blocks. Leading batch axes of a BlockStack index independent
    operator lists, each decoded with its own sum, support and error
    outcome. The output has the input's form.
    """
    stack, dense = _stack(projectors, "operator")
    spectra = [np.linalg.eigh(block.sum(axis=-3)) for block in stack.blocks]
    top = np.max([vals.max(axis=-1, initial=0.0) for vals, _ in spectra], axis=0)[..., None]
    povm = []
    for block, (vals, vecs) in zip(stack.blocks, spectra):
        support = (vals > RANK_TOL * top) & (top > 0.0)
        inv_sqrt = np.zeros_like(vals)
        inv_sqrt[support] = vals[support] ** -0.5
        smoother = ((vecs * inv_sqrt[..., None, :]) @ _adjoint(vecs))[..., None, :, :]
        kept = vecs * support[..., None, :]
        ops = np.empty(block.shape[:-3] + (len(stack) + 1,) + block.shape[-2:], dtype=np.result_type(block, vecs))
        np.matmul(smoother @ block, smoother, out=ops[..., :-1, :, :])
        ops[..., -1, :, :] = np.eye(vals.shape[-1]) - kept @ _adjoint(kept)
        povm.append(_hermitian_part(ops))
    povm = BlockStack(tuple(povm), stack.index)
    validate_povm(povm, stack.dim)
    closure = max(float(np.max(np.abs(b.sum(axis=-3) - np.eye(b.shape[-1])))) for b in povm.blocks)
    if closure > POVM_TOL:
        raise InvalidPOVM(f"square-root closure defect {closure}")
    return _returned(
        BlockStack(tuple(b[..., :-1, :, :] for b in povm.blocks), povm.index),
        BlockStack(tuple(b[..., -1:, :, :] for b in povm.blocks), povm.index),
        dense,
    )


def _chain_step(chain, ops: np.ndarray):
    """Overwrite each projector of ops (..., N, s, s) by chain^H P chain, in message order; return the advanced chain."""
    eye = np.eye(ops.shape[-1])
    for m in range(ops.shape[-3]):
        proj = ops[..., m, :, :]
        conjugated, complement = _adjoint(chain) @ proj, eye - proj
        np.matmul(conjugated, chain, out=proj)
        chain = complement @ chain
    return chain


class SequentialChain:
    """The sequential measurement of a list of projectors, fed a chunk of messages at a time.

    Element m is the m-th projector conjugated by the complements of all
    earlier ones, the chain (1 - P_{m-1}) ... (1 - P_1); the telescoping
    identity keeps the total below identity, and the remainder is the error
    outcome. advance takes the next messages' projectors, in a BlockStack or
    a dense sequence, checks that each is a projector, forms their elements,
    checks each as validate_povm does and returns them; a refused operator
    or element is named by its index in its own list. Between chunks the
    chain keeps only one chain operator per class and list and the running
    sum of the elements, added in message order, so every element and the
    error outcome are those of the whole list at once, bit for bit. close
    returns the error outcome, identity minus that sum, and checks it and
    the sum against the identity. Leading batch axes of a BlockStack index
    independent lists, advanced together, and the classes of one size
    advance together, one matmul per message for all of them.
    """

    def __init__(self):
        self.count = 0  # messages advanced so far

    def advance(self, projectors) -> BlockStack:
        """The checked elements of the next messages."""
        stack, _ = _stack(projectors, "operator", first=self.count)
        bad = _first_flagged(stack, _not_projector, self.count)
        if bad is not None:
            raise NotProjection(f"operator {bad} is not a projector")
        if self.count == 0:
            self.index, sizes = stack.index, [idx.size for idx in stack.index]
            self.groups = [[c for c, s in enumerate(sizes) if s == size] for size in dict.fromkeys(sizes)]
            self.chains = [np.eye(sizes[group[0]]) for group in self.groups]
            self.totals = [None] * len(self.groups)
        blocks = [None] * len(self.index)
        for g, group in enumerate(self.groups):
            for c, block in zip(group, self._elements(g, [stack.blocks[c] for c in group])):
                blocks[c] = block
        elements = BlockStack(tuple(blocks), stack.index)
        _stack(elements, "element", first=self.count)  # finite entries first, as validate_povm checks them
        _check_elements(elements, self.count)
        self.count += len(stack)
        return elements

    def _elements(self, g: int, blocks: list) -> np.ndarray:
        """Group g's elements, (G, *batch, N, s, s), from its classes' projector blocks; its chain and sum advance."""
        ops = np.stack(blocks).astype(np.result_type(float, *blocks), copy=False)
        self.chains[g] = _chain_step(self.chains[g], ops)
        ops = _hermitian_part(ops)
        total = self.totals[g]
        # The running sum leads the chunk, so one sum over the message axis adds in message order.
        summed = ops if total is None else np.concatenate([total[..., None, :, :], ops], axis=-3)
        self.totals[g] = summed.sum(axis=-3)
        return ops

    def close(self) -> BlockStack:
        """The checked error outcome, a one-element list per batch entry."""
        if self.count == 0:
            raise PreconditionViolated("number of operators", 0, ">= 1")
        blocks, totals = [None] * len(self.index), [None] * len(self.index)
        for group, total in zip(self.groups, self.totals):
            error = _hermitian_part(np.eye(total.shape[-1]) - total)
            for c, t, e in zip(group, total, error):
                blocks[c], totals[c] = e[..., None, :, :], t + e
        error = BlockStack(tuple(blocks), self.index)
        _stack(error, "element", first=self.count)
        _check_elements(error, self.count)
        _check_sum(totals)
        return error


def sequential_decoder(projectors):
    """Effective POVM of projective tests applied in the given order: the one-chunk SequentialChain.

    Block-diagonal input runs the chain block by block, and leading batch
    axes of a BlockStack index independent chains. The output has the
    input's form.
    """
    chain = SequentialChain()
    elements = chain.advance(projectors)
    return _returned(elements, chain.close(), not isinstance(projectors, BlockStack))


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


def _batch_entries(trials: int, M: int, n: int, d: int, lead: int, states: int, chunk: int | None = None) -> int:
    """Float64 entries that a batch of ``trials`` trials of M messages holds at its largest phase.

    A message's decode operator sums ``lead`` codeword projectors, and its
    traces contract against ``lead`` lists of ``states`` states per slot: K
    bins and K lists of |S| states for a binned trial, one codeword and one
    state for a causal one. ``chunk`` is None for the square-root decoder,
    which decodes each list whole, and the messages per chunk of the
    sequential chain (SequentialChain), which is fed C = chunk messages of
    every list at a time; C = M for the square-root decoder. With T = trials,
    E = sum_f |f|^2 and F = max_f |f|^2 over the frequency classes f of n
    slots, the phases are:

    - gathering codeword projectors: T lead C (E + F + 2 d^n) + 4 F +
      (3 n + 2) d^n, the distinct words' stack, the words' int64 gather
      indices and the slice of them for one letter type (at most d^n
      entries per word each), the gathered block of the class being read
      (at most F per word), and one letter type's build, shared by the
      batch: its class block with one letter's int64 indices, mask and
      factor (4 F), and three d^n index arrays per letter, at most n letters;
    - building the decoder input: T C ((lead + 1) E + F), the distinct
      words' stack, the per-message sums and one class-block temporary;
    - decoding: for the square-root decoder T ((2M + 1) E + 3 (M + 1) F),
      each trial's decoder input and POVM with its error outcome,
      validate_povm's Cholesky copy and factor of the largest class, and
      one class block more for what peak RSS adds to the arrays (allocator
      slack, LAPACK copies); for the chain T C (2 E + 3 F), a chunk's input
      and elements with the same checks;
    - success traces: the elements, T (M + 1) E with the error outcome for
      the square-root decoder and T C E for the chain, and one chunk of
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
    batch, and T M lead traces each; the chain's 2 T E chain operators and
    running sums; and TABLE_SLACK entries of small arrays, cached letter
    class blocks and interpreter objects. At T = 1 this is one trial's footprint.
    """
    sizes = [words.size**2 for words in class_partition(d, n).words]
    E, F = sum(sizes), max(sizes)
    C = M if chunk is None else chunk
    per_message = _chunk_entries(d**n, d, [lead * states] + [states] * (n - 1))
    gather = trials * C * lead * (E + F + 2 * d**n) + 4 * F + (3 * n + 2) * d**n
    build = trials * C * ((lead + 1) * E + F)
    if chunk is None:
        decode = trials * ((2 * M + 1) * E + 3 * (M + 1) * F)
        elements, chain = trials * (M + 1) * E, 0
    else:
        decode, elements, chain = trials * C * (2 * E + 3 * F), trials * C * E, 2 * trials * E
    traces = elements + max(1, trials * C * E // per_message) * per_message
    matched = MATCHED_PAIR_ENTRIES * states**n * trials * M * lead
    tables = n * d**n + E + trials * M * lead * n + states**n * (n + trials * M * lead) + chain + TABLE_SLACK
    return tables + max(gather, build, decode, traces, matched)


def _messages_for_rate(rate: float, n: int, d: int, lead: int, states: int, chunk: int | None) -> int:
    """2^(n rate) messages, refused when one trial of them cannot fit the memory budget.

    The one check is _batch_entries of one trial of M messages, fed ``chunk``
    messages at a time: 1 for the sequential chain, None for the square-root
    decoder's whole list. Before M is formed, its log2 is bounded below by
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
        log2_bytes = math.log2(8 * _batch_entries(1, M, n, d, lead, states, chunk))
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


def simulate_noncausal_trial(
    ch: StateChannel,
    p_su: np.ndarray,
    strategy: np.ndarray,
    ctx: DecodeContext,
    K: int,
    M: int,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Binned-codebook rounds with the square-root decoder, one per generator, evaluated exactly.

    Returns a (T, 2) array, one (error, declare mass) row per generator in
    rngs; round t draws its codebook from rngs[t] alone, so its row does not
    depend on the other rounds. The blocklength and the matched-set radius
    are ctx.n and ctx.delta. State words are enumerated exhaustively; the
    encoder picks uniformly among the message's bins whose codeword matches
    the state word, and a declare (no bin matches) counts as a full error
    for its state mass. The T rounds share one projectors call, one
    batched decoder call and one _success_traces call.
    """
    n, delta = ctx.n, ctx.delta
    num_s = p_su.shape[0]
    if num_s**n > STATE_WORD_CAP:
        raise CapExceeded(f"|S|^n = {num_s**n} exceeds exact-evaluation cap {STATE_WORD_CAP}")
    counts = nearest_type(p_su.sum(axis=0), n)
    # (T, M, K, n): round t's bins of message m.
    words = np.stack([type_class_words(counts, (K, M), rng) for rng in rngs]).swapaxes(1, 2)
    T = len(words)
    s_digits = digit_table(num_s, n)
    mass = ch.p[s_digits].prod(axis=1)
    # The matched-set test runs before any decode operator is alive.
    members = matched_set_members(s_digits, words.reshape(-1, n), p_su, delta)
    members = members.reshape(-1, T, M, K).transpose(1, 2, 3, 0)
    elements = square_root_decoder(ctx.projectors(words.reshape(T * M, K, n)).reshape(T, M))[0].reshape(T * M)
    # rotated[u] stacks, in the basis frame, the output of every state letter under auxiliary letter u.
    rotated = ctx.rotate(letter_states(ch.tensor, strategy)).swapaxes(0, 1)
    # One (T M, K, |S|, d, d) stack per slot; traces[t, m, k] holds one trace per state word, in digit_table order.
    slots = [rotated[words[..., j].reshape(T * M, K)] for j in range(n)]
    traces = _success_traces(elements, slots).reshape(members.shape)
    del elements  # freed before the trace arithmetic
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
    against the product of per-letter averaged states. The T rounds advance
    one SequentialChain together, chunk messages at a time: each chunk is
    one projectors call, one advance and one _success_traces call, and its
    elements are dropped before the next.
    """
    n = ctx.n
    words = np.stack([_typical_words(q, n, M, ctx.delta, rng) for rng in rngs])
    T = len(words)
    rotated = ctx.rotate(derived_states)
    chain, traces = SequentialChain(), np.empty((T, M))
    for lo in range(0, M, chunk):
        part = words[:, lo : lo + chunk]
        elements = chain.advance(ctx.projectors(part.reshape(-1, 1, n)).reshape(T, -1)).reshape(-1)
        slots = [rotated[part[..., j].reshape(-1)][:, None] for j in range(n)]
        traces[:, lo : lo + chunk] = _success_traces(elements, slots).reshape(T, -1)
        del elements, slots  # freed before the next chunk is gathered
    chain.close()
    return np.column_stack([1.0 - _round_sums(traces) / M, np.zeros(T)])


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
    with the strategy f = columns.T, and is checked as that witness. Each
    (n, rate) point runs its trials in batches whose memory model stays
    within the curve's largest one-trial, whole-list footprint: the most
    trials for noncausal-sqrt, and for causal-sequential the most trials at
    one message per chunk with the most messages per chunk (within
    1 - STREAM_HEADROOM of the budget, where that is smaller). Trial t draws
    from rng_for(seed, scheme tag, n, rate index, t), so a row depends on
    neither the batching nor the chunking.
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
    # A point's plan starts from one message per chunk for the chain, the whole list for the square root.
    first_chunk = 1 if causal else None
    messages = [[_messages_for_rate(rate, n, ch.dim, lead, per_list, first_chunk) for rate in rates] for n in n_list]
    # Batches hold no more than the curve's largest one-trial, whole-list footprint. Where that
    # exceeds the budget the chain streams, and its chunks leave the budget's last STREAM_HEADROOM
    # to what the model does not count.
    cap = max(
        (_batch_entries(1, M, n, ch.dim, lead, per_list, M if causal else None)
         for n, counts in zip(n_list, messages) for M in counts),
        default=0,
    )
    if causal:
        cap = min(cap, int((1.0 - STREAM_HEADROOM) * memory_budget_bytes()) // 8)

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
            # The most trials whose batch model is within cap (at one message per chunk for the
            # chain), then the chain's most messages per chunk; the model grows with both.
            # At least one of each: one message per chunk of one trial always fits the budget.
            chunk = first_chunk
            size = max(1, bisect.bisect_right(
                range(1, trials + 1), cap, key=lambda t: _batch_entries(t, M, n, ch.dim, lead, per_list, chunk)
            ))
            if causal:
                chunk = max(1, bisect.bisect_right(
                    range(1, M + 1), cap, key=lambda c: _batch_entries(size, M, n, ch.dim, lead, per_list, c)
                ))
            batches = []
            for first in range(0, trials, size):
                rngs = [rng_for(seed, tag, n, r_idx, t) for t in range(first, min(first + size, trials))]
                batches.append(
                    simulate_causal_trial(states, q, ctx, M, rngs, chunk)
                    if causal
                    else simulate_noncausal_trial(ch, p_su, strat, ctx, K, M, rngs)
                )
            results = np.concatenate(batches)
            err, lo, hi = _mean_ci(results[:, 0])
            declares = float(np.mean(results[:, 1]))
            rows.append(SimRow(scheme, n, float(rate), 1 if causal else K, M, err, lo, hi, declares))
    return rows
