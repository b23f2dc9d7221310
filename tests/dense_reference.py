"""Dense reference decoders and decode projectors that the block forms are checked against.

The package keeps decode operators as class blocks in the decoding basis.
These build the same objects as plain d^n x d^n matrices in the product
frame, the way the package did before its block form: a letter's block
projector rotated by basis^(tensor t), a word's projector as the Kronecker
product of its letters' projectors put back on the word's slots, and both
decoders by dense matrix algebra. letter_block is a letter's projector as
one dense matrix in the basis frame, which the package no longer forms.
reference_projector builds a word's class blocks entry by entry from its
letters' class blocks at the word's own slots, in any slot order, with no
Kronecker product and no gather. dense scatters a BlockStack into plain
matrices, and paired moves plain matrices into quantum.product_traces'
slot-paired layout by one transpose, so the package's direct scatter
(BlockStack.paired) is checked against both.
"""

import numpy as np

from gpcq.coding import RANK_TOL
from gpcq.schur_weyl import block_projector, class_partition
from gpcq.util import digit_table


def kron_all(mats) -> np.ndarray:
    """Kronecker product of mats in order, folded left to right from a complex 1x1 one."""
    out = np.ones((1, 1), dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def scatter(blocks, index, dim: int) -> np.ndarray:
    """Class blocks of one operator placed on their index sets of a dim x dim matrix."""
    out = np.zeros((dim, dim), dtype=np.result_type(float, *blocks))
    for block, idx in zip(blocks, index):
        out[np.ix_(idx, idx)] = block
    return out


def dense(stack, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Operators lo..hi-1 of a BlockStack scattered into an (hi - lo, dim, dim) array."""
    parts = [b[lo:hi] for b in stack.blocks]
    out = np.zeros((parts[0].shape[0], stack.dim, stack.dim), dtype=np.result_type(*parts))
    for idx, part in zip(stack.index, parts):
        out[:, idx[:, None], idx[None, :]] = part
    return out


def paired(op, dims) -> np.ndarray:
    """Dense operators (..., D, D) on slots of dimensions dims, moved to product_traces' slot-paired layout (..., D²).

    The row and column digits of each slot are made adjacent by one
    transpose of the (..., d_1, ..., d_n, d_1, ..., d_n) view.
    """
    op = np.asarray(op)
    lead, n = op.shape[:-2], len(dims)
    axes = list(range(len(lead))) + [len(lead) + a for k in range(n) for a in (k, n + k)]
    return op.reshape(lead + tuple(dims) * 2).transpose(axes).reshape(lead + (op.shape[-1] ** 2,))


def to_product_frame(mat: np.ndarray, basis: np.ndarray, n: int) -> np.ndarray:
    rot = kron_all([basis] * n)
    return rot @ mat @ rot.conj().T


def to_basis_frame(mat: np.ndarray, basis: np.ndarray, n: int) -> np.ndarray:
    rot = kron_all([basis] * n)
    return rot.conj().T @ mat @ rot


def letter_block(ctx, u: int, t: int) -> np.ndarray:
    """Letter u's block projector on t slots of a DecodeContext as one dense real d^t x d^t matrix in the basis frame.

    Its class blocks from block_projector at radius n*delta/t, placed on
    their words, and 0 wherever two words lie in different classes or in a
    class the projector leaves out.
    """
    part = class_partition(ctx.d, t)
    blocks = block_projector(ctx.states[u], ctx.basis, t, ctx.n * ctx.delta / t)
    return scatter(list(blocks.values()), [part.words[c] for c in blocks], ctx.d**t)


def dense_block_projector(rho, basis, m: int, radius: float) -> np.ndarray:
    """block_projector as one d^m x d^m matrix in the product frame."""
    d = rho.shape[0]
    part = class_partition(d, m)
    blocks = block_projector(rho, basis, m, radius)
    core = scatter([blocks[c] for c in blocks], [part.words[c] for c in blocks], d**m)
    mat = to_product_frame(core, basis, m)
    return 0.5 * (mat + mat.conj().T)


def dense_projector(ctx, u_seq) -> np.ndarray:
    """A word's decoding projector in the product frame: Kronecker product of its letters' block projectors."""
    u_seq = np.asarray(u_seq, dtype=np.int64)
    order = np.argsort(u_seq, kind="stable")
    letters, sizes = np.unique(u_seq, return_counts=True)
    mat = kron_all(
        dense_block_projector(ctx.states[u], ctx.basis, t, ctx.n * ctx.delta / t)
        for u, t in zip(letters, sizes)
    )
    tensor = mat.reshape((ctx.d,) * (2 * ctx.n))
    inv = np.argsort(order)
    axes = list(inv) + [ctx.n + a for a in inv]
    return np.transpose(tensor, axes=axes).reshape(ctx.d**ctx.n, ctx.d**ctx.n)


def reference_projector(ctx, u_seq) -> tuple[np.ndarray, ...]:
    """A word's class blocks, aligned with ctx.partition.words, from its letters' class blocks at the word's own slots.

    The entry at two product words is the product, over the word's letters
    in ascending order, of the letter's block_projector entry at the two
    words' restrictions to the slots holding that letter. It is zero when
    the restrictions fall in different classes of the letter's partition or
    in a class the letter's projector leaves out.
    """
    u_seq = np.asarray(u_seq, dtype=np.int64).reshape(-1)
    digits = digit_table(ctx.d, ctx.n)
    letters = []
    for u in np.unique(u_seq):
        slots = np.flatnonzero(u_seq == u)
        t = slots.size
        blocks = block_projector(ctx.states[u], ctx.basis, t, ctx.n * ctx.delta / t)
        letters.append((slots, class_partition(ctx.d, t), blocks))
    out = []
    for words in ctx.partition.words:
        block = np.ones((words.size,) * 2)
        for slots, part, blocks in letters:
            sub = digits[words][:, slots] @ ctx.d ** np.arange(slots.size - 1, -1, -1)
            entries = np.zeros_like(block)
            for c, letter_block in blocks.items():
                rows = np.flatnonzero(part.label[sub] == c)
                pos = np.searchsorted(part.words[c], sub[rows])
                entries[np.ix_(rows, rows)] = letter_block[np.ix_(pos, pos)]
            block = block * entries
        out.append(block)
    return tuple(out)


def product_frame_elements(stack, basis, n: int) -> list[np.ndarray]:
    """Every operator of a BlockStack on n slots, as a dense matrix in the product frame."""
    return [to_product_frame(mat, basis, n) for mat in dense(stack)]


def square_root_decoder(projectors):
    """Dense square-root measurement: elements S P_m S with S the inverse square root of the sum on its support."""
    mats = [np.asarray(m, dtype=complex) for m in projectors]
    dim = mats[0].shape[0]
    vals, vecs = np.linalg.eigh(sum(mats))
    top = float(vals.max(initial=0.0))
    if top <= 0.0:
        return [np.zeros((dim, dim), dtype=complex) for _ in mats], np.eye(dim, dtype=complex)
    support = vals > RANK_TOL * top
    inv_sqrt = np.zeros_like(vals)
    inv_sqrt[support] = vals[support] ** -0.5
    smoother = (vecs * inv_sqrt[None, :]) @ vecs.conj().T
    elements = [smoother @ m @ smoother for m in mats]
    elements = [0.5 * (e + e.conj().T) for e in elements]
    d0 = np.eye(dim, dtype=complex) - vecs[:, support] @ vecs[:, support].conj().T
    return elements, 0.5 * (d0 + d0.conj().T)


def sequential_decoder(projectors):
    """Dense sequential measurement: P_m conjugated by the complements of the earlier tests."""
    mats = [np.asarray(m, dtype=complex) for m in projectors]
    eye = np.eye(mats[0].shape[0], dtype=complex)
    chain = eye.copy()
    elements = []
    for m in mats:
        elements.append(chain.conj().T @ m @ chain)
        chain = (eye - m) @ chain
    elements = [0.5 * (e + e.conj().T) for e in elements]
    d0 = eye - sum(elements)
    return elements, 0.5 * (d0 + d0.conj().T)
