"""Density-operator arithmetic and entropic functionals.

All logarithms are base two. Every entropy in the package, of a pmf or of a
spectrum, is evaluated by entropy_bits: -sum x log2 x over the last axis,
with negative entries (eigenvalue round-off) clipped to zero and 0 log 0 = 0.
Its per-entry terms are xlogx_bits, for a caller that sums one pass over a
stack of spectra in several ways.
von_neumann_entropy and relative_entropy take one matrix or a stack of them,
so a solver gets all letter entropies, or all divergences D(rho_u || sigma)
from one eigendecomposition of sigma (divergence_profile), in one call.
Support is judged by one rule: sigma's eigenvalues at or below TAU_SUPP span
its kernel, and rho lies outside the support when it puts more than TAU_SUPP
of its trace there. Eigendecomposition of Hermitian matrices is the only
spectral primitive; matrix logarithms are always formed spectrally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BasisNotOrthonormal,
    DimensionMismatch,
    NonFinite,
    NotHermitian,
    NotPSD,
    TraceNotOne,
)

TAU_HERM = 1e-9
TAU_TR = 1e-9
TAU_EIG = 1e-9
TAU_SUPP = 1e-10


def validate_density(mat, *, context: str = "") -> np.ndarray:
    """Check Hermiticity, positivity and unit trace; return the checked complex matrix.

    Raises NonFinite / NotHermitian / NotPSD / TraceNotOne / DimensionMismatch
    with the offending magnitude in the message. ``context`` is prepended so channel
    validation can name the (state, input) pair that failed.
    """
    m = np.asarray(mat, dtype=complex)
    tag = f"{context}: " if context else ""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{tag}expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFinite(f"{tag}entries must be finite numbers")
    herm_gap = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if herm_gap > TAU_HERM:
        raise NotHermitian(f"{tag}|M - M*| = {herm_gap:.3e} exceeds {TAU_HERM:.0e}")
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > TAU_TR:
        raise TraceNotOne(f"{tag}trace = {tr!r}", trace=tr)
    vals = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    if vals[0] < -TAU_EIG:
        raise NotPSD(f"{tag}most negative eigenvalue {vals[0]:.3e}", eigenvalue=float(vals[0]))
    return m


def product_traces(op, slot_states) -> np.ndarray:
    """Every tr(op · σ_1 ⊗ ... ⊗ σ_n) with σ_k taken from the k-th slot's stack.

    slot_states[k] has shape (..., L_k, d_k, d_k), and op (..., D²), D the
    product of the d_k, holds each operator in the slot-paired layout: its
    entry at row a and column b, both digit words in util.digit_table order,
    sits at position sum_k (a_k d_k + b_k) prod_{l>k} d_l², so every slot's
    row and column digit are adjacent (BlockStack.paired scatters into it).
    Leading axes broadcast against each other and index independent
    operators: the result has shape (*batch, L_1, ..., L_n), the first slot
    the most significant candidate index, the order of util.digit_table.
    op is contracted one slot at a time, each slot one matmul on contiguous
    reshapes: no product state is formed and op is never reordered (matmul
    casts a real op once when the states are complex).
    """
    stacks = [np.asarray(s) for s in slot_states]
    if any(s.ndim < 3 or s.shape[-1] != s.shape[-2] for s in stacks):
        raise DimensionMismatch("each slot must be a stack of square matrices, shape (..., L, d, d)")
    size = math.prod(s.shape[-1] ** 2 for s in stacks)
    op = np.asarray(op)
    if op.ndim < 1 or op.shape[-1] != size:
        raise DimensionMismatch(f"operator shape {op.shape} is not a paired operator of {size} entries")
    # Axes (*batch, lead, rest): the candidates of the slots contracted so
    # far, then the paired entries of the slots after them.
    out = op[..., None, :]
    for s in stacks:
        d = s.shape[-1]
        # pairs[l, i d + j] = σ_l[j, i]: op's row digit i meets σ's column, its column digit j σ's row.
        pairs = s.swapaxes(-1, -2).reshape(s.shape[:-2] + (d * d,))
        out = pairs[..., None, :, :] @ out.reshape(out.shape[:-1] + (d * d, out.shape[-1] // (d * d)))
        out = out.reshape(out.shape[:-3] + (out.shape[-3] * out.shape[-2], out.shape[-1]))
    return out.reshape(out.shape[:-2] + tuple(s.shape[-3] for s in stacks))


@dataclass(frozen=True)
class BlockStack:
    """N operators on one space, block diagonal over one partition of its basis.

    ``blocks[c]`` has shape (*batch, N, s_c, s_c): block c of every operator,
    on the basis indices ``index[c]``. Leading batch axes, the same for every
    block, index independent lists of N operators. The index sets are
    disjoint and cover range(dim), so a dense matrix is the one-block case.
    """

    blocks: tuple[np.ndarray, ...]
    index: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.blocks) != len(self.index) or any(
            b.ndim < 3 or b.shape[-2:] != (i.size, i.size) or b.shape[:-2] != self.blocks[0].shape[:-2]
            for b, i in zip(self.blocks, self.index)
        ):
            raise DimensionMismatch("blocks must be (*batch, N, s_c, s_c) stacks on index sets of sizes s_c")

    @property
    def dim(self) -> int:
        return sum(idx.size for idx in self.index)

    def __len__(self) -> int:
        """N, the operators in each list."""
        return self.blocks[0].shape[-3]

    def reshape(self, *lead: int) -> BlockStack:
        """The same operators with their leading (batch and list) axes reshaped to ``lead``."""
        return BlockStack(tuple(b.reshape(*lead, *b.shape[-2:]) for b in self.blocks), self.index)

    def paired(self, pairs: tuple[np.ndarray, ...], lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Operators lo..hi-1 scattered into an (hi - lo, dim²) array in product_traces' slot-paired layout.

        The stack has no batch axes; pairs[c] holds index set c's positions in
        that layout (slot_pairs), so each block is one fancy assignment.
        """
        parts = [b[lo:hi] for b in self.blocks]
        out = np.zeros((parts[0].shape[0], self.dim**2), dtype=np.result_type(*parts))
        for pos, part in zip(pairs, parts):
            out[:, pos] = part
        return out


def slot_pairs(index: tuple[np.ndarray, ...], d: int) -> tuple[np.ndarray, ...]:
    """Each index set's (s, s) positions in product_traces' slot-paired layout, for BlockStack.paired.

    The sets cover range(dim), and dim must be a power of d, every slot's
    dimension. Entry (a, b) goes to d spread[a] + spread[b], where
    spread[a] = sum_k a_k (d²)^(n-k) reads a's base-d digits in base d², so
    no dim x dim index table is formed.
    """
    dim = sum(idx.size for idx in index)
    spread = np.zeros(1, dtype=np.int64)
    while spread.size < dim and d > 1:
        spread = (spread[:, None] * (d * d) + np.arange(d)).reshape(-1)
    if spread.size != dim:
        raise DimensionMismatch(f"dimension {dim} is not a power of {d}")
    return tuple(d * spread[idx][:, None] + spread[idx] for idx in index)


def spectrum(rho) -> np.ndarray:
    """Eigenvalues sorted in non-increasing order, roundoff negatives clipped."""
    vals = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    vals = np.clip(vals, 0.0, None)
    return vals[::-1].copy()


def xlogx_bits(x) -> np.ndarray:
    """x log2 x entrywise, the terms entropy_bits sums; negatives count as 0 and 0 log 0 = 0."""
    x = np.maximum(np.asarray(x, dtype=float), 0.0)
    return x * np.log2(x + (x == 0))


def entropy_bits(x) -> np.ndarray:
    """-sum x log2 x over the last axis, in bits; negatives count as 0 and 0 log 0 = 0."""
    return -np.add.reduce(xlogx_bits(x), axis=-1)


def shannon_entropy(p) -> float:
    """H(p) in bits; accepts any nonnegative vector summing to ~1."""
    return float(entropy_bits(p))


def kl_divergence(p, q) -> float:
    """Relative entropy D(p||q) in bits; +inf when supp(p) is not in supp(q)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise DimensionMismatch(f"shapes {p.shape} and {q.shape} differ")
    mask = p > 0
    if np.any(q[mask] <= 0):
        return math.inf
    return float(np.sum(p[mask] * (np.log2(p[mask]) - np.log2(q[mask]))))


def von_neumann_entropy(rho) -> float | np.ndarray:
    """S(rho) = -tr(rho log rho) in bits; a stack (..., d, d) gives an array of entropies."""
    out = entropy_bits(np.linalg.eigvalsh(np.asarray(rho, dtype=complex)))
    return float(out) if out.ndim == 0 else out


def divergence_profile(states, sigma, entropies=None) -> tuple[float, np.ndarray]:
    """S(sigma) and D(rho || sigma) for every rho of a (..., d, d) stack, from one eigh of sigma.

    ``entropies`` are the states' own S(rho) when the caller already has them.
    A divergence is +inf when rho puts more than TAU_SUPP of its trace on
    the eigenvectors of sigma with eigenvalue at most TAU_SUPP.
    """
    vals, vecs = np.linalg.eigh(sigma)
    vals = np.maximum(vals, 0.0)
    if entropies is None:
        entropies = von_neumann_entropy(states)
    support = vals > TAU_SUPP
    log_vals = np.log2(vals, out=np.zeros_like(vals), where=support)
    overlaps = np.maximum(np.einsum("ji,...ji->...i", vecs.conj(), states @ vecs).real, 0.0)
    kernel_mass = overlaps[..., ~support].sum(axis=-1)
    cross = overlaps[..., support] @ log_vals[support]
    return float(entropy_bits(vals)), np.where(kernel_mass > TAU_SUPP, np.inf, -entropies - cross)


def relative_entropy(rho, sigma) -> float | np.ndarray:
    """Quantum relative entropy D(rho||sigma) in bits, +inf off the support of sigma.

    rho may be a stack (..., d, d) against one sigma; it then gives an array.
    """
    r = np.asarray(rho, dtype=complex)
    s = np.asarray(sigma, dtype=complex)
    if s.ndim != 2 or r.shape[-2:] != s.shape:
        raise DimensionMismatch(f"shapes {r.shape} and {s.shape} differ")
    _, div = divergence_profile(r, s)
    return float(div) if div.ndim == 0 else div


def trace_distance(rho, sigma) -> float:
    """Sum of absolute eigenvalues of rho - sigma (ranges over [0, 2])."""
    r = np.asarray(rho, dtype=complex)
    s = np.asarray(sigma, dtype=complex)
    if r.shape != s.shape:
        raise DimensionMismatch(f"shapes {r.shape} and {s.shape} differ")
    vals = np.linalg.eigvalsh(r - s)
    return float(np.sum(np.abs(vals)))


def _ensemble_arrays(q, ensemble) -> tuple[np.ndarray, np.ndarray]:
    """(weights, states) as aligned arrays."""
    weights = np.asarray(q, dtype=float)
    states = [np.asarray(m, dtype=complex) for m in ensemble]
    if len(states) != weights.size:
        raise DimensionMismatch(
            f"{weights.size} weights but {len(states)} states"
        )
    dims = {m.shape for m in states}
    if len(dims) > 1:
        raise DimensionMismatch(f"mixed state shapes {sorted(dims)}")
    return weights, np.stack(states)


def holevo_quantity(q, ensemble) -> float:
    """chi(q, ensemble) = S(sum_u q(u) rho_u) - sum_u q(u) S(rho_u)."""
    weights, states = _ensemble_arrays(q, ensemble)
    avg = np.einsum("u,uij->ij", weights, states)
    return von_neumann_entropy(avg) - float(weights @ von_neumann_entropy(states))


def pinch(rho, basis: np.ndarray) -> np.ndarray:
    """Diagonal of rho in the given orthonormal basis, as a pmf.

    ``basis`` holds the basis vectors as columns. Orthonormality is enforced
    within TAU_HERM.
    """
    r = np.asarray(rho, dtype=complex)
    b = np.asarray(basis, dtype=complex)
    if b.shape != r.shape:
        raise DimensionMismatch(f"basis shape {b.shape} vs state shape {r.shape}")
    gram_gap = float(np.max(np.abs(b.conj().T @ b - np.eye(b.shape[0]))))
    if gram_gap > TAU_HERM:
        raise BasisNotOrthonormal(f"|B*B - I| = {gram_gap:.3e}")
    diag = np.real(np.einsum("ij,jk,ki->i", b.conj().T, r, b))
    diag = np.clip(diag, 0.0, None)
    return diag / diag.sum()


def eigenbasis(rho) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors-as-columns), in descending eigenvalue order."""
    vals, vecs = np.linalg.eigh(np.asarray(rho, dtype=complex))
    return np.clip(vals[::-1].copy(), 0.0, None), vecs[:, ::-1].copy()
