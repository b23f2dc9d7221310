"""Density-operator arithmetic and entropic functionals.

All logarithms are base two and 0*log(0) is taken as zero. Eigendecomposition
of Hermitian matrices is the only spectral primitive used anywhere in the
package; matrix logarithms are always formed spectrally. Eigenvalues in
[-TAU_EIG, 0) produced by roundoff are clipped to zero before entropies are
evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

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

LOG2E = math.log2(math.e)


@dataclass(eq=False)
class Distribution:
    """Probability mass function over an ordered finite label set."""

    labels: tuple
    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        if len(self.labels) != self.probs.size:
            raise DimensionMismatch(
                f"{len(self.labels)} labels but {self.probs.size} masses"
            )
        if not np.all(np.isfinite(self.probs)):
            raise NonFinite("masses must be finite numbers")
        if np.any(self.probs < -TAU_TR):
            raise NotPSD(f"negative mass {self.probs.min():.3e}")
        total = float(self.probs.sum())
        if abs(total - 1.0) > TAU_TR:
            raise TraceNotOne(f"masses sum to {total!r}", total=total)
        self.probs = np.maximum(self.probs, 0.0)

    def mass(self, label) -> float:
        return float(self.probs[self.labels.index(label)])


def uniform_distribution(labels: Sequence) -> Distribution:
    k = len(labels)
    return Distribution(tuple(labels), np.full(k, 1.0 / k))


@dataclass(eq=False)
class DensityOperator:
    """Validated density matrix (Hermitian, positive semidefinite, unit trace)."""

    matrix: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        self.dim = self.matrix.shape[0]


def _as_matrix(rho) -> np.ndarray:
    if isinstance(rho, DensityOperator):
        return rho.matrix
    return np.asarray(rho, dtype=complex)


def validate_density(mat, *, context: str = "") -> DensityOperator:
    """Check Hermiticity, positivity and unit trace; return the wrapped operator.

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
    return DensityOperator(m)


def kron_all(mats) -> np.ndarray:
    """Kronecker product of mats in order, folded left to right from a complex 1x1 one."""
    out = np.ones((1, 1), dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def product_traces(op, slot_states) -> np.ndarray:
    """Every tr(op · σ_1 ⊗ ... ⊗ σ_n) with σ_k taken from the k-th slot's stack.

    slot_states[k] has shape (L_k, d_k, d_k) and op acts on the product of
    the slots. The (L_1, ..., L_n) result has the first slot as its most
    significant index, the order of util.digit_table. op is contracted one
    slot at a time, so no product state is formed.
    """
    stacks = [np.asarray(s) for s in slot_states]
    if any(s.ndim != 3 or s.shape[1] != s.shape[2] for s in stacks):
        raise DimensionMismatch("each slot must be a stack of square matrices, shape (L, d, d)")
    rest = math.prod(s.shape[1] for s in stacks)
    op = np.asarray(op)
    if op.shape != (rest, rest):
        raise DimensionMismatch(f"operator shape {op.shape} does not act on {rest}-dimensional slots")
    # Axes (i, I, j, J, lead): row and column of the current slot, of the
    # slots after it, and one axis over the candidates of the slots before.
    out = op.reshape(rest, rest, 1)
    for s in stacks:
        d = s.shape[1]
        rest //= d
        # tr(op · σ ⊗ τ) contracts op's row i with σ's column and its column j with σ's row.
        out = np.tensordot(out.reshape(d, rest, d, rest, -1), s, axes=([0, 2], [2, 1]))
        out = out.reshape(rest, rest, -1)
    return out.reshape([s.shape[0] for s in stacks])


def spectrum(rho) -> np.ndarray:
    """Eigenvalues sorted in non-increasing order, roundoff negatives clipped."""
    vals = np.linalg.eigvalsh(_as_matrix(rho))
    vals = np.clip(vals, 0.0, None)
    return vals[::-1].copy()


def shannon_entropy(p) -> float:
    """H(p) in bits; accepts any nonnegative vector summing to ~1."""
    p = np.asarray(p, dtype=float)
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def kl_divergence(p, q) -> float:
    """Relative entropy D(p||q) in bits; +inf when supp(p) is not in supp(q)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise DimensionMismatch(f"shapes {p.shape} and {q.shape} differ")
    mask = p > 0
    if np.any(q[mask] <= 0):
        return math.inf
    return float(np.sum(p[mask] * np.log2(p[mask] / q[mask])))


def von_neumann_entropy(rho) -> float:
    """S(rho) = -tr(rho log rho) in bits."""
    return shannon_entropy(spectrum(rho))


def relative_entropy(rho, sigma) -> float:
    """Quantum relative entropy D(rho||sigma) in bits.

    Returns +inf when the support of rho is not contained in the support of
    sigma, judged by eigenvalue threshold TAU_SUPP.
    """
    r = _as_matrix(rho)
    s = _as_matrix(sigma)
    if r.shape != s.shape:
        raise DimensionMismatch(f"shapes {r.shape} and {s.shape} differ")
    svals, svecs = np.linalg.eigh((s + s.conj().T) / 2.0)
    overlaps = np.real(np.einsum("ij,jk,ki->i", svecs.conj().T, r, svecs))
    overlaps = np.clip(overlaps, 0.0, None)
    kernel = svals <= TAU_SUPP
    if float(overlaps[kernel].sum()) > TAU_SUPP:
        return math.inf
    support = ~kernel
    cross = float(np.sum(overlaps[support] * np.log2(svals[support])))
    return -von_neumann_entropy(r) - cross


def trace_distance(rho, sigma) -> float:
    """Sum of absolute eigenvalues of rho - sigma (ranges over [0, 2])."""
    r = _as_matrix(rho)
    s = _as_matrix(sigma)
    if r.shape != s.shape:
        raise DimensionMismatch(f"shapes {r.shape} and {s.shape} differ")
    vals = np.linalg.eigvalsh(r - s)
    return float(np.sum(np.abs(vals)))


def _ensemble_arrays(q, ensemble) -> tuple[np.ndarray, np.ndarray]:
    """Normalize (weights, states) input forms to aligned arrays."""
    if isinstance(q, Distribution):
        weights = q.probs
        if isinstance(ensemble, Mapping):
            states = [
                _as_matrix(ensemble[label]) for label in q.labels
            ]
        else:
            states = [_as_matrix(m) for m in ensemble]
    else:
        weights = np.asarray(q, dtype=float)
        states = [_as_matrix(m) for m in ensemble]
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
    inner = sum(
        w * von_neumann_entropy(states[u]) for u, w in enumerate(weights) if w > 0
    )
    return von_neumann_entropy(avg) - inner


def holevo_via_divergence(q, ensemble) -> float:
    """Same functional through the identity chi = sum_u q(u) D(rho_u || avg)."""
    weights, states = _ensemble_arrays(q, ensemble)
    avg = np.einsum("u,uij->ij", weights, states)
    return sum(
        w * relative_entropy(states[u], avg)
        for u, w in enumerate(weights)
        if w > 0
    )


def pinch(rho, basis: np.ndarray) -> Distribution:
    """Diagonal of rho in the given orthonormal basis, as a distribution.

    ``basis`` holds the basis vectors as columns. Orthonormality is enforced
    within TAU_HERM.
    """
    r = _as_matrix(rho)
    b = np.asarray(basis, dtype=complex)
    if b.shape != r.shape:
        raise DimensionMismatch(f"basis shape {b.shape} vs state shape {r.shape}")
    gram_gap = float(np.max(np.abs(b.conj().T @ b - np.eye(b.shape[0]))))
    if gram_gap > TAU_HERM:
        raise BasisNotOrthonormal(f"|B*B - I| = {gram_gap:.3e}")
    diag = np.real(np.einsum("ij,jk,ki->i", b.conj().T, r, b))
    diag = np.clip(diag, 0.0, None)
    diag = diag / diag.sum()
    return Distribution(tuple(range(b.shape[0])), diag)


def eigenbasis(rho, descending: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors-as-columns), ordered by eigenvalue."""
    vals, vecs = np.linalg.eigh(_as_matrix(rho))
    if descending:
        vals = vals[::-1].copy()
        vecs = vecs[:, ::-1].copy()
    return np.clip(vals, 0.0, None), vecs
