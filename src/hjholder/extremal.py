"""One-sided extremal operators m+/m- on symmetric matrices.

m+(X) is the maximum positive eigenvalue of X (zero if none) and m-(X) the
minimum negative eigenvalue (zero if none).  Every operator takes one d x d
matrix or a stack (..., d, d) of them.  1x1 and 2x2 eigenvalues come in
closed form (the 2x2 one from _mid_rad, which the solver's m+/- fields and
its definiteness check share); d >= 3 uses LAPACK through
numpy.linalg.eigvalsh.  The tests check all of them against an independent
cyclic-Jacobi / trigonometric-cubic oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def _symmetrized(x) -> np.ndarray:
    """0.5 (a + a^T) of a finite (..., d, d) array with d >= 1; a scalar is 1x1."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        raise DomainError(f"expected square matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DomainError("matrix entries must be finite")
    return 0.5 * (a + a.swapaxes(-1, -2))


@dataclass(frozen=True)
class SymMatrix:
    """A d x d real symmetric matrix, symmetrized at construction."""

    entries: np.ndarray

    def __post_init__(self):
        a = _symmetrized(self.entries)
        if a.ndim != 2:
            raise DomainError(f"expected a square matrix, got shape {a.shape}")
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _mid_rad(h00, h11, h01):
    """Centre and radius of the eigenvalues of [[h00, h01], [h01, h11]], elementwise.

    The eigenvalues are mid - rad and mid + rad.
    """
    return 0.5 * (h00 + h11), np.hypot(0.5 * (h00 - h11), h01)


def sym_eigs(x) -> np.ndarray:
    """Eigenvalues in nondecreasing order along the last axis: (..., d, d) -> (..., d)."""
    a = x.entries if isinstance(x, SymMatrix) else _symmetrized(x)
    d = a.shape[-1]
    if d == 1:
        return a[..., 0, :1].copy()
    if d == 2:
        mid, rad = _mid_rad(a[..., 0, 0], a[..., 1, 1], a[..., 0, 1])
        ev = np.empty(a.shape[:-1])
        ev[..., 0] = mid - rad
        ev[..., 1] = mid + rad
        return ev
    return np.linalg.eigvalsh(a)


def _scalar_or_array(v):
    return float(v) if v.ndim == 0 else v


def m_plus(x):
    """Maximum positive eigenvalue, zero if none: a float, or an array of shape (...,)."""
    return _scalar_or_array(np.maximum(sym_eigs(x)[..., -1], 0.0))


def m_minus(x):
    """Minimum negative eigenvalue, zero if none: a float, or an array of shape (...,)."""
    return _scalar_or_array(np.minimum(sym_eigs(x)[..., 0], 0.0))
