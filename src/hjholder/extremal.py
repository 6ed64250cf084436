"""One-sided extremal operators m+/m- on symmetric matrices.

m+(X) is the maximum positive eigenvalue of X (zero if none) and m-(X) the
minimum negative eigenvalue (zero if none).  Every operator takes one d x d
matrix or a stack (..., d, d) of them.  1x1 and 2x2 eigenvalues come in
closed form (the 2x2 one from _mid_rad, which the solver's m+/- fields and
its definiteness check share); d >= 3 uses LAPACK through
numpy.linalg.eigvalsh.  The tests check all of them against an independent
cyclic-Jacobi / trigonometric-cubic oracle.

The 2x2 radius is sqrt(x*x + y*y): several times cheaper than np.hypot and
within an ulp of it on random pairs.  Where a square could overflow or lose
bits to underflow, np.hypot takes over for that entry.  Entries are halved
before they are added, so no finite matrix overflows on the way and m+/- of
a finite matrix is never nan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# _mid_rad takes sqrt(s) for s = x*x + y*y in [_SQ_MIN, inf).  Below _SQ_MIN
# (2**-1022 * 2**53) a square may be subnormal or zero, and its rounding
# error is no longer negligible against s; s = inf means a square overflowed.
_SQ_MIN = 2.0**-969


def _symmetrized(x) -> np.ndarray:
    """(a + a^T) / 2 of a finite (..., d, d) array with d >= 1; a scalar is 1x1.

    Halving before adding cannot overflow, and gives the bits of 0.5 (a + a^T)
    outside the subnormal range.
    """
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        raise DomainError(f"expected square matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DomainError("matrix entries must be finite")
    half = 0.5 * a
    return half + half.swapaxes(-1, -2)


@dataclass(frozen=True)
class SymMatrix:
    """A d x d real symmetric matrix, symmetrized at construction."""

    entries: np.ndarray

    def __post_init__(self):
        a = _symmetrized(self.entries)
        if a.ndim != 2:
            raise DomainError(f"expected a square matrix, got shape {a.shape}")
        object.__setattr__(self, "entries", a)


def _mid_rad(h00, h11, h01, work=None):
    """Centre and radius of the eigenvalues of [[h00, h01], [h01, h11]], elementwise.

    The eigenvalues are mid - rad and mid + rad.  With x = h00/2 - h11/2 the
    radius is sqrt(x*x + h01*h01); entries whose sum of squares s leaves
    [_SQ_MIN, inf) get np.hypot(x, h01) instead.  So for finite entries the
    radius is within 2 ulp of hypot's, and inf only where hypot's is.  A
    stack is screened with two reductions (s.min(), s.max()) and patched
    only where needed; one matrix, as numpy scalars, with one comparison.
    Each entry's radius depends on that entry alone, so a matrix gets the
    same bits alone and inside a stack.  x and the centre a + b cannot
    overflow, since |h00/2| and |h11/2| are at most half the float range.

    A stack given work = (x, rad), two arrays of its shape, allocates
    nothing: h00 and h11 are overwritten, the centre comes back in h00 and
    the radius in rad.  Without work the entries are left as they were.
    """
    if work is None:
        a, b = 0.5 * h00, 0.5 * h11
    else:
        a, b = np.multiply(h00, 0.5, out=h00), np.multiply(h11, 0.5, out=h11)
    if isinstance(a, np.ndarray):
        x, rad = (np.empty_like(a), np.empty_like(a)) if work is None else work
        np.subtract(a, b, out=x)
        mid = np.add(a, b, out=a)
        # a square that overflows is inf, and so is a radius above the float range
        with np.errstate(over="ignore"):
            s = np.multiply(x, x, out=b)
            s += np.multiply(h01, h01, out=rad)  # the bits of x * x + h01 * h01
            outside = None
            if not (_SQ_MIN <= s.min() and s.max() < math.inf):
                outside = ~((s >= _SQ_MIN) & (s < math.inf))
            np.sqrt(s, out=rad)
            if outside is not None:
                np.hypot(x, h01, out=rad, where=outside)
        return mid, rad
    x, y = float(a - b), float(h01)  # Python floats overflow to inf without a warning
    s = x * x + y * y
    if _SQ_MIN <= s < math.inf:
        return a + b, math.sqrt(s)
    with np.errstate(over="ignore"):
        return a + b, np.hypot(x, y)


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
