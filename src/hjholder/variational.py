"""Legendre transforms of power Hamiltonians and the Hopf-Lax/Lax-Oleinik
variational evaluator over parabolic boundary data.

For H(xi) = shift + A|xi|^p the Legendre transform is
    L(r) = -shift + c_p A^{1-p'} |r|^{p'},  c_p = (p-1) p^{-p'},
and the solution of v_t + H(Dv) = 0 on a cylinder is the minimum over the
parabolic boundary of v(y,s) + (t-s) L((x-y)/(t-s)).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, EmptyBoundary, SearchFailed, WindowTooSmall
from .oscillation import _is_integer

if TYPE_CHECKING:  # barriers imports this module
    from .barriers import SupersolutionBarrier

TAU_MIN = 1e-9  # hopf_lax_eval skips candidates with t - s < TAU_MIN
N_LATERAL_TIMES = 65  # lateral-boundary sample times
N_ANGLES = 64  # lateral-boundary sample directions for d = 2


@dataclass(frozen=True)
class PowerLagrangian:
    """L(r) = shift + c_p * coeff_A_power * |r|^{p_prime}."""

    c_p: float
    p_prime: float
    coeff_A_power: float
    shift: float

    def __post_init__(self):
        if not self.c_p > 0 or not self.p_prime > 1 or not self.coeff_A_power > 0:
            raise DomainError("PowerLagrangian needs c_p > 0, p' > 1, coeff > 0")

    def value_at_speed(self, speed):
        """Evaluate L at velocity magnitude(s) |r| = speed."""
        s = np.asarray(speed, dtype=float)
        out = self.shift + self.c_p * self.coeff_A_power * np.abs(s) ** self.p_prime
        return float(out) if np.isscalar(speed) else out

    def __call__(self, r):
        v = np.asarray(r, dtype=float)
        speed = np.abs(v) if v.ndim == 0 else np.linalg.norm(v, axis=-1)
        return self.value_at_speed(speed)


def legendre_closed(p: float, A: float, shift: float = 0.0) -> PowerLagrangian:
    """Legendre transform of xi -> shift + A|xi|^p in closed form.

    The coefficient c_p = (p-1) * p^{-p'} is validated against the
    brute-force transform in the test suite rather than trusted.  A p' that
    rounds to 1, or an A^{1-p'} that overflows or underflows to 0, raises
    SearchFailed.
    """
    if not p > 1.0:
        raise DomainError(f"p must be > 1, got {p}")
    if not A > 0.0:
        raise DomainError(f"A must be > 0, got {A}")
    p_prime = p / (p - 1.0)
    c_p = (p - 1.0) * p ** (-p_prime)
    try:
        coeff = A ** (1.0 - p_prime)
    except OverflowError:
        coeff = math.inf
    if not (p_prime > 1.0 and 0.0 < coeff < math.inf):
        raise SearchFailed(f"the Legendre transform for p={p}, A={A} leaves the float "
                           f"range (p' = {p_prime:g})")
    return PowerLagrangian(c_p, p_prime, coeff, -shift)


def _line_samples(R: float, n: int):
    """(at, m) for the n samples np.linspace(-R, R, n), without building them.

    at(i) gives the samples at an ascending integer array i, with linspace's
    bits, and m = np.searchsorted(samples, 0.0).  linspace takes
    delta = R - (-R) and step = delta / (n - 1); sample i is i * step - R, or
    (i / (n - 1)) * delta - R when step is 0 (a subnormal window), and the
    last is R.  These are float64 operations, done as ufuncs on an array or
    in Python floats on one index, with the same bits, and no warning where
    2R overflows.  Then step is inf, sample 0 is nan and the others are inf,
    bar the last: no sample is below 0, and m = 0.  Otherwise the samples
    below 0 are a prefix, found by bisection.
    """
    start, div = -R, n - 1
    delta = R - start
    step = delta / div

    def one(i: int) -> float:
        if i == div:
            return R
        return (i / div * delta if step == 0.0 else i * step) + start

    def at(i: np.ndarray) -> np.ndarray:
        x = i.astype(float)
        with np.errstate(invalid="ignore"):  # 0 * inf where 2R overflows
            if step == 0.0:
                x /= div
                x *= delta
            else:
                x *= step
        x += start
        if i.size and i[-1] == div:
            x[-1] = R
        return x

    return at, bisect.bisect_left(range(n), True, key=lambda i: not one(i) < 0.0)


def legendre_brute(
    p: float,
    A: float,
    shift: float,
    q,
    search_radius: float,
    n_samples: int = 200_000,
) -> float:
    """max over sampled xi of q.xi - (shift + A|xi|^p).

    Independent sampling oracle for legendre_closed.  For the radial H the
    maximizer is collinear with q, so the search runs along the line through q
    (any line when q = 0), sampled at the n_samples points
    np.linspace(-R, R, n_samples) with R = search_radius, n_samples an
    integer >= 100.  Raises WindowTooSmall when the sampled maximum sits on
    the window edge, or when the width 2R is not a finite float.

    Only the half-line s >= 0 is scored at first: a sample s < 0 scores
    |q| s - (shift + A|s|^p) <= -shift, so a half-line maximum above -shift is
    the maximum of the whole line, at the same first index.  Otherwise (q = 0,
    nan, or a shift that swamps every sample) the half s < 0 is scored too, for
    the line's first largest score, a NaN counting as largest.

    A half of L samples is bracketed, then scored: first every isqrt(L)-th
    sample and its last one, then every sample between the coarse winner's
    two neighbours.  For p > 1 and A > 0 the score f(s) = |q| s - shift -
    A|s|^p is concave, so for samples a < b < c, f(b) >= min(f(a), f(c)).
    With a power good to k ulp, each computed score is within e <= (k + 3) u M
    of f, where u = 2^-53 and M = |q| R + A R^p + |shift|; so 2e < 16 ulp(M)
    for k up to about 5.  numpy's power measured 1.0 ulp against one libm;
    another implementation (SVML on AVX-512 builds, say) has its own error
    bound, and the guard holds while that stays under about 5 ulp.
    When the bracket's first largest score beats each coarse neighbour that
    bounds it by more than 16 ulp(M), no sample outside scores as much, and it is
    the half's first largest.  When it does not, or a coarse score is not
    finite, the whole half is scored.  Either way the winner, its index and
    its bits are those of scoring every sample; nothing is taken from the
    closed form.

    Memory: only the samples that are scored are built, each by linspace's
    rule (_line_samples), and their scores are built over them in place:
    about 2 sqrt(n) values when the brackets decide, or the samples of a half
    and one penalty array of its length when it is scored whole.  A score is
    |q| s - (shift + A|s|^p) by the same ufuncs on the same operands (|s|,
    ** p, * A, + shift; then s * |q| minus the penalty), so a sample has the
    same bits in the coarse, bracket and whole passes.
    """
    if not p > 1.0 or not A > 0.0:
        raise DomainError(f"need p > 1 and A > 0, got p={p}, A={A}")
    if not _is_integer(n_samples):
        raise DomainError(f"n_samples must be an integer, got {n_samples!r}")
    if n_samples < 100:
        raise DomainError(f"n_samples must be >= 100, got {n_samples}")
    if not search_radius > 0.0:
        raise DomainError("search_radius must be positive")
    if not math.isfinite(2.0 * float(search_radius)):  # linspace's width 2R
        raise WindowTooSmall(f"the search window |xi| <= {search_radius:g} cannot be sampled")
    qv = np.atleast_1d(np.asarray(q, dtype=float))
    qnorm = float(np.linalg.norm(qv))
    R, n = float(search_radius), int(n_samples)
    sample, m = _line_samples(R, n)  # s[m] is the first sample not below 0
    try:  # above twice any score's rounding error, as |s| <= R
        tol = 16.0 * math.ulp(qnorm * R + A * R**p + abs(shift))
    except OverflowError:  # then the score at |s| = R overflows too
        tol = math.inf

    def scores(i: np.ndarray) -> np.ndarray:
        """The scores of the samples at the ascending indices i."""
        h = sample(i)
        # a penalty that overflows is inf, a sample that is never the maximum;
        # a maximum on the window edge is reported below
        with np.errstate(over="ignore"):
            pen = np.abs(h)
            pen **= p
            pen *= A
            pen += shift
            vals = np.multiply(h, qnorm, out=h)
            vals -= pen
        return vals

    def score(lo: int, hi: int) -> tuple:
        """(index, value) of the first largest score in s[lo:hi], as argmax finds it."""
        at = np.append(np.arange(lo, hi - 1, math.isqrt(hi - lo)), hi - 1)
        coarse = scores(at)
        if np.isfinite(coarse).all():
            j = int(np.argmax(coarse))
            left, right = max(j - 1, 0), min(j + 1, len(at) - 1)
            vals = scores(np.arange(at[left], at[right] + 1))
            i = int(np.argmax(vals))
            top = float(vals[i])
            if ((left == j or top - coarse[left] > tol)
                    and (right == j or top - coarse[right] > tol)):
                return int(at[left]) + i, top
        vals = scores(np.arange(lo, hi))
        i = int(np.argmax(vals))
        return lo + i, float(vals[i])

    k, top = score(m, n)
    if not top > -shift:  # the other half comes first: it wins a tie, and with a NaN
        k_neg, top_neg = score(0, m)
        if top_neg >= top or math.isnan(top_neg):
            k, top = k_neg, top_neg
    if k in (0, n - 1) and qnorm > 0.0:
        try:
            xi_star = (qnorm / (p * A)) ** (1.0 / (p - 1.0))
        except OverflowError:  # p close to 1
            xi_star = math.inf
        raise WindowTooSmall(f"maximizer on the window edge; |xi*|={xi_star:g}")
    return top


@dataclass(frozen=True)
class BoundarySamples:
    """Sampled values on a parabolic boundary: points (n, d), times and values (n,)."""

    points: np.ndarray
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        ts = np.asarray(self.times, dtype=float).ravel()
        vals = np.asarray(self.values, dtype=float).ravel()
        if not (pts.shape[0] == ts.shape[0] == vals.shape[0]):
            raise DomainError("points, times and values must have equal length")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "times", ts)
        object.__setattr__(self, "values", vals)


def sample_parabolic_boundary(
    value_fn,
    R: float,
    t0: float,
    t1: float,
    d: int = 1,
    bottom_spacing: float = 1.0 / 64,
) -> BoundarySamples:
    """Uniform samples of value_fn on the parabolic boundary of B_R x [t0, t1].

    The bottom ball grid always contains the origin; the lateral boundary is
    a product grid of N_LATERAL_TIMES times and two endpoints (d = 1) or
    N_ANGLES angle-uniform directions (d = 2).
    """
    if d not in (1, 2):
        raise DomainError(f"boundary sampling supports d in {{1, 2}}, got {d}")
    n_half = max(1, round(R / bottom_spacing))
    if d == 1:
        ys = np.linspace(-R, R, 2 * n_half + 1).reshape(-1, 1)
        lateral_pts = np.array([[-R], [R]])
    else:
        ax = np.linspace(-R, R, 2 * n_half + 1)
        gx, gy = np.meshgrid(ax, ax, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
        ys = pts[np.linalg.norm(pts, axis=-1) <= R]
        ang = np.linspace(0.0, 2.0 * math.pi, N_ANGLES, endpoint=False)
        lateral_pts = R * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    lat_ts = np.linspace(t0, t1, N_LATERAL_TIMES)
    points = [ys]
    times = [np.full(len(ys), t0)]
    for t in lat_ts:
        points.append(lateral_pts)
        times.append(np.full(len(lateral_pts), t))
    pts = np.concatenate(points, axis=0)
    ts = np.concatenate(times, axis=0)
    vals = np.array([value_fn(pt, t) for pt, t in zip(pts, ts)], dtype=float)
    return BoundarySamples(pts, ts, vals)


def hopf_lax_eval(
    boundary: BoundarySamples,
    lag: PowerLagrangian,
    x,
    t: float,
) -> float:
    """min over sampled (y, s) with s < t of  v(y,s) + (t-s) L((x-y)/(t-s)).

    Candidates with t - s < TAU_MIN are skipped: for y != x the cost blows up
    as s -> t, and y = x is recovered by earlier samples, so the floor cannot
    change the minimum on continuous data.
    """
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    keep = boundary.times <= t - TAU_MIN
    if not keep.any():
        raise EmptyBoundary(f"no boundary candidate with s <= t - {TAU_MIN:g}")
    dt = t - boundary.times[keep]
    disp = xv - boundary.points[keep]
    speed = np.linalg.norm(disp, axis=-1) / dt
    total = boundary.values[keep] + dt * lag.value_at_speed(speed)
    return float(total.min())


def power_law_solution(p: float, a: float, x, t: float) -> float | np.ndarray:
    """Exact solution u(x, t) = (a^{1-p} + c_p^{1-p} t)^{-1/(p-1)} |x|^{p'}
    of u_t + |Du|^p = 0 with u(x, 0) = a|x|^{p'}, for t >= 0.

    The Hopf-Lax minimum over y of a|y|^{p'} + t c_p |(x-y)/t|^{p'} is an
    infimal convolution of two multiples of |.|^{p'}, which is again one;
    c_p and p' come from legendre_closed.  At p = 2 it is |x|^2/(1 + 4t)
    for a = 1.  x is one point, of shape (d,), or an array of points of
    shape (..., d): one point gives a float, an array an array of shape
    x.shape[:-1].
    """
    if not (0.0 < a < math.inf and 0.0 <= t < math.inf):
        raise DomainError(f"need finite a > 0 and t >= 0, got a={a}, t={t}")
    lag = legendre_closed(p, 1.0)
    xv = np.asarray(x, dtype=float)
    one_point = xv.ndim <= 1
    radius = np.linalg.norm(np.atleast_1d(xv), axis=-1)
    scale = (a ** (1.0 - p) + lag.c_p ** (1.0 - p) * t) ** (-1.0 / (p - 1.0))
    u = scale * radius**lag.p_prime
    return float(u) if one_point else u


def semi_lax_upper_bound(
    bottom_points,
    bottom_values,
    bar: SupersolutionBarrier,
    eps: float,
    x,
    t: float,
) -> float | np.ndarray:
    """min over sampled y of  u(y,0) + U(x-y, t) + eps*t  with the barrier
    U(z,t) = C t^{-1/(p-1)} (|z|^2 + eta*t)^{p'/2} of `bar`.

    x is one point, of shape (d,), or an array of points of shape (..., d):
    one point gives a float, an array of points an array of shape x.shape[:-1],
    with the same bits as one point at a time.  An upper bound (not an
    identity) for subsolutions, valid for p > 2, which `bar` guarantees.
    """
    if not t > 0.0:
        raise DomainError(f"t must be > 0, got {t}")
    pts = np.atleast_2d(np.asarray(bottom_points, dtype=float))
    vals = np.asarray(bottom_values, dtype=float).ravel()
    if pts.shape[0] != vals.shape[0]:
        raise DomainError("bottom points and values must have equal length")
    xv = np.asarray(x, dtype=float)
    one_point = xv.ndim <= 1
    xv = np.atleast_1d(xv)
    if xv.shape[-1] != pts.shape[1]:  # numpy would broadcast one against the other
        raise DomainError(f"x has {xv.shape[-1]} coordinates, the bottom points {pts.shape[1]}")
    dist2 = np.sum((xv[..., None, :] - pts) ** 2, axis=-1)
    p, pp = bar.params.p, bar.params.p_prime
    barrier = bar.C * t ** (-1.0 / (p - 1.0)) * (dist2 + bar.eta * t) ** (pp / 2.0)
    bound = np.min(vals + barrier, axis=-1) + eps * t
    return float(bound) if one_point else bound
