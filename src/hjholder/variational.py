"""Legendre transforms of power Hamiltonians and the Hopf-Lax/Lax-Oleinik
variational evaluator over parabolic boundary data.

For H(xi) = shift + A|xi|^p the Legendre transform is
    L(r) = -shift + c_p A^{1-p'} |r|^{p'},  c_p = (p-1) p^{-p'},
and the solution of v_t + H(Dv) = 0 on a cylinder is the minimum over the
parabolic boundary of v(y,s) + (t-s) L((x-y)/(t-s)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EquationParams
from .errors import DomainError, EmptyBoundary, WindowTooSmall

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
    brute-force transform in the test suite rather than trusted.
    """
    if not p > 1.0:
        raise DomainError(f"p must be > 1, got {p}")
    if not A > 0.0:
        raise DomainError(f"A must be > 0, got {A}")
    p_prime = p / (p - 1.0)
    c_p = (p - 1.0) * p ** (-p_prime)
    return PowerLagrangian(c_p, p_prime, A ** (1.0 - p_prime), -shift)


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
    maximizer is collinear with q, so the search runs along the ray through q
    (any ray when q = 0).  Raises WindowTooSmall when the sampled maximum sits
    on the window edge.
    """
    if not p > 1.0 or not A > 0.0:
        raise DomainError(f"need p > 1 and A > 0, got p={p}, A={A}")
    if n_samples < 100:
        raise DomainError(f"n_samples must be >= 100, got {n_samples}")
    if not search_radius > 0.0:
        raise DomainError("search_radius must be positive")
    if math.isinf(search_radius):
        raise WindowTooSmall("the search window |xi| <= inf cannot be sampled")
    qv = np.atleast_1d(np.asarray(q, dtype=float))
    qnorm = float(np.linalg.norm(qv))
    s = np.linspace(-search_radius, search_radius, int(n_samples))
    vals = qnorm * s - (shift + A * np.abs(s) ** p)
    k = int(np.argmax(vals))
    if k in (0, len(s) - 1) and qnorm > 0.0:
        try:
            xi_star = (qnorm / (p * A)) ** (1.0 / (p - 1.0))
        except OverflowError:  # p close to 1
            xi_star = math.inf
        raise WindowTooSmall(f"maximizer on the window edge; |xi*|={xi_star:g}")
    return float(vals[k])


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


def semi_lax_upper_bound(
    bottom_points,
    bottom_values,
    C: float,
    eta: float,
    eps: float,
    params: EquationParams,
    x,
    t: float,
) -> float:
    """min over sampled y of  u(y,0) + U(x-y, t) + eps*t  with the barrier
    U(z,t) = C t^{-1/(p-1)} (|z|^2 + eta*t)^{p'/2}.

    An upper bound (not an identity) for subsolutions, valid for p > 2.
    """
    params.require_superquadratic("semi_lax_upper_bound")
    if not t > 0.0:
        raise DomainError(f"t must be > 0, got {t}")
    pts = np.atleast_2d(np.asarray(bottom_points, dtype=float))
    vals = np.asarray(bottom_values, dtype=float).ravel()
    if pts.shape[0] != vals.shape[0]:
        raise DomainError("bottom points and values must have equal length")
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    dist2 = np.sum((xv - pts) ** 2, axis=-1)
    p, pp = params.p, params.p_prime
    barrier = C * t ** (-1.0 / (p - 1.0)) * (dist2 + eta * t) ** (pp / 2.0)
    return float(np.min(vals + barrier) + eps * t)
