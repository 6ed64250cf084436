"""Improvement-of-oscillation engine: dyadic-cylinder measurement, the
geometric-decay iteration, Holder-exponent fitting and the two-point modulus.

Geometric decay of osc over the cylinders Q_{lambda^k}(x, t) is equivalent to
Holder continuity; the iteration verifies  osc_{Q_{r_k}} u <= r_k^alpha  level
by level after renormalizing the outer oscillation to one, and a full pass
implies the two-point constant C = lambda^{-alpha}.

The decay hypothesis quantifies over all cylinders; the engine checks a
configurable finite family of centers (default: a coarse sub-grid of valid
centers), and every report records that gap.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import (
    EquationParams,
    GridFunction,
    HolderEstimate,
    ParabolicCylinder,
    cylinder_depth,
    require_float64_count,
)
from .errors import DegenerateData, DomainError, EmptyIntersection, PreconditionFailed
from .scaling import cylinder_exponent, time_exponent

logger = logging.getLogger(__name__)

NOISE_FLOOR = 1e-12
GRID_FLOOR_SPACINGS = 4  # smallest usable cylinder radius, in grid spacings
COARSE_CENTERS = 5  # default centers per space axis
MAX_LEVELS = 60
_PAIR_CHUNK = 8192  # random pairs scored at a time by holder_modulus_check
_SLAB_VALUES = 32768  # neighbour pairs per slab of leading-axis rows, at least one row
FAMILY_NOTE = (
    "decay verified on a finite family of cylinder centers, not on all "
    "cylinders of the continuum hypothesis"
)


def measure_oscillations(
    u: GridFunction,
    center,
    lam: float,
    beta: float,
    levels: int,
    r0: float = 1.0,
) -> list[tuple[float, float]]:
    """osc of u over Q_{r0 * lam^k}(center) for k = 0..levels.

    Truncates (with a log message) at the first level whose cylinder holds
    fewer than two grid nodes.  Oscillations are nonincreasing in k because
    the cylinders are nested.
    """
    if not (0.0 < lam < 1.0):
        raise DomainError(f"lambda must lie in (0,1), got {lam}")
    center = np.atleast_1d(np.asarray(center, dtype=float))
    cx, ct = center[:-1], float(center[-1])
    out = []
    for k in range(levels + 1):
        r = r0 * lam**k
        try:
            vals = u.values_in(ParabolicCylinder(tuple(cx), ct, r, beta))
            if len(vals) < 2:  # no oscillation to measure
                raise EmptyIntersection("outer cylinder holds 1 grid node(s)")
        except EmptyIntersection:
            if k == 0:
                raise
            logger.info("truncating at level %d: cylinder holds fewer than 2 nodes", k)
            break
        out.append((r, float(vals.max() - vals.min())))
    return out


def fit_holder(samples, min_radius: float = 0.0) -> HolderEstimate:
    """Least-squares fit of log osc = alpha * log r + log c.

    Samples at or below NOISE_FLOOR or below the minimum usable radius are
    dropped; at least 3 must survive.
    """
    usable = [(r, o) for r, o in samples if o > NOISE_FLOOR and r >= min_radius]
    if len(usable) < 3:
        raise DegenerateData(
            f"need >= 3 samples above floor {NOISE_FLOOR:g}, have {len(usable)}"
        )
    logr = np.log([r for r, _ in usable])
    logo = np.log([o for _, o in usable])
    slope, intercept = np.polyfit(logr, logo, 1)
    resid = float(np.max(np.abs(logo - (slope * logr + intercept))))
    return HolderEstimate(
        samples=tuple(usable),
        alpha_hat=float(slope),
        c_hat=float(math.exp(intercept)),
        max_fit_residual=resid,
    )


@dataclass(frozen=True)
class ModulusReport:
    """Worst two-point ratio |u(x,t)-u(y,s)| / (C[|x-y|^a + |t-s|^b])."""

    max_ratio: float
    argmax_a: tuple
    argmax_b: tuple
    alpha: float
    time_exp: float
    C: float
    n_pairs: int


def holder_modulus_check(
    u: GridFunction,
    alpha: float,
    C: float,
    p: float,
    n_random_pairs: int = 100_000,
    seed: int = 0,
) -> ModulusReport:
    """Verify |u(x,t) - u(y,s)| <= C [ |x-y|^alpha + |t-s|^{alpha/(p-alpha(p-1))} ]
    over random node pairs plus all nearest-neighbour pairs.

    The pairs are n_random_pairs random node pairs (a node drawn against
    itself is dropped), then every node and its next neighbour along space
    axis 0, ..., d-1, then in time; n_pairs counts them all.  The reported
    pair is the first largest ratio in that order, a NaN ratio counting as
    largest.  Needs p > 1, C finite and > 0, alpha in (0, 1], and
    n_random_pairs and seed non-negative integers (a bool is neither).

    Memory: the grid, the drawn node indices in the smallest unsigned type
    that holds them (a few bytes per random pair), and one fixed-size chunk
    of ratios at a time: _PAIR_CHUNK random pairs, or a slab of whole rows
    of the grid's leading axis, about _SLAB_VALUES neighbour pairs.
    """
    if not p > 1.0:
        raise DomainError(f"p must be > 1, got {p}")
    if not (math.isfinite(C) and C > 0.0):
        raise DomainError(f"C must be finite and > 0, got {C}")
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    if not _is_integer(n_random_pairs):
        raise DomainError(f"n_random_pairs must be an integer, got {n_random_pairs!r}")
    if n_random_pairs < 0:
        raise DomainError(f"n_random_pairs must be >= 0, got {n_random_pairs}")
    require_float64_count((n_random_pairs,), f"n_random_pairs = {n_random_pairs}")
    if not (_is_integer(seed) and seed >= 0):
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    texp = time_exponent(p, alpha)
    space = u.space_points()
    pts = space.reshape(-1, u.dim)
    ts = u.times()
    n_sp = pts.shape[0]
    nt = len(ts)
    vals = u.values.reshape(n_sp, nt)
    # each chunk of ratios is reduced as soon as it is built, and the first
    # largest ratio so far (a NaN counting as largest) is kept with its pair (a, b)
    n_pairs, top = 0, -np.inf

    def reduce(du, dxs, dts):
        """Turn du = u(a) - u(b) into the ratios in place; the index of their
        first largest when it beats the ratio kept, which it replaces, else None."""
        nonlocal n_pairs, top
        np.abs(du, out=du)
        np.divide(du, C * (dxs**alpha + dts**texp), out=du)
        n_pairs += du.size
        k = int(np.argmax(du)) if du.size else None
        if k is None or np.isnan(top) or du.flat[k] <= top:
            return None
        top = du.flat[k]
        return k

    # the four draws are the same calls in the same order, so the pairs do not
    # move; each is narrowed as soon as it is drawn, so one int64 draw at most
    # is alive
    rng = np.random.default_rng(seed)
    sp_type, t_type = np.min_scalar_type(n_sp - 1), np.min_scalar_type(nt - 1)
    ia = rng.integers(0, n_sp, n_random_pairs).astype(sp_type)
    na = rng.integers(0, nt, n_random_pairs).astype(t_type)
    ib = rng.integers(0, n_sp, n_random_pairs).astype(sp_type)
    nb = rng.integers(0, nt, n_random_pairs).astype(t_type)
    for start in range(0, n_random_pairs, _PAIR_CHUNK):
        chunk = slice(start, start + _PAIR_CHUNK)
        keep = (ia[chunk] != ib[chunk]) | (na[chunk] != nb[chunk])
        sa, ta, sb, tb = ia[chunk][keep], na[chunk][keep], ib[chunk][keep], nb[chunk][keep]
        du = vals[sa, ta]
        np.subtract(du, vals[sb, tb], out=du)
        # |x_a - x_b| axis by axis, with no pairs x axes temporaries: the
        # squares are summed in axis order
        dxs = np.zeros(len(sa))
        for axis in range(u.dim):
            step = pts[sa, axis]
            step -= pts[sb, axis]
            step *= step
            dxs += step
        np.sqrt(dxs, out=dxs)
        k = reduce(du, dxs, np.abs(ts[ta] - ts[tb]))
        if k is not None:
            a, b = (pts[sa[k]], ts[ta[k]]), (pts[sb[k]], ts[tb[k]])
    del ia, na, ib, nb

    # nearest neighbours along each space axis and in time, as shifted slices
    # scored in slabs of whole leading-axis rows; a neighbour pair is 0 apart in
    # time or in space, and 0**alpha = 0**texp = 0
    rows = max(1, _SLAB_VALUES // (u.values.size // u.values.shape[0]))
    for axis in range(u.dim + 1):
        lo = [slice(None)] * (u.dim + 1)
        hi = list(lo)
        lo[axis], hi[axis] = slice(None, -1), slice(1, None)
        below, above = u.values[tuple(lo)], u.values[tuple(hi)]
        if axis < u.dim:
            dxs = np.linalg.norm(space[tuple(lo[:-1])] - space[tuple(hi[:-1])], axis=-1)[..., None]
        else:
            dts = np.abs(ts[:-1] - ts[1:])
        for r0 in range(0, below.shape[0], rows):
            slab = slice(r0, r0 + rows)
            du = np.subtract(below[slab], above[slab])
            k = reduce(du, dxs[slab], 0.0) if axis < u.dim else reduce(du, 0.0, dts)
            if k is not None:
                ma = list(np.unravel_index(k, du.shape))
                ma[0] += r0
                mb = list(ma)
                mb[axis] += 1
                a, b = [(space[tuple(m[:-1])], ts[m[-1]]) for m in (ma, mb)]

    if n_pairs == 0:
        raise DomainError("the grid has no two distinct nodes to compare")
    return ModulusReport(
        max_ratio=float(top),
        argmax_a=(tuple(float(v) for v in a[0]), float(a[1])),
        argmax_b=(tuple(float(v) for v in b[0]), float(b[1])),
        alpha=alpha,
        time_exp=texp,
        C=C,
        n_pairs=n_pairs,
    )


def _is_integer(value) -> bool:
    """An int or numpy integer; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class ScaleLevel:
    level: int
    r: float
    osc: float
    bound: float
    ok: bool


@dataclass(frozen=True)
class CenterIteration:
    center: tuple
    passed: bool
    first_failure: int | None
    truncated: bool
    levels: tuple
    samples: tuple  # the raw (r, osc) of measure_oscillations, before renormalizing


@dataclass(frozen=True)
class IterationReport:
    passed: bool
    alpha: float
    beta: float
    lam: float
    implied_constant: float | None
    centers: tuple
    note: str = FAMILY_NOTE


def default_centers(u: GridFunction, r0: float, beta: float) -> list:
    """Coarse sub-grid (COARSE_CENTERS per axis) of centers whose outer
    cylinder fits in the domain."""
    d = u.dim
    lo = [u.axis_coords(i)[0] + r0 for i in range(d)]
    hi = [u.axis_coords(i)[-1] - r0 for i in range(d)]
    if any(l > h for l, h in zip(lo, hi)):
        raise DomainError(f"no center admits an outer cylinder of radius {r0}")
    top, depth = u.t1, cylinder_depth(r0, beta)
    if top - depth < u.t0 - 1e-12:
        raise DomainError(f"outer cylinder depth {depth:g} exceeds the time extent")
    axes = [np.linspace(lo[i], hi[i], COARSE_CENTERS) if hi[i] > lo[i] else np.array([lo[i]]) for i in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    return [tuple(pt) + (top,) for pt in pts]


def iterate_scales(
    u: GridFunction,
    params: EquationParams,
    lam: float,
    theta: float,
    alpha: float,
    r0: float = 1.0,
    centers=None,
) -> IterationReport:
    """Run the decay induction  osc_{Q_{r_k}} u <= r_k^alpha  on measured data.

    Requires lambda and theta in (0, 1), alpha in (0, 1], r0 finite and > 0
    and the selection rule lambda^alpha >= 1 - theta.  The function is
    renormalized so the outer oscillation is at most one at every center, the
    cylinder time depth follows beta = p - alpha(p-1), and levels stop at the
    grid floor of 4 spacings or after MAX_LEVELS.  On a full pass the implied two-point
    constant is lambda^{-alpha}.  An r0 that leaves a default centre's outer
    cylinder with fewer than two nodes is a DomainError.
    """
    if not 0.0 < lam < 1.0:
        raise DomainError(f"lambda must lie in (0,1), got {lam}")
    if not 0.0 < theta < 1.0:
        raise DomainError(f"theta must lie in (0,1), got {theta}")
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    if not (math.isfinite(r0) and r0 > 0.0):
        raise DomainError(f"r0 must be a finite number > 0, got {r0}")
    if lam**alpha < 1.0 - theta:
        raise PreconditionFailed(
            f"lambda^alpha = {lam ** alpha:g} < 1 - theta = {1 - theta:g}; "
            f"alpha violates the selection rule"
        )
    beta = cylinder_exponent(params.p, alpha)
    default = centers is None
    if default:
        centers = default_centers(u, r0, beta)
    floor = GRID_FLOOR_SPACINGS * max(u.spacing_x)
    if floor < r0:
        k_floor = int(math.floor(math.log(floor / r0) / math.log(lam) + 1e-9))
    else:
        k_floor = 0
    k_max = min(MAX_LEVELS, max(k_floor, 0))

    reports = []
    all_pass = True
    for center in centers:
        try:
            samples = measure_oscillations(u, center, lam, beta, k_max, r0=r0)
        except EmptyIntersection:  # a default centre's cylinder is inside the grid
            if default:
                raise DomainError(f"r0 = {r0:g} is below the grid's resolution") from None
            raise
        truncated = len(samples) < k_max + 1
        osc0 = samples[0][1]
        scale = 1.0 / osc0 if osc0 > 1.0 else 1.0
        levels = []
        first_fail = None
        for k, (r, osc) in enumerate(samples):
            bound = r**alpha
            ok = osc * scale <= bound + 1e-12
            if not ok and first_fail is None:
                first_fail = k
            levels.append(ScaleLevel(k, r, osc * scale, bound, ok))
        passed = first_fail is None
        all_pass = all_pass and passed
        reports.append(
            CenterIteration(tuple(center), passed, first_fail, truncated, tuple(levels),
                            tuple(samples))
        )
    return IterationReport(
        passed=all_pass,
        alpha=alpha,
        beta=beta,
        lam=lam,
        implied_constant=lam ** (-alpha) if all_pass else None,
        centers=tuple(reports),
    )
