"""Monotone explicit finite differences for u_t + a(x,t)|Du|^p - D - f + shift = 0.

The gradient term uses a Lax-Friedrichs numerical Hamiltonian with
dissipation computed from the largest observed one-sided gradient each step;
the diffusion D is either eps*m+/-(D^2 u) (extremal operators on the full
discrete Hessian) or tr(B(x,t) D^2 u), both by centered second differences.
Time stepping is explicit with a per-step stable dt; solutions land on a
uniform output grid.

The discrete residual check evaluates the same differential inequality with
one-sided time differences at the grid nodes.  For merely continuous
viscosity solutions this is a consistent surrogate of the inequality, not an
equivalent statement; reports are labelled accordingly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import EquationParams, GridFunction, ParabolicCylinder
from .errors import (
    Blowup,
    BoundaryOrderingFailed,
    CflViolation,
    DomainError,
    EmptyIntersection,
    GridTooSmall,
)
from .extremal import _mid_rad
from .instances import SeparableField

logger = logging.getLogger(__name__)

RESIDUAL_SURROGATE_NOTE = (
    "one-sided-in-time node check; a consistent surrogate of the viscosity "
    "inequality, not an equivalent"
)


@dataclass(frozen=True)
class ExtremalDiffusion:
    """Diffusion term coeff * m^sign(D^2 u); sign is +1 for m+, -1 for m-."""

    sign: int
    coeff: float

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise DomainError(f"sign must be +1 or -1, got {self.sign}")


@dataclass(frozen=True)
class TraceDiffusion:
    """Diffusion term tr(B(x,t) D^2 u); entries(*coords, t) returns either a
    constant (d, d) matrix or an array of shape (d, d, *space)."""

    entries: object

    def matrix_at(self, coords, t, d):
        b = self.entries(*coords, t) if callable(self.entries) else self.entries
        b = np.asarray(b, dtype=float)
        if b.shape[:2] != (d, d):
            raise DomainError(f"B must have leading shape ({d}, {d}), got {b.shape}")
        return b


@dataclass(frozen=True)
class HamiltonianSpec:
    """Right-hand structure of the equation; coefficient may be a constant or
    a(x, t) callable sampled in [1/A, A] (violations are logged, since the
    solver is also used for oracle problems outside the theorem hypotheses).
    A coefficient or forcing given as an instances.SeparableField has its
    space factor evaluated once per solve instead of every substep."""

    params: EquationParams
    coefficient: object = 1.0
    diffusion: object = None
    forcing: object = None
    shift: float = 0.0

    def coeff_at(self, coords, t):
        if callable(self.coefficient):
            return np.asarray(self.coefficient(*coords, t), dtype=float)
        return np.full(coords[0].shape, float(self.coefficient))

    def forcing_at(self, coords, t):
        if self.forcing is None:
            return 0.0
        if callable(self.forcing):
            return np.asarray(self.forcing(*coords, t), dtype=float)
        return float(self.forcing)


@dataclass(frozen=True)
class SolveConfig:
    """Grid specification and stability knobs for solve_hj."""

    xmin: tuple
    xmax: tuple
    nx: tuple
    t0: float
    t1: float
    nt: int
    cfl: float = 0.8
    lf_alpha_cap: float | None = None
    lf_alpha_floor: float = 0.0
    dt_floor: float = 1e-9
    blowup_factor: float = 1e3

    def __post_init__(self):
        object.__setattr__(self, "xmin", tuple(float(v) for v in np.atleast_1d(self.xmin)))
        object.__setattr__(self, "xmax", tuple(float(v) for v in np.atleast_1d(self.xmax)))
        object.__setattr__(self, "nx", tuple(int(v) for v in np.atleast_1d(self.nx)))
        if not (len(self.xmin) == len(self.xmax) == len(self.nx)):
            raise DomainError("xmin, xmax, nx must have one entry per axis")
        if any(b <= a for a, b in zip(self.xmin, self.xmax)):
            raise DomainError("xmax must exceed xmin on every axis")
        if any(n < 3 for n in self.nx):
            raise DomainError("need at least 3 nodes per axis")
        if not self.t1 > self.t0 or self.nt < 2:
            raise DomainError("need t1 > t0 and nt >= 2")
        if not (0.0 < self.cfl < 1.0):
            raise DomainError(f"CFL factor must lie in (0,1), got {self.cfl}")

    @property
    def dim(self) -> int:
        return len(self.nx)

    def axes(self) -> list:
        return [
            np.linspace(self.xmin[i], self.xmax[i], self.nx[i])
            for i in range(self.dim)
        ]

    def spacings(self) -> list:
        return [
            (self.xmax[i] - self.xmin[i]) / (self.nx[i] - 1) for i in range(self.dim)
        ]

    def coords(self) -> list:
        return list(np.meshgrid(*self.axes(), indexing="ij"))

    def out_times(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.nt)


def grid_from_callable(fn, cfg: SolveConfig) -> GridFunction:
    """Sample fn(*coords, t) on the config's space-time grid."""
    coords = cfg.coords()
    times = cfg.out_times()
    shape = tuple(cfg.nx) + (cfg.nt,)
    vals = np.empty(shape)
    for n, t in enumerate(times):
        vals[..., n] = np.broadcast_to(fn(*coords, t), tuple(cfg.nx))
    dt = (cfg.t1 - cfg.t0) / (cfg.nt - 1)
    return GridFunction(cfg.xmin, tuple(cfg.spacings()), cfg.t0, dt, vals)


def _boundary_mask(shape: tuple) -> np.ndarray:
    mask = np.zeros(shape, dtype=bool)
    for axis in range(len(shape)):
        sl = [slice(None)] * len(shape)
        sl[axis] = 0
        mask[tuple(sl)] = True
        sl[axis] = -1
        mask[tuple(sl)] = True
    return mask


class _Stencil:
    """Finite differences on the interior nodes of a uniform grid.

    Each difference is a slice expression over shifted views of u, built
    once per grid.  The float operations and their order are those of the
    np.roll / np.gradient formulas on the same nodes, so results agree bit
    for bit; the boundary nodes, where those formulas wrap or go one-sided,
    are simply not computed.
    """

    def __init__(self, shape: tuple, dx: list):
        d = len(shape)
        self.d = d
        self.shape = tuple(shape)
        self.dx = list(dx)
        self.mid = (slice(1, -1),) * d

        def view(shifts: dict, rest=slice(1, -1)) -> tuple:
            """Index taking shifts[k] on axis k and `rest` on the other axes."""
            return tuple(shifts.get(k, rest) for k in range(d))

        up, down = slice(2, None), slice(None, -2)
        # face differences along axis i span every node of the other axes
        self.face_hi = [view({i: slice(1, None)}, slice(None)) for i in range(d)]
        self.face_lo = [view({i: slice(None, -1)}, slice(None)) for i in range(d)]
        # the faces on either side of each interior node
        self.face_fwd = [view({i: slice(1, None)}) for i in range(d)]
        self.face_bwd = [view({i: slice(None, -1)}) for i in range(d)]
        self.plus = [view({i: up}) for i in range(d)]
        self.minus = [view({i: down}) for i in range(d)]
        self.cross = {
            (i, j): tuple(view({i: si, j: sj}) for si, sj in
                          ((up, up), (up, down), (down, up), (down, down)))
            for i in range(d) for j in range(i + 1, d)
        }

    def interior(self, field):
        """Interior values of a field sampled on the grid; scalars pass through."""
        if np.ndim(field) == 0:
            return field
        if field.shape != self.shape:
            field = np.broadcast_to(field, self.shape)
        return field[self.mid]

    def face_diffs(self, u: np.ndarray) -> list:
        """One-sided differences (u[k+1] - u[k]) / dx along each axis, on every face."""
        return [(u[self.face_hi[i]] - u[self.face_lo[i]]) / self.dx[i] for i in range(self.d)]

    def face_jump(self, faces: list, i: int) -> np.ndarray:
        """Forward minus backward one-sided difference along axis i."""
        return faces[i][self.face_fwd[i]] - faces[i][self.face_bwd[i]]

    def centred(self, u: np.ndarray) -> list:
        """Centred first differences, the interior formula of np.gradient."""
        return [(u[self.plus[i]] - u[self.minus[i]]) / (2. * self.dx[i]) for i in range(self.d)]

    def second_diffs(self, u: np.ndarray) -> dict:
        """Centred second differences keyed (i, j) with i <= j."""
        dx = self.dx
        out = {}
        for i in range(self.d):
            out[(i, i)] = (u[self.plus[i]] - 2.0 * u[self.mid] + u[self.minus[i]]) / dx[i] ** 2
        for (i, j), (pp, pm, mp, mm) in self.cross.items():
            out[(i, j)] = (u[pp] - u[pm] - u[mp] + u[mm]) / (4.0 * dx[i] * dx[j])
        return out


def _extremal_field(hess: dict, d: int, sign: int) -> np.ndarray:
    """m+ (sign > 0) or m- of the discrete Hessian at every node, for d in {1, 2}."""
    if d == 1:
        h = hess[(0, 0)]
        return np.maximum(h, 0.0) if sign > 0 else np.minimum(h, 0.0)
    mid, rad = _mid_rad(hess[(0, 0)], hess[(1, 1)], hess[(0, 1)])
    return np.maximum(mid + rad, 0.0) if sign > 0 else np.minimum(mid - rad, 0.0)


def _sampler(field, sample, coords, st: _Stencil, t0):
    """A coefficient or forcing of a spec as t -> (grid values, interior values).

    sample is the spec's coeff_at or forcing_at for this field.  A number or
    a time-independent SeparableField is sampled once, at t0; a separable
    field with a time factor costs base + space * time(t) per call, with
    space evaluated once; any other callable goes through sample(coords, t)
    on every call.  Each path gives the bits that sample(coords, t) would.
    """
    declared = isinstance(field, SeparableField)
    if declared and field.time is not None:
        space = field.space(*coords)

        def separable(t):
            full = np.asarray(field.base + space * field.time(t), dtype=float)
            return full, st.interior(full)

        return separable
    if callable(field) and not declared:

        def opaque(t):
            full = sample(coords, t)
            return full, st.interior(full)

        return opaque
    full = sample(coords, t0)
    fixed = (full, st.interior(full))
    return lambda t: fixed


def _hamiltonian(a, grads: list, p: float):
    """a |Du|^p from the centred gradient; shared by solver and residual."""
    return a * sum(g**2 for g in grads) ** (p / 2.0)


def _diffusion_field(spec: HamiltonianSpec, st: _Stencil, u, coords, t):
    """Interior diffusion term and its ellipticity bound Lambda."""
    diff = spec.diffusion
    if diff is None:
        return 0.0, 0.0
    d = st.d
    hess = st.second_diffs(u)
    if isinstance(diff, ExtremalDiffusion):
        return diff.coeff * _extremal_field(hess, d, diff.sign), abs(diff.coeff)
    if isinstance(diff, TraceDiffusion):
        b = diff.matrix_at(coords, t, d)
        total = np.zeros(hess[(0, 0)].shape)
        for i in range(d):
            for j in range(d):
                bij = st.interior(b[i, j])
                total = total + bij * hess[(min(i, j), max(i, j))]
        lam = float(np.max(np.abs(b))) * d
        return total, lam
    raise DomainError(f"unknown diffusion spec {type(diff)!r}")


def solve_hj(spec: HamiltonianSpec, init, bc, cfg: SolveConfig) -> GridFunction:
    """Explicit Lax-Friedrichs solve; returns the solution on the output grid.

    init is a callable init(*coords) or an array on the spatial grid; bc is a
    Dirichlet callable bc(*coords, t) applied on the box faces every substep.
    The step satisfies dt <= cfl * min(dx/(2 d alpha), dx^2/(2 d Lambda)).
    """
    d = cfg.dim
    if d not in (1, 2):
        raise DomainError(f"solver supports d in {{1, 2}}, got {d}")
    if d != spec.params.d:
        raise DomainError(f"config dim {d} != params dim {spec.params.d}")
    dx = cfg.spacings()
    dx_min = min(dx)
    coords = cfg.coords()
    p, A = spec.params.p, spec.params.A

    if callable(init):
        u = np.array(np.broadcast_to(init(*coords), tuple(cfg.nx)), dtype=float, order="C")
    else:
        u = np.array(init, dtype=float, order="C")
        if u.shape != tuple(cfg.nx):
            raise DomainError(f"init shape {u.shape} != grid shape {tuple(cfg.nx)}")

    st = _Stencil(u.shape, dx)
    coeff = _sampler(spec.coefficient, spec.coeff_at, coords, st, cfg.t0)
    forcing = _sampler(spec.forcing, spec.forcing_at, coords, st, cfg.t0)
    a0, _ = coeff(cfg.t0)
    if np.any(a0 < 1.0 / A - 1e-12) or np.any(a0 > A + 1e-12):
        logger.warning(
            "coefficient leaves [1/A, A] = [%g, %g] (range [%g, %g]); "
            "theorem hypotheses do not apply",
            1.0 / A, A, float(a0.min()), float(a0.max()),
        )
    if isinstance(spec.diffusion, TraceDiffusion):
        b0 = spec.diffusion.matrix_at(coords, cfg.t0, d)
        if d == 1:
            lam_min = np.min(b0[0, 0])
        else:
            mid, rad = _mid_rad(b0[0, 0], b0[1, 1], 0.5 * (b0[0, 1] + b0[1, 0]))
            lam_min = np.min(mid - rad)
        if lam_min < -1e-12:
            raise DomainError(f"trace diffusion matrix not nonnegative definite "
                              f"(min eigenvalue {float(lam_min):g} at t0)")

    # Dirichlet nodes as flat indices into u, which is updated in place
    bidx = np.flatnonzero(_boundary_mask(u.shape))
    bcoords = [c.reshape(-1)[bidx] for c in coords]
    u_flat = u.reshape(-1)
    data_bound = float(np.max(np.abs(u)))
    out = np.empty(tuple(cfg.nx) + (cfg.nt,))
    out[..., 0] = u
    times_out = cfg.out_times()
    warned_cap = False

    t = cfg.t0
    for n in range(1, cfg.nt):
        t_target = times_out[n]
        while t < t_target - 1e-14 * (1.0 + abs(t_target)):
            a, a_mid = coeff(t)
            faces = st.face_diffs(u)
            qmax = 0.0
            for q in faces:
                qmax = max(qmax, float(np.abs(q).max()))
            alpha = p * float(a.max()) * qmax ** (p - 1.0) if qmax > 0 else 0.0
            alpha = max(alpha, cfg.lf_alpha_floor)
            if cfg.lf_alpha_cap is not None and alpha > cfg.lf_alpha_cap:
                alpha = cfg.lf_alpha_cap
                if not warned_cap:
                    logger.warning(
                        "LF dissipation capped at %g; scheme leaves its "
                        "provably monotone regime", alpha,
                    )
                    warned_cap = True

            hamil = _hamiltonian(a_mid, st.centred(u), p)
            for i in range(d):
                hamil = hamil - 0.5 * alpha * st.face_jump(faces, i)
            diff_term, lam = _diffusion_field(spec, st, u, coords, t)
            rhs = forcing(t)[1] - spec.shift - hamil + diff_term

            dt_stab = math.inf
            if alpha > 0:
                dt_stab = dx_min / (2.0 * alpha * d)
            if lam > 0:
                dt_stab = min(dt_stab, dx_min**2 / (2.0 * d * lam))
            dt_stab *= cfg.cfl
            if dt_stab < cfg.dt_floor:
                raise CflViolation(
                    f"stable step {dt_stab:g} below floor {cfg.dt_floor:g} at t={t:g}"
                )
            dt = min(dt_stab, t_target - t)

            u[st.mid] += dt * rhs
            t_new = min(t + dt, t_target)
            bvals = np.asarray(bc(*bcoords, t_new), dtype=float)
            u_flat[bidx] = bvals
            data_bound = max(data_bound, float(np.abs(bvals).max()))
            if float(np.abs(u).max()) > cfg.blowup_factor * (1.0 + data_bound):
                raise Blowup(f"values exceeded {cfg.blowup_factor:g}*(1+data bound) at t={t_new:g}")
            t = t_new
        t = t_target
        out[..., n] = u

    dt_out = (cfg.t1 - cfg.t0) / (cfg.nt - 1)
    return GridFunction(cfg.xmin, tuple(dx), cfg.t0, dt_out, out)


# ---------------------------------------------------------------------------
# Discrete residual and comparison checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidualReport:
    """Worst node of the one-sided discrete inequality check."""

    side: str
    worst_value: float
    violation: float
    node_index: tuple
    coords: tuple
    time: float
    note: str = RESIDUAL_SURROGATE_NOTE


def discrete_residual(u: GridFunction, spec: HamiltonianSpec, side: str) -> ResidualReport:
    """Evaluate u_t + a|Du|^p - D - f + shift at interior nodes.

    Time derivatives are backward differences, space derivatives centered,
    the diffusion uses m+/- of the full discrete Hessian.  side='sub' expects
    the expression <= 0, side='super' expects >= 0; the report carries the
    worst signed value and the size of the violation (0 when clean).
    """
    if side not in ("sub", "super"):
        raise DomainError(f"side must be 'sub' or 'super', got {side!r}")
    d = u.dim
    if any(nv < 3 for nv in u.n_space) or u.n_time < 2:
        raise GridTooSmall("need >= 3 nodes per space axis and >= 2 time slices")
    axes = [u.axis_coords(i) for i in range(d)]
    coords = list(np.meshgrid(*axes, indexing="ij"))
    ts = u.times()
    st = _Stencil(u.n_space, list(u.spacing_x))
    inner = st.mid
    coeff = _sampler(spec.coefficient, spec.coeff_at, coords, st, ts[0])
    forcing = _sampler(spec.forcing, spec.forcing_at, coords, st, ts[0])

    worst = -math.inf if side == "sub" else math.inf
    worst_idx = None
    for n in range(1, u.n_time):
        un = u.values[..., n]
        ut = (un[inner] - u.values[inner + (n - 1,)]) / u.spacing_t
        a = coeff(ts[n])[1]
        diff_term, _ = _diffusion_field(spec, st, un, coords, ts[n])
        res = ut + _hamiltonian(a, st.centred(un), spec.params.p) - diff_term
        res = res - forcing(ts[n])[1] + spec.shift
        if side == "sub":
            k = int(np.argmax(res))
            val = float(res.ravel()[k])
            better = val > worst
        else:
            k = int(np.argmin(res))
            val = float(res.ravel()[k])
            better = val < worst
        if better:
            worst = val
            # interior index -> grid index: one boundary layer per axis
            worst_idx = tuple(i + 1 for i in np.unravel_index(k, res.shape)) + (n,)

    violation = max(0.0, worst) if side == "sub" else max(0.0, -worst)
    xc = tuple(float(axes[i][worst_idx[i]]) for i in range(d))
    return ResidualReport(
        side=side,
        worst_value=worst,
        violation=violation,
        node_index=tuple(int(i) for i in worst_idx),
        coords=xc,
        time=float(ts[worst_idx[-1]]),
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Boundary-ordering premise and interior excess of lower over upper."""

    boundary_excess: float
    interior_excess: float
    worst_interior_index: tuple | None
    n_boundary: int
    n_interior: int


def comparison_check(
    lower: GridFunction,
    upper: GridFunction,
    on: ParabolicCylinder,
    boundary_tol: float = 1e-9,
) -> ComparisonReport:
    """Check lower <= upper on the discrete parabolic boundary of the
    cylinder, then report max(lower - upper) over the interior nodes.

    A node of the cylinder is interior when its spatial neighbours and its
    predecessor in time are all in the cylinder; the rest form the discrete
    parabolic boundary.  Raises BoundaryOrderingFailed when the premise
    fails (a premise check, not a bug).
    """
    if lower.values.shape != upper.values.shape:
        raise DomainError("lower and upper must live on the same grid")
    mask = lower.node_mask(on)
    if not mask.any():
        raise EmptyIntersection("cylinder misses the grid")
    d = lower.dim
    inter = mask.copy()
    inter[..., 0] = False
    inter[..., 1:] &= mask[..., :-1]
    for axis in range(d):
        inter &= np.roll(mask, 1, axis=axis) & np.roll(mask, -1, axis=axis)
        sl = [slice(None)] * (d + 1)
        sl[axis] = 0
        inter[tuple(sl)] = False
        sl[axis] = -1
        inter[tuple(sl)] = False
    boundary = mask & ~inter

    excess = lower.values - upper.values
    b_excess = float(excess[boundary].max()) if boundary.any() else -math.inf
    if b_excess > boundary_tol:
        raise BoundaryOrderingFailed(
            f"lower exceeds upper by {b_excess:g} on the parabolic boundary"
        )
    if inter.any():
        flat = np.where(inter, excess, -math.inf)
        k = int(np.argmax(flat))
        i_excess = float(flat.ravel()[k])
        worst = tuple(int(i) for i in np.unravel_index(k, excess.shape))
    else:
        i_excess = -math.inf
        worst = None
    return ComparisonReport(
        boundary_excess=b_excess,
        interior_excess=i_excess,
        worst_interior_index=worst,
        n_boundary=int(boundary.sum()),
        n_interior=int(inter.sum()),
    )


def lm_norm(f: GridFunction, m: float, q: ParabolicCylinder) -> float:
    """Riemann-sum approximation of (integral over q of |f|^m)^(1/m)."""
    if not m >= 1.0:
        raise DomainError(f"m must be >= 1, got {m}")
    mask = f.node_mask(q)
    if not mask.any():
        raise EmptyIntersection("cylinder misses the grid")
    cell = float(np.prod(f.spacing_x)) * f.spacing_t
    return float((np.sum(np.abs(f.values[mask]) ** m) * cell) ** (1.0 / m))
