"""Monotone explicit finite differences for u_t + a(x,t)|Du|^p - D - f + shift = 0.

The gradient term uses a Lax-Friedrichs numerical Hamiltonian with
dissipation computed from the largest observed one-sided gradient each step;
the diffusion D is either eps*m+/-(D^2 u) (extremal operators on the full
discrete Hessian) or tr(B(x,t) D^2 u), both by centered second differences.
Time stepping is explicit with a per-step stable dt; solutions land on a
uniform output grid.  Several problems on one grid can be solved together,
stacked on a leading array axis of the same loop, each with its own clock
and dt and with the bits it would get alone.

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

from .core import EquationParams, GridFunction, ParabolicCylinder, as_number
from .errors import (
    Blowup,
    BoundaryOrderingFailed,
    CflViolation,
    DomainError,
    EmptyIntersection,
    GridTooSmall,
    HJHolderError,
)
from .extremal import _mid_rad
from .instances import SeparableField

logger = logging.getLogger(__name__)

RESIDUAL_SURROGATE_NOTE = (
    "one-sided-in-time node check; a consistent surrogate of the viscosity "
    "inequality, not an equivalent"
)
DT_FLOOR = 1e-9  # a stable substep below this is a CflViolation
BLOWUP_FACTOR = 1e3  # |u| above BLOWUP_FACTOR * (1 + data bound) is a Blowup
BOUNDARY_TOL = 1e-9  # slack of the comparison premise lower <= upper on the boundary


@dataclass(frozen=True)
class ExtremalDiffusion:
    """Diffusion term coeff * m^sign(D^2 u); sign is +1 for m+, -1 for m-."""

    sign: int
    coeff: float

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise DomainError(f"sign must be +1 or -1, got {self.sign}")


@dataclass(frozen=True, eq=False)
class TraceDiffusion:
    """Diffusion term tr(B(x,t) D^2 u); entries(*coords, t) returns either a
    constant (d, d) matrix or an array of shape (d, d, *space).

    Two terms are equal when their entries are one object, or are both
    arrays of the same shape and bits; callables compare by identity.
    """

    entries: object

    def _bits(self):
        x = np.asarray(self.entries, dtype=float)
        return x.shape, x.tobytes()

    def __eq__(self, other):
        if not isinstance(other, TraceDiffusion):
            return NotImplemented
        if self.entries is other.entries:
            return True
        if callable(self.entries) or callable(other.entries):
            return False
        return self._bits() == other._bits()

    def __hash__(self):
        return hash(id(self.entries) if callable(self.entries) else self._bits())

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
    t0: float = 0.0
    t1: float = 1.0
    nt: int = 65
    cfl: float = 0.8
    lf_alpha_cap: float | None = None
    lf_alpha_floor: float = 0.0

    def __post_init__(self):
        for name in ("xmin", "xmax", "nx"):
            values = getattr(self, name)  # a nested list fails below, not in numpy
            values = values if isinstance(values, (list, tuple)) else np.atleast_1d(values).tolist()
            object.__setattr__(self, name, tuple(
                as_number(v, f"grid {name}", integral=name == "nx") for v in values))
        object.__setattr__(self, "nt", as_number(self.nt, "grid nt", integral=True))
        for name in ("t0", "t1", "cfl", "lf_alpha_cap", "lf_alpha_floor"):
            if name != "lf_alpha_cap" or self.lf_alpha_cap is not None:
                object.__setattr__(self, name, as_number(getattr(self, name), f"grid {name}"))
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

    flat() flattens the space axes, and every difference reads contiguous
    windows f[..., lo + k : hi + k] of the flat values at fixed offsets k,
    each a signed sum of axis strides; [lo, hi) runs from the first
    interior node to the last.  Leading axes, such as the row axis of
    problems solved together, are kept.  Every interior node gets the float
    operations of the np.roll / np.gradient formulas in the same order, so
    results agree bit for bit.

    In d >= 2 a window also holds the boundary-column positions between
    grid lines, and the face differences the seams between one grid line
    and the next.  Nothing at those positions is ever read: the solver's
    update writes there, but the Dirichlet reset of the same substep
    overwrites those nodes, and reductions go through grid views
    (face_view, inner) that skip them.
    """

    def __init__(self, shape: tuple, dx: list):
        d = len(shape)
        self.d = d
        self.shape = tuple(shape)
        self.dx = list(dx)
        self.size = math.prod(self.shape)
        self.strides = [math.prod(self.shape[i + 1:]) for i in range(d)]
        lo = sum(self.strides)
        hi = self.size - lo

        def at(k: int) -> tuple:
            """Index of the window at offset k: the flat values k away from each position."""
            return (..., slice(lo + k, hi + k))

        self.mid = at(0)
        self.plus = [at(s) for s in self.strides]
        self.minus = [at(-s) for s in self.strides]
        self.cross = {
            (i, j): (at(si + sj), at(si - sj), at(sj - si), at(-si - sj))
            for i, si in enumerate(self.strides) for j, sj in enumerate(self.strides) if i < j
        }
        # face k along axis i lies between flat values k and k + strides[i]
        self.face_hi = [(..., slice(s, None)) for s in self.strides]
        self.face_lo = [(..., slice(None, -s)) for s in self.strides]
        # boxes of the grid views: the interior nodes, and the faces along each axis
        self.inner_box = tuple(n - 2 for n in self.shape)
        self.face_boxes = [tuple(n - (k == i) for k, n in enumerate(self.shape))
                           for i in range(d)]
        self.byte_strides = tuple(s * np.dtype(float).itemsize for s in self.strides)

    def flat(self, u: np.ndarray) -> np.ndarray:
        """u with its space axes flattened: a view when they are contiguous."""
        return u.reshape(u.shape[:u.ndim - self.d] + (self.size,))

    def _grid_view(self, w: np.ndarray, box: tuple) -> np.ndarray:
        """View of a C-contiguous float array's last axis as `box` with the grid's
        strides; box must keep every position inside w."""
        return np.ndarray(w.shape[:-1] + box, float, w, 0, w.strides[:-1] + self.byte_strides)

    def inner(self, w: np.ndarray) -> np.ndarray:
        """The interior nodes of a window array, on the grid's interior axes."""
        return self._grid_view(w, self.inner_box)

    def face_view(self, q: np.ndarray, i: int) -> np.ndarray:
        """The faces of a face_diffs-shaped array along axis i, without the seams."""
        return self._grid_view(q, self.face_boxes[i])

    def interior(self, field):
        """Window values of a field sampled on the grid; scalars pass through."""
        if np.ndim(field) == 0:
            return field
        if field.shape[-self.d:] != self.shape:
            field = np.broadcast_to(field, self.shape)
        return self.flat(field)[self.mid]

    def face_diffs(self, f: np.ndarray) -> list:
        """One-sided differences (u[k+1] - u[k]) / dx along each axis, on every face."""
        return [(f[self.face_hi[i]] - f[self.face_lo[i]]) / self.dx[i] for i in range(self.d)]

    def face_jump(self, faces: list, i: int) -> np.ndarray:
        """Forward minus backward one-sided difference along axis i."""
        return faces[i][self.mid] - faces[i][self.minus[i]]

    def centred(self, f: np.ndarray) -> list:
        """Centred first differences, the interior formula of np.gradient."""
        return [(f[self.plus[i]] - f[self.minus[i]]) / (2. * self.dx[i]) for i in range(self.d)]

    def second_diffs(self, f: np.ndarray) -> dict:
        """Centred second differences keyed (i, j) with i <= j."""
        dx = self.dx
        out = {}
        for i in range(self.d):
            out[(i, i)] = (f[self.plus[i]] - 2.0 * f[self.mid] + f[self.minus[i]]) / dx[i] ** 2
        for (i, j), (pp, pm, mp, mm) in self.cross.items():
            out[(i, j)] = (f[pp] - f[pm] - f[mp] + f[mm]) / (4.0 * dx[i] * dx[j])
        return out


def _extremal_field(hess: dict, d: int, sign: int) -> np.ndarray:
    """m+ (sign > 0) or m- of the discrete Hessian at every node, for d in {1, 2}."""
    if d == 1:
        h = hess[(0, 0)]
        return np.maximum(h, 0.0) if sign > 0 else np.minimum(h, 0.0)
    mid, rad = _mid_rad(hess[(0, 0)], hess[(1, 1)], hess[(0, 1)])
    return np.maximum(mid + rad, 0.0) if sign > 0 else np.minimum(mid - rad, 0.0)


# ---------------------------------------------------------------------------
# Rows: several problems on one grid, stacked on a leading axis
# ---------------------------------------------------------------------------


def _column(values: list, ndim: int):
    """Per-row numbers as a column that broadcasts over rows of fields with
    ndim axes per row: d on the grid, 1 in the stencil's flat windows.

    A single row's number is returned as it is.
    """
    if len(values) == 1:
        return values[0]
    return np.array(values).reshape((len(values),) + (1,) * ndim)


def _stack_rows(values: list, st: _Stencil) -> tuple:
    """Per-row numbers or grid fields as one block: (grid values, interior values).

    A single row's value is returned as it is; several are broadcast to the
    grid and stacked on a leading row axis.  Either way each row holds the
    values it would hold alone.
    """
    if len(values) == 1:
        return values[0], st.interior(values[0])
    full = np.stack([np.broadcast_to(v, st.shape) for v in values])
    return full, st.interior(full)


def _row_max(x, n_rows: int) -> list:
    """max of each leading row of x (x itself for one row) as Python floats."""
    if n_rows == 1:
        return [float(x.max())]
    return x.max(axis=tuple(range(1, x.ndim))).tolist()


# ndarray ** number sends these exponents to square, sqrt, reciprocal, ...
# instead of power, and the bits can differ from power's
_POWER_FAST_PATHS = frozenset({-1.0, 0.0, 0.5, 1.0, 2.0})


class _RowExponent:
    """One exponent per leading row, applied as x[r] ** e[r] would be, bit for bit.

    The exponents stay a broadcast column.  numpy's power with a column gives
    the bits of power with a number, but ndarray ** number special-cases a
    few exponents (_POWER_FAST_PATHS); the rows with those are redone with
    the number.
    """

    def __init__(self, exponents: list):
        self.column = _column(exponents, 1)
        self.redo = [(r, e) for r, e in enumerate(exponents) if e in _POWER_FAST_PATHS]

    def power(self, x: np.ndarray) -> np.ndarray:
        y = x ** self.column
        for r, e in self.redo:
            y[r] = x[r] ** e
        return y


def _row_exponent(exponents: list):
    """The rows' exponents: one number when they all agree, else a _RowExponent
    for fields in the stencil's flat windows."""
    if all(e == exponents[0] for e in exponents):
        return exponents[0]
    return _RowExponent(exponents)


class _Field:
    """A coefficient or forcing of one spec, as the solver samples it.

    sample is the spec's coeff_at or forcing_at for this field.  A number or
    a time-independent SeparableField is sampled once, at t0 (`fixed`); a
    separable field with a time factor keeps its space factor (`space`),
    evaluated once, and costs base + space * time(t) per call; any other
    callable goes through sample(coords, t) on every call.  Each path gives
    the bits that sample(coords, t) would.
    """

    def __init__(self, field, sample, coords, t0):
        self.field, self.sample, self.coords = field, sample, coords
        self.fixed = self.space = None
        declared = isinstance(field, SeparableField)
        if declared and field.time is not None:
            self.space = field.space(*coords)
        elif not callable(field) or declared:
            self.fixed = sample(coords, t0)

    def at(self, t):
        """Values on the grid at time t."""
        if self.space is not None:
            return np.asarray(self.field.base + self.space * self.field.time(t), dtype=float)
        if self.fixed is not None:
            return self.fixed
        return self.sample(self.coords, t)


def _block_sampler(fields: list, st: _Stencil):
    """The fields of a block's rows as ts -> (grid values, interior values), one time per row.

    Fixed fields are stacked once.  Separable fields with a time factor cost
    base + space * time for all rows at once, with a column of bases, the
    stacked space factors and a column of time factors.  Any other mix is
    sampled row by row and stacked.
    """
    if all(f.fixed is not None for f in fields):
        fixed = _stack_rows([f.fixed for f in fields], st)
        return lambda ts: fixed
    if all(f.space is not None for f in fields):
        base = _column([f.field.base for f in fields], st.d)
        space = _stack_rows([f.space for f in fields], st)[0]
        times = [f.field.time for f in fields]

        def separable(ts):
            factor = _column([time(t) for time, t in zip(times, ts)], st.d)
            full = np.asarray(base + space * factor, dtype=float)
            return full, st.interior(full)

        return separable
    return lambda ts: _stack_rows([f.at(t) for f, t in zip(fields, ts)], st)


def _hamiltonian(a, grads: list, half):
    """a |Du|^p from the centred gradient, with half = p/2 a number or a
    _RowExponent; shared by solver and residual."""
    g2 = grads[0] ** 2  # the bits of sum(g**2 for g in grads): squares are >= +0
    for g in grads[1:]:
        g2 += g**2
    return a * (half.power(g2) if isinstance(half, _RowExponent) else g2 ** half)


def _diffusion_bounds(diff, coords, ts: list, d: int) -> tuple:
    """The matrices B of a trace diffusion at each time in ts (None for the
    other kinds) and each row's ellipticity bound Lambda."""
    if diff is None:
        return None, [0.0] * len(ts)
    if isinstance(diff, ExtremalDiffusion):
        return None, [abs(diff.coeff)] * len(ts)
    if isinstance(diff, TraceDiffusion):
        bs = [diff.matrix_at(coords, t, d) for t in ts]
        return bs, [float(np.max(np.abs(b))) * d for b in bs]
    raise DomainError(f"unknown diffusion spec {type(diff)!r}")


def _diffusion_term(diff, st: _Stencil, f, bs):
    """Interior diffusion term of u, with bs from _diffusion_bounds.

    f is the stencil's flat view of one grid function, or of one row per
    matrix in bs on a leading axis.
    """
    if diff is None:
        return 0.0
    hess = st.second_diffs(f)
    if bs is None:
        return diff.coeff * _extremal_field(hess, st.d, diff.sign)
    total = np.zeros(hess[(0, 0)].shape)
    for i in range(st.d):
        for j in range(st.d):
            bij = _stack_rows([b[i, j] for b in bs], st)[1]
            total = total + bij * hess[(min(i, j), max(i, j))]
    return total


def _row_block(u_all: np.ndarray, rows: list) -> tuple:
    """Rows of u_all as one array, and whether it is a copy to write back.

    One row is a view of that row's grid; consecutive rows are a view of
    the slab; other sets are gathered into a copy.
    """
    if len(rows) == 1:
        return u_all[rows[0]], False
    if rows[-1] - rows[0] == len(rows) - 1:
        return u_all[rows[0]:rows[-1] + 1], False
    return u_all[rows], True


def solve_hj(spec, init, bc, cfg: SolveConfig):
    """Explicit Lax-Friedrichs solve; returns the solution on the output grid.

    init is a callable init(*coords) or an array on the spatial grid; bc is a
    Dirichlet callable bc(*coords, t) applied on the box faces every substep.
    The step satisfies dt <= cfl * min(dx/(2 d alpha), dx^2/(2 d Lambda)).

    Given sequences of specs, inits and bcs (one row each), the rows are
    solved together, on a leading array axis of the same loop, and a list
    comes back with one entry per row: its GridFunction, or the Blowup or
    CflViolation that stopped that row while the others went on.  The rows
    share cfg and the specs' diffusion and shift (DomainError otherwise);
    each row keeps its own clock, dt, LF alpha, checks and warnings, and
    gets the bits it would get alone.
    """
    if isinstance(spec, HamiltonianSpec):
        (u,) = _solve_rows([spec], [init], [bc], cfg)
        if isinstance(u, HJHolderError):
            raise u
        return u
    return _solve_rows(list(spec), list(init), list(bc), cfg)


def _solve_rows(specs: list, inits: list, bcs: list, cfg: SolveConfig) -> list:
    """The one solver loop behind solve_hj, over a list of rows.

    Within each output interval every row steps with its own dt until it
    reaches the output time, then waits for the others.  The rows still
    stepping form the active block, which is rebuilt only when that set
    changes: a row reaches the output time or fails.
    """
    d = cfg.dim
    if d not in (1, 2):
        raise DomainError(f"solver supports d in {{1, 2}}, got {d}")
    if not specs or not len(specs) == len(inits) == len(bcs):
        raise DomainError(f"need one init and one bc per spec, got {len(specs)} specs, "
                          f"{len(inits)} inits and {len(bcs)} bcs")
    diffusion, shift = specs[0].diffusion, specs[0].shift
    for spec in specs:
        if d != spec.params.d:
            raise DomainError(f"config dim {d} != params dim {spec.params.d}")
        if spec.shift != shift or spec.diffusion != diffusion:
            raise DomainError("rows solved together must share diffusion and shift")
    dx = cfg.spacings()
    dx_min = min(dx)
    coords = cfg.coords()
    shape = tuple(cfg.nx)
    st = _Stencil(shape, dx)
    n_all = len(specs)

    u_all = np.empty((n_all,) + shape)
    coeffs, forcings = [], []
    for r, (spec, init) in enumerate(zip(specs, inits)):
        if callable(init):
            u_all[r] = np.broadcast_to(init(*coords), shape)
        else:
            u0 = np.asarray(init, dtype=float)
            if u0.shape != shape:
                raise DomainError(f"init shape {u0.shape} != grid shape {shape}")
            u_all[r] = u0
        coeffs.append(_Field(spec.coefficient, spec.coeff_at, coords, cfg.t0))
        forcings.append(_Field(spec.forcing, spec.forcing_at, coords, cfg.t0))
        A = spec.params.A
        a0 = coeffs[r].at(cfg.t0)
        if np.any(a0 < 1.0 / A - 1e-12) or np.any(a0 > A + 1e-12):
            logger.warning(
                "coefficient leaves [1/A, A] = [%g, %g] (range [%g, %g]); "
                "theorem hypotheses do not apply",
                1.0 / A, A, float(a0.min()), float(a0.max()),
            )
    if isinstance(diffusion, TraceDiffusion):
        b0 = diffusion.matrix_at(coords, cfg.t0, d)
        if d == 1:
            lam_min = np.min(b0[0, 0])
        else:
            mid, rad = _mid_rad(b0[0, 0], b0[1, 1], 0.5 * (b0[0, 1] + b0[1, 0]))
            lam_min = np.min(mid - rad)
        if lam_min < -1e-12:
            raise DomainError(f"trace diffusion matrix not nonnegative definite "
                              f"(min eigenvalue {float(lam_min):g} at t0)")

    # Dirichlet nodes as flat indices into each row's grid, updated in place
    bidx = np.flatnonzero(_boundary_mask(shape))
    bcoords = [c.reshape(-1)[bidx] for c in coords]
    ps = [spec.params.p for spec in specs]
    data_bound = [float(np.max(np.abs(u_all[r]))) for r in range(n_all)]
    outs = [np.empty(shape + (cfg.nt,)) for _ in range(n_all)]
    for r in range(n_all):
        outs[r][..., 0] = u_all[r]
    times_out = cfg.out_times()
    clock = [cfg.t0] * n_all
    warned_cap = [False] * n_all
    failed = [None] * n_all
    # active row set -> (coefficient, forcing, exponent), built once per set
    blocks = {}

    for n in range(1, cfg.nt):
        t_target = times_out[n]
        t_done = t_target - 1e-14 * (1.0 + abs(t_target))
        rows = [r for r in range(n_all) if failed[r] is None and clock[r] < t_done]
        while rows:
            n_rows = len(rows)
            if tuple(rows) not in blocks:
                blocks[tuple(rows)] = (_block_sampler([coeffs[r] for r in rows], st),
                                       _block_sampler([forcings[r] for r in rows], st),
                                       _row_exponent([ps[r] / 2.0 for r in rows]))
            coeff, forcing, half = blocks[tuple(rows)]
            u, copied = _row_block(u_all, rows)
            f = st.flat(u)  # a view: u is contiguous
            flats = [f] if n_rows == 1 else list(f)
            stepping = True
            while stepping:
                ts = [clock[r] for r in rows]
                a, a_mid = coeff(ts)
                bs, lams = _diffusion_bounds(diffusion, coords, ts, d)
                faces = st.face_diffs(f)
                qmaxes = [0.0] * n_rows
                for i, q in enumerate(faces):
                    face_maxes = _row_max(st.face_view(np.abs(q), i), n_rows)
                    qmaxes = list(map(max, qmaxes, face_maxes))
                half_alphas, dts = [], []
                for r, qmax, amax, lam in zip(rows, qmaxes, _row_max(a, n_rows), lams):
                    p = ps[r]
                    alpha = p * amax * qmax ** (p - 1.0) if qmax > 0 else 0.0
                    alpha = max(alpha, cfg.lf_alpha_floor)
                    if cfg.lf_alpha_cap is not None and alpha > cfg.lf_alpha_cap:
                        alpha = cfg.lf_alpha_cap
                        if not warned_cap[r]:
                            logger.warning(
                                "LF dissipation capped at %g; scheme leaves its "
                                "provably monotone regime", alpha,
                            )
                            warned_cap[r] = True
                    half_alphas.append(0.5 * alpha)

                    dt_stab = math.inf
                    if alpha > 0:
                        dt_stab = dx_min / (2.0 * alpha * d)
                    if lam > 0:
                        dt_stab = min(dt_stab, dx_min**2 / (2.0 * d * lam))
                    dt_stab *= cfg.cfl
                    if dt_stab < DT_FLOOR:
                        failed[r] = CflViolation(f"stable step {dt_stab:g} below floor "
                                                 f"{DT_FLOOR:g} at t={clock[r]:g}")
                        dts.append(0.0)
                    else:
                        dts.append(min(dt_stab, t_target - clock[r]))

                hamil = _hamiltonian(a_mid, st.centred(f), half)
                jump_coeff = _column(half_alphas, 1)
                for i in range(d):
                    hamil = hamil - jump_coeff * st.face_jump(faces, i)
                diff_term = _diffusion_term(diffusion, st, f, bs)
                rhs = forcing(ts)[1] - shift - hamil + diff_term
                # boundary-column positions of the window get written here and
                # reset below, before anything reads them
                f[st.mid] += _column(dts, 1) * rhs

                for r, dt, flat in zip(rows, dts, flats):
                    if failed[r] is None:
                        clock[r] = min(clock[r] + dt, t_target)
                        bvals = np.asarray(bcs[r](*bcoords, clock[r]), dtype=float)
                        flat[bidx] = bvals
                        data_bound[r] = max(data_bound[r], float(np.abs(bvals).max()))
                # the block changes when a row fails or reaches the output time
                for r, peak in zip(rows, _row_max(np.abs(u), n_rows)):
                    if failed[r] is not None:
                        stepping = False
                    elif peak > BLOWUP_FACTOR * (1.0 + data_bound[r]):
                        failed[r] = Blowup(f"values exceeded {BLOWUP_FACTOR:g}*(1+data "
                                           f"bound) at t={clock[r]:g}")
                        stepping = False
                    elif clock[r] >= t_done:
                        stepping = False
            if copied:
                u_all[rows] = u
            rows = [r for r in rows if failed[r] is None and clock[r] < t_done]
        for r in range(n_all):
            if failed[r] is None:
                clock[r] = t_target
                outs[r][..., n] = u_all[r]

    dt_out = (cfg.t1 - cfg.t0) / (cfg.nt - 1)
    return [GridFunction(cfg.xmin, tuple(dx), cfg.t0, dt_out, outs[r]) if failed[r] is None
            else failed[r] for r in range(n_all)]


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
    coeff = _Field(spec.coefficient, spec.coeff_at, coords, ts[0])
    forcing = _Field(spec.forcing, spec.forcing_at, coords, ts[0])
    half = spec.params.p / 2.0

    worst = -math.inf if side == "sub" else math.inf
    worst_idx = None
    prev = st.flat(u.values[..., 0])
    for n in range(1, u.n_time):
        fn = st.flat(u.values[..., n])  # a contiguous copy of the time slice
        ut = (fn[st.mid] - prev[st.mid]) / u.spacing_t
        a = st.interior(coeff.at(ts[n]))
        bs, _ = _diffusion_bounds(spec.diffusion, coords, [ts[n]], d)
        diff_term = _diffusion_term(spec.diffusion, st, fn, bs)
        res = ut + _hamiltonian(a, st.centred(fn), half) - diff_term
        res = st.inner(res - st.interior(forcing.at(ts[n])) + spec.shift)
        k = int(np.argmax(res) if side == "sub" else np.argmin(res))
        idx = np.unravel_index(k, res.shape)
        val = float(res[idx])
        if (val > worst) if side == "sub" else (val < worst):
            worst = val
            # interior index -> grid index: one boundary layer per axis
            worst_idx = tuple(i + 1 for i in idx) + (n,)
        prev = fn

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
) -> ComparisonReport:
    """Check lower <= upper + BOUNDARY_TOL on the discrete parabolic boundary
    of the cylinder, then report max(lower - upper) over the interior nodes.

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
    if b_excess > BOUNDARY_TOL:
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
