"""Monotone explicit finite differences for u_t + a(x,t)|Du|^p - D - f + shift = 0.

The gradient term uses a Lax-Friedrichs numerical Hamiltonian with
dissipation computed from the largest observed one-sided gradient each step;
the diffusion D is either eps*m+/-(D^2 u) (extremal operators on the full
discrete Hessian) or tr(B(x,t) D^2 u), both by centered second differences.
Time stepping is explicit with a per-step stable dt; solutions land on a
uniform output grid.  Every solve is a block of problems on one grid, its
rows flattened one after another into one array (a lone problem is a block
of one row), each with its own clock and dt and with the bits it would get
alone.  The arrays a substep writes live in one workspace per solve, so the
steps allocate none of them.

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

from .core import (EquationParams, GridFunction, ParabolicCylinder, as_number,
                   require_float64_count)
from .errors import (
    Blowup,
    BoundaryOrderingFailed,
    CflViolation,
    DomainError,
    EmptyIntersection,
    GridTooSmall,
    HJHolderError,
)
from .extremal import _mid_rad, sym_eigs
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
        if not self.coeff >= 0:  # a negative coeff is anti-diffusive: not monotone at any dt
            raise DomainError(f"diffusion coeff must be >= 0, got {self.coeff}")


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
    lf_alpha_floor: float = 0.0

    def __post_init__(self):
        for name in ("xmin", "xmax", "nx"):
            values = getattr(self, name)  # a nested list fails below, not in numpy
            values = values if isinstance(values, (list, tuple)) else np.atleast_1d(values).tolist()
            object.__setattr__(self, name, tuple(
                as_number(v, f"grid {name}", integral=name == "nx") for v in values))
        object.__setattr__(self, "nt", as_number(self.nt, "grid nt", integral=True))
        for name in ("t0", "t1", "cfl", "lf_alpha_floor"):
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
        require_float64_count((*self.nx, self.nt), "the grid's prod(nx) x nt nodes")
        for h in self.spacings():
            # the step's rate sums 1/h^2; h * h gives inf or 0 where h**2 would raise
            h2 = h * h
            if not (h2 > 0.0 and 0.0 < 1.0 / h2 < math.inf):
                raise DomainError(f"grid spacing {h:g}: 1/spacing^2 is not a finite number > 0")

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
    """The nodes on the box faces: all nodes, minus the interior box."""
    mask = np.ones(shape, dtype=bool)
    mask[(slice(1, -1),) * len(shape)] = False
    return mask


def _divisor(c: float) -> tuple:
    """(op, operand) with op(x, operand) the bits of x / c for every float x.

    A power of two c whose reciprocal is a finite float has that reciprocal
    exactly, and x * (1 / c) rounds the same real number as x / c: the same
    bits, subnormals, signed zeros, infinities and nan included, from a
    multiply, which costs less than a divide.  Any other c is divided by.
    """
    if math.frexp(c)[0] == 0.5 and math.isfinite(1.0 / c):
        return np.multiply, 1.0 / c
    return np.divide, c


class _Stencil:
    """Finite differences on the interior nodes of a uniform grid, for a
    block of `rows` problems on it.

    flat() flattens a block (rows,) + shape row after row into one array of
    rows * size values, and every difference reads one contiguous window
    f[lo + k : hi + k] of it at a fixed offset k, a signed sum of axis
    strides; [lo, hi) runs from the first interior node of the first row to
    the last interior node of the last row.  Every interior node gets the
    float operations of the np.roll / np.gradient formulas in the same
    order, so results agree bit for bit; a divisor that is a power of two is
    applied as a multiply by its exact reciprocal (_divisor), with the same
    bits.

    A window also holds positions of boundary nodes: the boundary columns
    between grid lines (d >= 2) and the row seams, the last boundary nodes
    of one row and the first of the next; the face arrays hold differences
    across them.  Nothing at those positions is ever read: the solver's
    update writes there, but the Dirichlet reset of the same substep
    overwrites those nodes, and reductions go through grid views (face_view,
    inner) that skip them.
    """

    def __init__(self, shape: tuple, dx: list, rows: int = 1):
        d = len(shape)
        self.d = d
        self.shape = tuple(shape)
        self.dx = list(dx)
        self.rows = rows
        self.size = math.prod(self.shape)
        self.length = rows * self.size
        self.strides = [math.prod(self.shape[i + 1:]) for i in range(d)]
        self.lo = sum(self.strides)
        self.hi = self.length - self.lo

        def at(k: int) -> slice:
            """The window at offset k: the flat values k away from each position."""
            return slice(self.lo + k, self.hi + k)

        self.mid = at(0)
        self.plus = [at(s) for s in self.strides]
        self.minus = [at(-s) for s in self.strides]
        self.cross = {
            (i, j): (at(si + sj), at(si - sj), at(sj - si), at(-si - sj))
            for i, si in enumerate(self.strides) for j, sj in enumerate(self.strides) if i < j
        }
        # face k along axis i lies between flat values k and k + strides[i]
        self.face_hi = [slice(s, None) for s in self.strides]
        self.face_lo = [slice(None, -s) for s in self.strides]
        # boxes of the grid views, per row: the interior nodes, and the faces along each axis
        self.inner_box = (rows,) + tuple(n - 2 for n in self.shape)
        self.face_boxes = [(rows,) + tuple(n - (k == i) for k, n in enumerate(self.shape))
                           for i in range(d)]
        self.byte_strides = tuple(s * np.dtype(float).itemsize for s in [self.size] + self.strides)
        # (op, operand) of each divisor of the differences: dx, 2 dx, dx^2, 4 dx_i dx_j
        self.by_dx = [_divisor(h) for h in self.dx]
        self.by_2dx = [_divisor(2. * h) for h in self.dx]
        self.by_dx2 = [_divisor(h ** 2) for h in self.dx]
        self.by_cross = {(i, j): _divisor(4.0 * self.dx[i] * self.dx[j]) for i, j in self.cross}

    def flat(self, u: np.ndarray) -> np.ndarray:
        """A block (rows,) + shape as one flat array: a view when it is contiguous."""
        return u.reshape(self.length)

    def whole(self, buf: np.ndarray) -> np.ndarray:
        """The first rows * size values of a node-aligned flat buffer as (rows, size)."""
        return buf[:self.length].reshape(self.rows, self.size)

    def _grid_view(self, w: np.ndarray, box: tuple) -> np.ndarray:
        """View of a contiguous flat float array as `box`, a row axis and the
        grid's axes, with the block's strides; box must keep every position
        inside w."""
        return np.ndarray(box, float, w, 0, self.byte_strides)

    def inner(self, w: np.ndarray) -> np.ndarray:
        """The interior nodes of a window array, on a row axis and the grid's interior axes."""
        return self._grid_view(w, self.inner_box)

    def face_view(self, q: np.ndarray, i: int) -> np.ndarray:
        """The faces of a face_diffs-shaped array along axis i, without the seams."""
        return self._grid_view(q, self.face_boxes[i])

    def interior(self, block: np.ndarray) -> np.ndarray:
        """Window values of a block sampled on the grid."""
        return self.flat(block)[self.mid]

    def face_diffs(self, f: np.ndarray, ws: _Block) -> list:
        """One-sided differences (u[k+1] - u[k]) / dx along each axis, on every face."""
        for i, q in enumerate(ws.faces):
            np.subtract(f[self.face_hi[i]], f[self.face_lo[i]], out=q)
            op, c = self.by_dx[i]
            op(q, c, out=q)
        return ws.faces

    def face_jump(self, faces: list, i: int, out: np.ndarray) -> np.ndarray:
        """Forward minus backward one-sided difference along axis i."""
        return np.subtract(faces[i][self.mid], faces[i][self.minus[i]], out=out)

    def centred(self, f: np.ndarray, ws: _Block) -> list:
        """Centred first differences, the interior formula of np.gradient."""
        for i, g in enumerate(ws.grads):
            np.subtract(f[self.plus[i]], f[self.minus[i]], out=g)
            op, c = self.by_2dx[i]
            op(g, c, out=g)
        return ws.grads

    def second_diffs(self, f: np.ndarray, ws: _Block) -> dict:
        """Centred second differences keyed (i, j) with i <= j."""
        two_mid = np.multiply(f[self.mid], 2.0, out=ws.work[0])
        for i in range(self.d):
            h = np.subtract(f[self.plus[i]], two_mid, out=ws.hess[(i, i)])
            h += f[self.minus[i]]
            op, c = self.by_dx2[i]
            op(h, c, out=h)
        for (i, j), (pp, pm, mp, mm) in self.cross.items():
            h = np.subtract(f[pp], f[pm], out=ws.hess[(i, j)])
            h -= f[mp]
            h += f[mm]
            op, c = self.by_cross[(i, j)]
            op(h, c, out=h)
        return ws.hess


class _Workspace:
    """Every array a substep writes, for blocks of up to n rows.

    One is made per solve, sized for all its rows.  The arrays the stencil
    writes are flat buffers of n * size values, aligned with the nodes of a
    flat block: the windows of a block of k rows are buf[lo:hi] and its
    faces buf[:k * size - stride] of the k-row stencil.  rows(k) gives those
    views, so a substep allocates nothing the size of the grid, and every
    value gets the float operations it got when each array was new.

    The diffusion term is built after the gradients, the faces and |q| are
    spent, so its Hessian and scratch (hess, work) are windows of those
    buffers (`spent`); where they are too few (d >= 3), more are allocated.
    """

    def __init__(self, st: _Stencil, n: int):
        self.shape, self.dx = st.shape, st.dx
        flat = (n * st.size,)
        self.grads = [np.zeros(flat) for _ in range(st.d)]  # grads[0] ends as a|Du|^p
        self.faces = [np.zeros(flat) for _ in range(st.d)]
        self.rhs = np.zeros(flat)  # also the LF jump and the power's held rows
        self.grid = np.zeros(flat)  # |q| and |u| for the row maxima
        self.spent = self.grads + self.faces + [self.grid]
        self.spent += [np.zeros(flat) for _ in range(st.d * (st.d + 1) // 2 + 2 - len(self.spent))]
        grid = (n,) + st.shape
        self.coeff = np.empty(grid)  # samples of the coefficient and forcing
        self.forcing = np.empty(grid)
        self.u = np.empty(grid)  # the block's values
        self.half_alpha = np.empty((n, 1))
        self.dt = np.empty((n, 1))
        self._blocks = {}

    def rows(self, k: int) -> _Block:
        """The views of a block of k rows, built once per k.

        A larger block's windows reach into the first k rows' last lo
        values, which a k-row block's whole-row arithmetic reads, so those
        are zeroed, as they were when the buffers were made.
        """
        if k not in self._blocks:
            self._blocks[k] = _Block(self, k)
        block = self._blocks[k]
        for tail in block.tails:
            tail.fill(0.0)
        return block


class _Block:
    """The arrays of a workspace for a block of k rows, and its k-row stencil st.

    The windows, faces and grid-shaped arrays are views of the workspace's
    first k rows.  The _rows arrays view whole rows (k, size) of the same
    buffers: the per-row numbers of a block (alpha/2, dt, an exponent per
    row, a trace matrix per row) apply there, on contiguous memory.  Outside
    the windows they hold zeros or what this block's substep wrote (faces,
    |u|), never what a larger block's windows left: rows(k) zeroes that.
    """

    def __init__(self, ws: _Workspace, k: int):
        st = self.st = _Stencil(ws.shape, ws.dx, k)
        self.grads = [b[st.mid] for b in ws.grads]
        self.faces = [b[:st.length - s] for b, s in zip(ws.faces, st.strides)]
        self.rhs = ws.rhs[st.mid]
        # |q| of each face array, on the grid scratch, and the faces of it
        self.abs_faces = [ws.grid[:q.size] for q in self.faces]
        self.abs_face_views = [st.face_view(q, i) for i, q in enumerate(self.abs_faces)]
        self.grid = ws.grid[:st.length].reshape((k,) + st.shape)
        keys = [(i, i) for i in range(st.d)] + list(st.cross)
        self.hess = {key: b[st.mid] for key, b in zip(keys, ws.spent)}
        self.hess_rows = {key: st.whole(b) for key, b in zip(keys, ws.spent)}
        work = ws.spent[len(keys):len(keys) + 2]
        self.work = tuple(b[st.mid] for b in work)  # 2 u, m+/- radius, trace terms
        self.term_rows = st.whole(work[1])
        self.rhs_rows, self.g2_rows = st.whole(ws.rhs), st.whole(ws.grads[0])
        self.coeff, self.forcing, self.u = ws.coeff[:k], ws.forcing[:k], ws.u[:k]
        self.half_alpha, self.dt = ws.half_alpha[:k], ws.dt[:k]
        self.tails = [b[st.hi:st.length] for b in [ws.rhs] + ws.spent]


def _extremal_field(hess: dict, d: int, sign: int, work: tuple) -> np.ndarray:
    """m+ (sign > 0) or m- of the discrete Hessian at every node, for d in {1, 2}.

    Written over hess[(0, 0)], with work as _mid_rad's scratch: the entries
    are consumed.
    """
    if d > 2:
        raise DomainError(f"m+/- diffusion supports d in {{1, 2}}, got {d}")
    h = hess[(0, 0)]
    if d == 2:
        h, rad = _mid_rad(h, hess[(1, 1)], hess[(0, 1)], work)
        (np.add if sign > 0 else np.subtract)(h, rad, out=h)
    return np.maximum(h, 0.0, out=h) if sign > 0 else np.minimum(h, 0.0, out=h)


# ---------------------------------------------------------------------------
# Rows: one or more problems on one grid, flattened one after another
# ---------------------------------------------------------------------------


def _column(values: list, ndim: int) -> np.ndarray:
    """Per-row numbers as a column that broadcasts over rows of fields with
    ndim axes per row: d on the grid, 1 in a block's whole rows."""
    return np.array(values, ndmin=ndim + 1).T


def _stack_rows(values: list, st: _Stencil) -> tuple:
    """Per-row numbers or grid fields as one block: (grid values, interior values).

    The values are broadcast to the grid and stacked on a leading row axis,
    so each row holds the values it would hold alone.
    """
    full = np.stack([np.broadcast_to(v, st.shape) for v in values])
    return full, st.interior(full)


def _row_max(x: np.ndarray) -> list:
    """max of each leading row of x as Python floats."""
    return np.maximum.reduce(x, axis=tuple(range(1, x.ndim))).tolist()


# ndarray ** number sends these exponents to square, sqrt, reciprocal, ...
# instead of power, and the bits can differ from power's
_POWER_FAST_PATHS = frozenset({-1.0, 0.0, 0.5, 1.0, 2.0})


class _RowExponent:
    """One exponent per row of a block's whole rows, applied as x[r] ** e[r]
    would be, bit for bit: one number when the rows agree, else a column.

    numpy's power with a column gives the bits of power with a number, but
    ndarray ** number special-cases a few exponents (_POWER_FAST_PATHS); in
    a column the rows with those are redone with the number, from their
    values before the power.
    """

    def __init__(self, exponents: list):
        same = all(e == exponents[0] for e in exponents)
        self.exponent = exponents[0] if same else _column(exponents, 1)
        self.redo = [(r, e) for r, e in enumerate(exponents) if not same and e in _POWER_FAST_PATHS]

    def power(self, x: np.ndarray, held: np.ndarray) -> np.ndarray:
        """x ** e in place; held, shaped like x, keeps the redone rows meanwhile."""
        for r, _ in self.redo:
            held[r] = x[r]
        x **= self.exponent
        for r, e in self.redo:
            row = x[r]
            row[...] = held[r]
            row **= e
        return x


class _Field:
    """A coefficient or forcing of one spec, as the solver samples it.

    None is the number 0.  A number is its own value (`fixed`), which the
    block samplers broadcast to the grid; a time-independent SeparableField
    is sampled once, at t0 (`fixed` too); a separable field with a time
    factor keeps its space factor (`space`), evaluated once, and costs
    base + space * time(t) per call; any other callable is sampled on every
    call.  Each path gives the bits that field(*coords, t) would.
    """

    def __init__(self, field, coords, t0):
        self.field, self.coords = field, coords
        self.fixed = self.space = None
        declared = isinstance(field, SeparableField)
        if declared and field.time is not None:
            # on the whole grid, so that block samplers can take windows of it
            self.space = np.broadcast_to(np.asarray(field.space(*coords), dtype=float),
                                         coords[0].shape)
        elif declared:
            self.fixed = self.at(t0)
        elif not callable(field):
            self.fixed = 0.0 if field is None else float(field)

    def at(self, t):
        """Values at time t: on the grid, or one number for a constant field."""
        if self.space is not None:
            return np.asarray(self.field.base + self.space * self.field.time(t), dtype=float)
        if self.fixed is not None:
            return self.fixed
        return np.asarray(self.field(*self.coords, t), dtype=float)


def _block_sampler(fields: list, st: _Stencil, full: np.ndarray):
    """The fields of a block's rows as ts -> (grid values, interior values), one time per row.

    Fixed fields are stacked once.  Every other kind is written into full,
    one grid per row: separable fields with a time factor as base + space *
    time for all rows at once, with a column of bases, the stacked space
    factors and a column of time factors; any other mix row by row.
    """
    if all(f.fixed is not None for f in fields):
        fixed = _stack_rows([f.fixed for f in fields], st)
        return lambda ts: fixed
    mid = st.interior(full)
    if all(f.space is not None for f in fields):
        base = _column([f.field.base for f in fields], st.d)
        space = _stack_rows([f.space for f in fields], st)[0]
        times = [f.field.time for f in fields]
        factors = np.empty(base.shape)

        def separable(ts):
            factors.flat = [time(t) for time, t in zip(times, ts)]
            # the bits of base + space * factor
            np.multiply(space, factors, out=full)
            return np.add(full, base, out=full), mid

        return separable

    def by_row(ts):
        for row, f, t in zip(full, fields, ts):
            row[...] = f.at(t)
        return full, mid

    return by_row


def _block_source(fields: list, st: _Stencil, shift: float, full: np.ndarray):
    """The block's forcing minus shift on the interior, as (ts, out) -> values;
    a fixed forcing's is formed once, any other is written into out."""
    sample = _block_sampler(fields, st, full)
    if all(f.fixed is not None for f in fields):
        fixed = sample(None)[1] - shift
        return lambda ts, out: fixed
    return lambda ts, out: np.subtract(sample(ts)[1], shift, out=out)


def _hamiltonian(a, grads: list, half: _RowExponent, ws: _Block):
    """a |Du|^p from the centred gradient in ws, with half the rows' p/2, on
    ws's whole rows (ws.rhs holds the redone ones); shared by solver and
    residual.  Works in place on the arrays of grads, so they are consumed;
    the result is grads[0]."""
    g2 = grads[0]
    g2 *= g2  # the bits of sum(g**2 for g in grads): squares are >= +0
    for g in grads[1:]:
        g *= g
        g2 += g
    half.power(ws.g2_rows, ws.rhs_rows)
    g2 *= a
    return g2


def _diffusion_bounds(diff, coords, ts: list, d: int) -> tuple:
    """The matrices B of a trace diffusion at each time in ts (None for the
    other kinds) and each row's ellipticity bound Lambda."""
    if diff is None:
        return None, [0.0] * len(ts)
    if isinstance(diff, ExtremalDiffusion):
        return None, [diff.coeff] * len(ts)
    if isinstance(diff, TraceDiffusion):
        bs = [diff.matrix_at(coords, t, d) for t in ts]
        # max |b| as max(max b, -min b): the same number, without an |b| array
        return bs, [max(float(np.max(b)), -float(np.min(b))) * d for b in bs]
    raise DomainError(f"unknown diffusion spec {type(diff)!r}")


def _diffusion_term(diff, st: _Stencil, f, bs, ws: _Block):
    """Interior diffusion term of u, with bs from _diffusion_bounds, in ws.

    f is the stencil's flat view of a block with one row per matrix in bs.
    The term is built in ws's gradient, face and grid arrays, so it is
    called once those are spent.
    """
    if diff is None:
        return 0.0
    hess = st.second_diffs(f, ws)
    if bs is None:
        m = _extremal_field(hess, st.d, diff.sign, ws.work)
        m *= diff.coeff
        return m
    total, term = ws.work
    total.fill(0.0)
    for i in range(st.d):
        for j in range(st.d):
            h = ws.hess_rows[(min(i, j), max(i, j))]
            for r, b in enumerate(bs):
                # a view of the entry on the grid: stride 0 for a constant
                bij = np.broadcast_to(b[i, j], st.shape).reshape(st.size)
                np.multiply(bij, h[r], out=ws.term_rows[r])
            total += term
    return total


def solve_hj(spec, init, bc, cfg: SolveConfig):
    """Explicit Lax-Friedrichs solve; returns the solution on the output grid.

    init is a callable init(*coords) or an array on the spatial grid; bc is a
    Dirichlet callable bc(*coords, t) applied on the box faces every substep.
    The step is dt = cfl/rate with rate = alpha sum_i 1/dx_i + 2 Lambda sum_i
    1/dx_i^2 (capped at the next output time), so that a substep weighs each
    node's own value by 1 - cfl > 0; in 1-D that makes the substep monotone.
    In 2-D the centred cross difference of m+/- and of an off-diagonal trace
    term is not monotone at any dt.

    Given sequences of specs, inits and bcs (one row each), the rows are
    solved together, as one flat block of the same loop, and a list
    comes back with one entry per row: its GridFunction, or the Blowup or
    CflViolation that stopped that row while the others went on.  The rows
    share cfg and the specs' diffusion and shift (DomainError otherwise);
    each row keeps its own clock, dt, LF alpha, checks and warnings, and
    gets the bits it would get alone.

    Initial data that is not finite on the grid is a DomainError, raised
    before the first step.  An LF alpha that overflows a float is infinite,
    so its row fails the CFL floor; a value that is nan is a Blowup.
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
    # a substep weighs its own node by 1 - dt * (alpha * inv_dx + 2 Lambda * inv_dx2)
    # through the LF and axis diffusion terms; dt = cfl / rate keeps it at 1 - cfl
    inv_dx = sum(1.0 / h for h in dx)
    inv_dx2 = sum(1.0 / h**2 for h in dx)
    coords = cfg.coords()
    shape = tuple(cfg.nx)
    n_all = len(specs)

    u_all = np.empty((n_all,) + shape)
    coeffs, forcings = [], []
    for r, (spec, init) in enumerate(zip(specs, inits)):
        if callable(init):
            with np.errstate(all="ignore"):  # an overflow is reported below
                u_all[r] = np.broadcast_to(init(*coords), shape)
        else:
            u0 = np.asarray(init, dtype=float)
            if u0.shape != shape:
                raise DomainError(f"init shape {u0.shape} != grid shape {shape}")
            u_all[r] = u0
        if not np.isfinite(u_all[r]).all():
            raise DomainError(f"initial data of row {r} is not finite on the grid")
        coeffs.append(_Field(spec.coefficient, coords, cfg.t0))
        forcings.append(_Field(spec.forcing, coords, cfg.t0))
        A = spec.params.A
        a0 = coeffs[r].at(cfg.t0)
        if np.any(a0 < 1.0 / A - 1e-12) or np.any(a0 > A + 1e-12):
            logger.warning(
                "coefficient leaves [1/A, A] = [%g, %g] (range [%g, %g]); "
                "theorem hypotheses do not apply",
                1.0 / A, A, float(np.min(a0)), float(np.max(a0)),
            )
    if isinstance(diffusion, TraceDiffusion):
        b0 = diffusion.matrix_at(coords, cfg.t0, d)
        lam_min = sym_eigs(np.moveaxis(b0, (0, 1), (-2, -1)))[..., 0].min()
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
    failed = [None] * n_all
    ws = _Workspace(_Stencil(shape, dx), n_all)
    # active row set -> (coefficient, forcing, exponent), built once per set
    blocks = {}

    for n in range(1, cfg.nt):
        t_target = times_out[n]
        t_done = t_target - 1e-14 * (1.0 + abs(t_target))
        rows = [r for r in range(n_all) if failed[r] is None and clock[r] < t_done]
        while rows:
            bws = ws.rows(len(rows))
            st = bws.st
            if tuple(rows) not in blocks:
                blocks[tuple(rows)] = (
                    _block_sampler([coeffs[r] for r in rows], st, bws.coeff),
                    _block_source([forcings[r] for r in rows], st, shift, bws.forcing),
                    _RowExponent([ps[r] / 2.0 for r in rows]))
            coeff, source, half = blocks[tuple(rows)]
            u = np.take(u_all, rows, axis=0, out=bws.u)  # written back once the block changes
            f = st.flat(u)  # a view: u is contiguous
            flats = st.whole(f)
            stepping = True
            while stepping:
                ts = [clock[r] for r in rows]
                a, a_mid = coeff(ts)
                bs, lams = _diffusion_bounds(diffusion, coords, ts, d)
                faces = st.face_diffs(f, bws)
                qmaxes = [0.0] * len(rows)
                for q, absq, absq_faces in zip(faces, bws.abs_faces, bws.abs_face_views):
                    np.abs(q, out=absq)
                    qmaxes = list(map(max, qmaxes, _row_max(absq_faces)))
                half_alphas, dts = [], []
                for r, qmax, amax, lam in zip(rows, qmaxes, _row_max(a), lams):
                    p = ps[r]
                    try:
                        alpha = p * amax * qmax ** (p - 1.0) if qmax > 0 else 0.0
                    except OverflowError:  # float ** float raises where ndarray ** gives inf
                        alpha = math.inf
                    alpha = max(alpha, cfg.lf_alpha_floor)
                    half_alphas.append(0.5 * alpha)

                    rate = alpha * inv_dx + 2.0 * lam * inv_dx2
                    dt_stab = cfg.cfl / rate if rate > 0 else math.inf
                    if dt_stab < DT_FLOOR:
                        failed[r] = CflViolation(f"stable step {dt_stab:g} below floor "
                                                 f"{DT_FLOOR:g} at t={clock[r]:g}")
                        stepping = False
                    dts.append(min(dt_stab, t_target - clock[r]))
                if not stepping:
                    # nothing moves: the other rows take this step from the same
                    # state in the block without the failed one, with the same bits
                    break

                rhs, rhs_rows = bws.rhs, bws.rhs_rows
                hamil = _hamiltonian(a_mid, st.centred(f, bws), half, bws)
                bws.half_alpha[:, 0] = half_alphas
                bws.dt[:, 0] = dts
                for i in range(d):
                    jump = st.face_jump(faces, i, rhs)
                    rhs_rows *= bws.half_alpha  # the jump's rows
                    hamil -= jump
                np.subtract(source(ts, rhs), hamil, out=rhs)
                rhs += _diffusion_term(diffusion, st, f, bs, bws)
                rhs_rows *= bws.dt
                # boundary-column and row-seam positions of the window get
                # written here and reset below, before anything reads them
                f[st.mid] += rhs

                for r, dt, flat in zip(rows, dts, flats):
                    clock[r] = min(clock[r] + dt, t_target)
                    flat[bidx] = bcs[r](*bcoords, clock[r])
                # the block changes when a row fails or reaches the output time
                bounds = _row_max(np.abs(flats[:, bidx]))
                for r, bound, peak in zip(rows, bounds, _row_max(np.abs(u, out=bws.grid))):
                    data_bound[r] = max(data_bound[r], bound)
                    if not peak <= BLOWUP_FACTOR * (1.0 + data_bound[r]):
                        failed[r] = Blowup(f"values exceeded {BLOWUP_FACTOR:g}*(1+data "
                                           f"bound) at t={clock[r]:g}")
                        stepping = False
                    elif clock[r] >= t_done:
                        stepping = False
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
    ws = _Workspace(_Stencil(u.n_space, list(u.spacing_x)), 1).rows(1)  # one block row
    st = ws.st
    coeff = _block_sampler([_Field(spec.coefficient, coords, ts[0])], st, ws.coeff)
    forcing = _block_sampler([_Field(spec.forcing, coords, ts[0])], st, ws.forcing)
    half = _RowExponent([spec.params.p / 2.0])  # one row: rhs, in use as res, stays unread
    by_dt = _divisor(u.spacing_t)

    worst = -math.inf if side == "sub" else math.inf
    worst_idx = None
    # time slices n - 1 and n as contiguous rows, and the interior nodes of a residual
    slices = np.empty((2, 1) + st.shape)
    res_inner = np.empty(st.inner_box)
    np.copyto(slices[0], u.values[None, ..., 0])
    for n in range(1, u.n_time):
        prev, fn = st.flat(slices[(n - 1) % 2]), st.flat(slices[n % 2])
        np.copyto(slices[n % 2], u.values[None, ..., n])
        res = np.subtract(fn[st.mid], prev[st.mid], out=ws.rhs)
        op, c = by_dt
        op(res, c, out=res)
        a = coeff([ts[n]])[1]
        bs, _ = _diffusion_bounds(spec.diffusion, coords, [ts[n]], d)
        # the Hamiltonian first: the diffusion is built in its spent arrays
        res += _hamiltonian(a, st.centred(fn, ws), half, ws)
        res -= _diffusion_term(spec.diffusion, st, fn, bs, ws)
        res -= forcing([ts[n]])[1]
        res += spec.shift
        # argmin/argmax copy a strided array first: take the copy here
        np.copyto(res_inner, st.inner(res))
        k = int(np.argmax(res_inner) if side == "sub" else np.argmin(res_inner))
        idx = np.unravel_index(k, res_inner.shape)
        val = float(res_inner[idx])
        if (val > worst) if side == "sub" else (val < worst):
            worst = val
            # interior index -> grid index: one boundary layer per axis
            worst_idx = tuple(i + 1 for i in idx[1:]) + (n,)

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
    fails (a premise check, not a bug); grids that differ are a DomainError.
    """
    grids = [(u.values.shape, u.origin, u.spacing_x, u.t0, u.spacing_t) for u in (lower, upper)]
    if grids[0] != grids[1]:
        raise DomainError("lower and upper must live on the same grid")
    box, mask = lower.cylinder_box(on)
    if not mask.any():
        raise EmptyIntersection("cylinder misses the grid")
    # every neighbour of a box-edge node outside the box is outside q, and the
    # slab fills the box's time axis: a node off the box's edges is interior
    # when its two neighbours on each space axis are in q
    d = lower.dim
    inner = (slice(1, -1),) * d + (slice(1, None),)
    inter = np.zeros_like(mask)
    inter[inner] = mask[inner]
    for axis in range(d):
        lo, hi = list(inner), list(inner)
        lo[axis], hi[axis] = slice(None, -2), slice(2, None)
        inter[inner] &= mask[tuple(lo)] & mask[tuple(hi)]
    boundary = mask & ~inter

    excess = lower.values[box] - upper.values[box]
    b_excess = float(excess[boundary].max())  # the box's first time slice is boundary
    if b_excess > BOUNDARY_TOL:
        raise BoundaryOrderingFailed(
            f"lower exceeds upper by {b_excess:g} on the parabolic boundary"
        )
    if inter.any():
        idx = np.unravel_index(int(np.argmax(np.where(inter, excess, -math.inf))), excess.shape)
        i_excess = float(excess[idx])
        worst = tuple(int(s.start + i) for s, i in zip(box, idx))
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
    """Riemann-sum approximation of (integral over q of |f|^m)^(1/m), m finite."""
    if not 1.0 <= m < math.inf:
        raise DomainError(f"m must be >= 1 and finite, got {m}")
    cell = float(np.prod(f.spacing_x)) * f.spacing_t
    return float((np.sum(np.abs(f.values_in(q)) ** m) * cell) ** (1.0 / m))
