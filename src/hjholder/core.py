"""Shared domain types: equation parameters, parabolic cylinders, grid functions.

A parabolic cylinder Q_r(x, t) is the set B_r(x) x [t - r^beta, t].  Spatial
membership is the *open* Euclidean ball; the time slab is closed on both ends
(with a tiny relative tolerance so that nodes sitting exactly on a slab
endpoint are kept regardless of rounding).  Oscillations are evaluated over
grid nodes only, with no interpolation.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, EmptyIntersection

_TIME_TOL = 1e-12


def as_number(value, what: str, integral: bool = False):
    """value as a finite float, or as an int when integral; DomainError naming `what` otherwise.

    Integral floats such as 33.0 and numpy integers count as whole numbers.
    A string, bytes or a bool is no number, although float() reads them.
    """
    not_a_number = DomainError(f"{what} must be a number, got {value!r}")
    if isinstance(value, (str, bytes, bool, np.bool_)):
        raise not_a_number
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise not_a_number from exc
    if not math.isfinite(x):
        raise DomainError(f"{what} must be a finite number, got {value!r}")
    if not integral:
        return x
    if not x.is_integer():
        raise DomainError(f"{what} must be a whole number, got {value!r}")
    return int(x)


def require_float64_count(factors, what: str) -> None:
    """DomainError naming `what`, before anything is allocated, when the product
    of the integer factors (>= 0) is more float64 values than an array can
    hold; it stops at the first partial product over the limit."""
    limit = np.iinfo(np.intp).max // 8
    n = 1
    for f in factors:
        n *= f
        if n > limit:
            raise DomainError(f"{what}: more than {limit} float64 values, "
                              "the most an array can hold")


@dataclass(frozen=True)
class EquationParams:
    """Exponents and coefficients (p, A, d, m) of the model inequalities.

    p is the gradient-growth exponent (finite, > 1), A the coercivity constant
    (finite, > 0), d the spatial dimension and m the optional Lebesgue exponent
    of the forcing (finite, > 1).  The conjugate exponent p' = p/(p-1) is
    always derived from p, never stored.
    """

    p: float = 3.0
    A: float = 1.0
    d: int = 1
    m: float | None = None

    def __post_init__(self):
        if not 1.0 < self.p < math.inf:
            raise DomainError(f"p must be > 1 and finite, got {self.p}")
        if not 0.0 < self.A < math.inf:
            raise DomainError(f"A must be > 0 and finite, got {self.A}")
        if int(self.d) != self.d or self.d < 1:
            raise DomainError(f"d must be a positive integer, got {self.d}")
        if self.m is not None and not 1.0 < self.m < math.inf:
            raise DomainError(f"m must be > 1 and finite when given, got {self.m}")

    @property
    def p_prime(self) -> float:
        return self.p / (self.p - 1.0)

    def require_superquadratic(self, what: str = "this operation") -> None:
        if not self.p > 2.0:
            raise DomainError(f"{what} requires p > 2, got p = {self.p}")


@dataclass(frozen=True)
class ParabolicCylinder:
    """Q_r(x, t) = B_r(x) x [t - r^beta, t]."""

    center_x: tuple
    top_t: float
    radius: float
    beta: float

    def __post_init__(self):
        center = tuple(float(c) for c in np.atleast_1d(self.center_x))
        object.__setattr__(self, "center_x", center)
        if not self.radius > 0.0:
            raise DomainError(f"radius must be > 0, got {self.radius}")
        if not self.beta > 0.0:
            raise DomainError(f"beta must be > 0, got {self.beta}")

    @property
    def t_bottom(self) -> float:
        return self.top_t - self.radius**self.beta

    def scaled(self, lam: float) -> "ParabolicCylinder":
        """Q_{lam * r} with the same center, top time and beta."""
        if not 0.0 < lam:
            raise DomainError(f"scale factor must be positive, got {lam}")
        return replace(self, radius=lam * self.radius)


def _span(mask: np.ndarray) -> slice:
    """The shortest slice of a 1-D mask that holds all its True entries."""
    hits = np.flatnonzero(mask)
    return slice(int(hits[0]), int(hits[-1]) + 1) if hits.size else slice(0, 0)


@dataclass(frozen=True)
class GridFunction:
    """Scalar values on a uniform space-time grid over a box x interval.

    values has shape (*n_space, n_time); node coordinates are the exact
    affine images  x_i[j] = origin[i] + j*spacing_x[i],  t[n] = t0 + n*spacing_t.
    """

    origin: tuple
    spacing_x: tuple
    t0: float
    spacing_t: float
    values: np.ndarray

    def __post_init__(self):
        origin = tuple(float(c) for c in np.atleast_1d(self.origin))
        spacing = tuple(float(c) for c in np.atleast_1d(self.spacing_x))
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "spacing_x", spacing)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        d = len(origin)
        if vals.ndim != d + 1:
            raise DomainError(
                f"values must have {d + 1} axes (space... , time), got {vals.ndim}"
            )
        if len(spacing) != d or any(h <= 0 for h in spacing):
            raise DomainError("spacing_x must be positive, one entry per axis")
        if not self.spacing_t > 0:
            raise DomainError("spacing_t must be > 0")
        if not all(map(math.isfinite, origin + spacing + (self.t0, self.spacing_t))):
            raise DomainError("grid origin, spacing_x, t0 and spacing_t must be finite")
        if not np.all(np.isfinite(vals)):
            raise DomainError("grid values must all be finite")

    @property
    def dim(self) -> int:
        return len(self.origin)

    @property
    def n_space(self) -> tuple:
        return self.values.shape[:-1]

    @property
    def n_time(self) -> int:
        return self.values.shape[-1]

    @property
    def t1(self) -> float:
        return self.t0 + (self.n_time - 1) * self.spacing_t

    def axis_coords(self, axis: int) -> np.ndarray:
        return self.origin[axis] + self.spacing_x[axis] * np.arange(
            self.values.shape[axis]
        )

    def times(self) -> np.ndarray:
        return self.t0 + self.spacing_t * np.arange(self.n_time)

    def space_points(self) -> np.ndarray:
        """All spatial node coordinates, shape (*n_space, d)."""
        axes = [self.axis_coords(i) for i in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def ball_box(self, center, radius: float) -> tuple:
        """(box, mask) of the spatial nodes in the open ball B_radius(center).

        box holds one slice per space axis, spanning the nodes whose offset
        on that axis alone is below the radius; mask, of the box's shape,
        marks the nodes in the ball.  Every node outside the box is outside
        the ball: the squared distance is 0.0 + sum over the axes of
        (x_i - c_i)^2, and a sum of nonnegative floats is never below one of
        its terms.
        """
        r2 = radius**2
        box, dist2 = [], 0.0
        for i in range(self.dim):
            term = (self.axis_coords(i) - center[i]) ** 2
            window = _span(term < r2)
            shape = [1] * self.dim
            shape[i] = -1
            box.append(window)
            dist2 = dist2 + term[window].reshape(shape)
        return tuple(box), dist2 < r2

    def region_box(self, center, radius: float, t_lo: float, t_hi: float) -> tuple:
        """(box, mask) of the nodes in B_radius(center) x [t_lo, t_hi]: box holds a
        slice per axis of values, and mask, of its shape, marks the nodes in the
        region, so values[box][mask] are its values in C order; no node outside
        the box is in the region.  The slab is widened on each end by
        _TIME_TOL * (1 + |t_lo| + |t_hi|)."""
        if len(center) != self.dim:
            raise DomainError(f"cylinder dim {len(center)} != grid dim {self.dim}")
        sp_box, sp_mask = self.ball_box(center, radius)
        ts = self.times()
        tol = _TIME_TOL * (1.0 + abs(t_hi) + abs(t_lo))
        t_mask = (ts >= t_lo - tol) & (ts <= t_hi + tol)
        t_box = _span(t_mask)
        return sp_box + (t_box,), sp_mask[..., None] & t_mask[t_box]

    def cylinder_box(self, q: ParabolicCylinder) -> tuple:
        """region_box of the cylinder q = B_r(x) x [t - r^beta, t]."""
        return self.region_box(q.center_x, q.radius, q.t_bottom, q.top_t)

    def values_in(self, q: ParabolicCylinder) -> np.ndarray:
        """The values at the nodes inside q, in the grid's C order.

        Raises EmptyIntersection when no node lies in the cylinder.
        """
        box, mask = self.cylinder_box(q)
        if not mask.any():
            raise EmptyIntersection(f"no grid node inside cylinder {q}")
        return self.values[box][mask]

    def node_mask(self, q: ParabolicCylinder) -> np.ndarray:
        """Boolean mask over values marking nodes inside the cylinder."""
        box, mask = self.cylinder_box(q)
        out = np.zeros(self.values.shape, dtype=bool)
        out[box] = mask
        return out

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return replace(self, values=np.asarray(values, dtype=float))


@dataclass(frozen=True)
class HolderEstimate:
    """Result of a log-log oscillation fit: osc(r) ~ c_hat * r^alpha_hat."""

    samples: tuple
    alpha_hat: float
    c_hat: float
    max_fit_residual: float


def osc_over_cylinder(u: GridFunction, q: ParabolicCylinder) -> float:
    """max - min of u over the grid nodes lying in q (>= 0).

    Raises EmptyIntersection when no node lies in the cylinder.
    """
    vals = u.values_in(q)
    return float(vals.max() - vals.min())


def shift_normalize(u: GridFunction, q: ParabolicCylinder) -> GridFunction:
    """u minus its minimum over q; the minimum of the result over q is 0."""
    return u.with_values(u.values - u.values_in(q).min())


# ---------------------------------------------------------------------------
# Serialization.  Two equivalent containers (documented in the README):
#   * binary: magic "HJGRID1\n", then little-endian int64 d, float64 origin[d],
#     float64 spacing_x[d], float64 t0, float64 spacing_t, int64 extent[d+1],
#     float64 values flattened in C order;
#   * CSV: "# key,value..." header rows for the same metadata, then one value
#     per line ("%.17g", exact float64 round trip) in C order.
# ---------------------------------------------------------------------------

_MAGIC = b"HJGRID1\n"


def save_grid(u: GridFunction, path: str) -> None:
    if str(path).endswith(".csv"):
        _save_csv(u, path)
    else:
        _save_binary(u, path)


def load_grid(path: str) -> GridFunction:
    with open(path, "rb") as fh:
        head = fh.read(len(_MAGIC))
    if head == _MAGIC:
        return _load_binary(path)
    return _load_csv(path)


def _save_binary(u: GridFunction, path: str) -> None:
    d = u.dim
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<q", d))
        fh.write(np.asarray(u.origin, dtype="<f8").tobytes())
        fh.write(np.asarray(u.spacing_x, dtype="<f8").tobytes())
        fh.write(struct.pack("<dd", u.t0, u.spacing_t))
        fh.write(np.asarray(u.values.shape, dtype="<i8").tobytes())
        # the array's own buffer: a copy only when values are not C-ordered <f8
        fh.write(np.ascontiguousarray(u.values, dtype="<f8").data)


def _load_binary(path: str) -> GridFunction:
    """Read the header with bounded reads, check the size it promises against
    the file's, then read the values straight into their array."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise DomainError(f"{path} is not a grid file")
        pos = len(_MAGIC)

        def short(n: int, got: int) -> DomainError:
            return DomainError(f"{path}: grid file ends {n - got} bytes "
                               "short of what its header promises")

        def take(n: int) -> bytes:
            nonlocal pos
            if size - pos < n:
                raise short(n, size - pos)
            data = fh.read(n)
            if len(data) < n:  # the file shrank since fstat
                raise short(n, len(data))
            pos += n
            return data

        (d,) = struct.unpack("<q", take(8))
        if d < 1:
            raise DomainError(f"{path}: grid dimension must be >= 1, got {d}")
        origin = np.frombuffer(take(8 * d), dtype="<f8")
        spacing = np.frombuffer(take(8 * d), dtype="<f8")
        t0, dt = struct.unpack("<dd", take(16))
        extent = tuple(int(n) for n in np.frombuffer(take(8 * (d + 1)), dtype="<i8"))
        if any(n < 1 for n in extent):
            raise DomainError(f"{path}: grid extent must be positive, got {extent}")
        count = math.prod(extent)
        n_bytes = 8 * count
        if size - pos < n_bytes:
            raise short(n_bytes, size - pos)
        if size - pos > n_bytes:
            raise DomainError(f"{path}: {size - pos - n_bytes} bytes after the grid values")
        vals = np.empty(extent, dtype="<f8")
        got = fh.readinto(vals.data)
        if got < n_bytes:  # the file shrank since fstat
            raise short(n_bytes, got)
    return GridFunction(tuple(origin), tuple(spacing), t0, dt, vals)


def _save_csv(u: GridFunction, path: str) -> None:
    def fmt(x):
        return "%.17g" % x

    lines = ["# hjgrid,1"]
    lines.append("# d," + str(u.dim))
    lines.append("# origin," + ",".join(fmt(c) for c in u.origin))
    lines.append("# spacing_x," + ",".join(fmt(c) for c in u.spacing_x))
    lines.append("# t0," + fmt(u.t0))
    lines.append("# spacing_t," + fmt(u.spacing_t))
    lines.append("# extent," + ",".join(str(n) for n in u.values.shape))
    lines.extend(fmt(v) for v in u.values.ravel(order="C"))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _load_csv(path: str) -> GridFunction:
    header = {}
    body = []
    with open(path, errors="replace") as fh:  # undecodable bytes fail as values or header
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split(",")
                header[parts[0].strip()] = [s.strip() for s in parts[1:]]
            else:
                try:
                    body.append(float(line))
                except ValueError:
                    raise DomainError(f"{path}: grid value {line!r} is not a number") from None
    try:
        origin = tuple(float(s) for s in header["origin"])
        spacing = tuple(float(s) for s in header["spacing_x"])
        t0 = float(header["t0"][0])
        dt = float(header["spacing_t"][0])
        extent = tuple(int(s) for s in header["extent"])
    except KeyError as exc:
        raise DomainError(f"{path}: missing grid header row {exc}") from exc
    except (ValueError, IndexError) as exc:
        raise DomainError(f"{path}: bad grid header: {exc}") from exc
    if any(n < 1 for n in extent):
        raise DomainError(f"{path}: grid extent must be positive, got {extent}")
    if len(body) != math.prod(extent):
        raise DomainError(f"{path}: {len(body)} grid values, but the extent {extent} "
                          f"needs {math.prod(extent)}")
    vals = np.asarray(body, dtype=float).reshape(extent)
    return GridFunction(origin, spacing, t0, dt, vals)
