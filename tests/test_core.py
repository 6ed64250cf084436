import math
import struct
import tracemalloc

import numpy as np
import pytest

from hjholder.core import (
    EquationParams,
    GridFunction,
    ParabolicCylinder,
    cylinder_depth,
    load_grid,
    osc_over_cylinder,
    save_grid,
    shift_normalize,
)
from hjholder.errors import DomainError, EmptyIntersection


def traced_peak(fn):
    """(result, peak bytes traced while fn runs, above what was traced before)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def grid_1d(values, xmin=-1.0, xmax=1.0, t0=-1.0, t1=0.0):
    values = np.asarray(values, dtype=float)
    nx, nt = values.shape
    return GridFunction(
        (xmin,), ((xmax - xmin) / (nx - 1),), t0, (t1 - t0) / (nt - 1), values
    )


def sampled_1d(fn, nx=101, nt=11, xmin=-1.0, xmax=1.0, t0=-1.0, t1=0.0):
    xs = np.linspace(xmin, xmax, nx)
    ts = np.linspace(t0, t1, nt)
    return grid_1d(fn(xs[:, None], ts[None, :]), xmin, xmax, t0, t1)


class TestEquationParams:
    def test_p_prime_conjugate_identity(self):
        for p in (1.1, 1.5, 2.0, 3.0, 4.0, 7.3):
            params = EquationParams(p=p, A=1.0)
            assert abs(1.0 / p + 1.0 / params.p_prime - 1.0) < 1e-15

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(p=1.0, A=1.0),
            dict(p=0.5, A=1.0),
            dict(p=2.0, A=0.0),
            dict(p=2.0, A=-1.0),
            dict(p=2.0, A=1.0, d=1.5),
            dict(p=2.0, A=1.0, d=0),
            dict(p=2.0, A=1.0, m=1.0),
            dict(p=float("inf"), A=1.0),  # p' would be nan
            dict(p=3.0, A=float("inf")),
            dict(p=3.0, A=1.0, m=float("inf")),
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(DomainError):
            EquationParams(**kwargs)

    def test_superquadratic_gate(self):
        EquationParams(p=2.5, A=1.0).require_superquadratic()
        with pytest.raises(DomainError):
            EquationParams(p=2.0, A=1.0).require_superquadratic()


class TestParabolicCylinder:
    def test_time_slab(self):
        q = ParabolicCylinder((0.0,), 0.0, 0.5, 2.0)
        assert q.t_bottom == -0.25

    def test_depth_that_overflows_is_inf(self):
        # 1.5**3000 leaves the float range, where Python's ** raises
        q = ParabolicCylinder((0.0, 0.0), 1.0, 1.5, 3000.0)
        assert q.t_bottom == -math.inf
        assert cylinder_depth(1.5, 3000.0) == math.inf
        assert cylinder_depth(0.5, 2.0) == 0.25

    def test_scaled_nested(self):
        q = ParabolicCylinder((0.3,), 0.0, 1.0, 2.0)
        q2 = q.scaled(0.5)
        u = GridFunction((-1.0,), (0.05,), -1.0, 0.05, np.zeros((41, 21)))
        inner, outer = u.node_mask(q2), u.node_mask(q)
        assert inner.any() and (outer & ~inner).any()
        assert not np.any(inner & ~outer)

    def test_membership_rules(self):
        q = ParabolicCylinder((0.0, 0.0), 0.0, 1.0, 1.0)
        # nodes every 0.5 in space from -1.5, every 0.5 in time from -2
        u = GridFunction((-1.5, -1.5), (0.5, 0.5), -2.0, 0.5, np.zeros((7, 7, 6)))
        box, mask = u.cylinder_box(q)
        inside = u.node_mask(q)
        assert np.array_equal(inside[box], mask)
        assert mask.shape == (3, 3, 3)  # |x_i| < 1 and t in [-1, 0]
        # open ball: a node at exactly distance r is out
        assert not inside[5, 3, 2:5].any()  # x = (1, 0)
        # closed time slab: nodes on t_bottom = -1 and on top_t = 0 are in
        assert inside[3, 3, 2] and inside[3, 3, 4]
        assert not inside[3, 3, 1]  # t = -1.5
        assert not inside[3, 3, 5]  # t = 0.5


class TestOscillation:
    def test_constant_function(self):
        u = sampled_1d(lambda x, t: 3.0 + 0.0 * x * t)
        q = ParabolicCylinder((0.0,), 0.0, 0.7, 1.0)
        assert osc_over_cylinder(u, q) == 0.0

    def test_linear_range(self):
        u = sampled_1d(lambda x, t: x + 0.0 * t, nx=201)
        q = ParabolicCylinder((0.0,), 0.0, 1.0, 1.0)
        dx = u.spacing_x[0]
        assert abs(osc_over_cylinder(u, q) - 2.0) <= 2 * dx + 1e-12

    def test_sqrt_profile(self):
        # sup - inf of |x|^(1/2) over B_r(0) is r^(1/2); grid sees r - O(dx)
        u = sampled_1d(lambda x, t: np.sqrt(np.abs(x)) + 0.0 * t, nx=801)
        q = ParabolicCylinder((0.0,), 0.0, 0.25, 2.0)
        dx = u.spacing_x[0]
        exact = 0.5
        got = osc_over_cylinder(u, q)
        assert exact - np.sqrt(0.25) + np.sqrt(0.25 - dx) <= got <= exact
        assert abs(got - exact) <= np.sqrt(0.25) - np.sqrt(0.25 - dx) + 1e-12

    def test_empty_intersection(self):
        u = sampled_1d(lambda x, t: x + 0.0 * t)
        q = ParabolicCylinder((10.0,), 0.0, 0.5, 1.0)
        with pytest.raises(EmptyIntersection):
            osc_over_cylinder(u, q)

    def test_translation_invariance(self):
        u = sampled_1d(lambda x, t: np.sin(3 * x) + t)
        q = ParabolicCylinder((0.1,), -0.2, 0.5, 1.5)
        a = osc_over_cylinder(u, q)
        b = osc_over_cylinder(u.with_values(u.values + 17.0), q)
        assert abs(a - b) < 1e-14

    def test_monotone_in_cylinder(self):
        u = sampled_1d(lambda x, t: np.sin(3 * x) * np.cos(2 * t))
        q = ParabolicCylinder((0.0,), 0.0, 0.9, 1.0)
        prev = osc_over_cylinder(u, q)
        for lam in (0.8, 0.5, 0.3):
            cur = osc_over_cylinder(u, q.scaled(lam))
            assert cur <= prev + 1e-14
            prev = cur

    def test_positive_homogeneity(self):
        u = sampled_1d(lambda x, t: x**2 + t)
        q = ParabolicCylinder((0.0,), 0.0, 0.8, 1.0)
        base = osc_over_cylinder(u, q)
        for c in (2.0, -3.0, 0.5):
            scaled = osc_over_cylinder(u.with_values(c * u.values), q)
            assert abs(scaled - abs(c) * base) < 1e-12 * (1 + abs(c) * base)


class TestShiftNormalize:
    def test_constant_to_zero(self):
        u = sampled_1d(lambda x, t: 5.0 + 0.0 * x * t)
        q = ParabolicCylinder((0.0,), 0.0, 0.5, 1.0)
        v = shift_normalize(u, q)
        assert np.all(v.values == 0.0)

    def test_linear_shift(self):
        u = sampled_1d(lambda x, t: x + 0.0 * t)
        q = ParabolicCylinder((0.0,), 0.0, 1.0, 1.0)
        v = shift_normalize(u, q)
        assert v.values[:, 0] == pytest.approx(u.values[:, 0] + 1.0, abs=2 * u.spacing_x[0])
        assert v.values[v.node_mask(q)].min() == 0.0

    def test_min_over_subcylinder_only(self):
        # x^2 on [-1, 1], q = B_{1/2}(0.5): the minimum over q alone is ~0
        u = sampled_1d(lambda x, t: x**2 + 0.0 * t, nx=201)
        q = ParabolicCylinder((0.5,), 0.0, 0.5, 1.0)
        v = shift_normalize(u, q)
        sub_min = u.values[u.node_mask(q)].min()
        assert np.allclose(v.values, u.values - sub_min)
        assert v.values[v.node_mask(q)].min() == 0.0

    def test_oscillation_unchanged(self):
        u = sampled_1d(lambda x, t: np.cos(2 * x) + 0.3 * t)
        q = ParabolicCylinder((0.0,), 0.0, 0.6, 1.2)
        assert osc_over_cylinder(shift_normalize(u, q), q) == pytest.approx(
            osc_over_cylinder(u, q), abs=1e-14
        )


class TestSerialization:
    def _sample(self, d):
        rng = np.random.default_rng(7)
        if d == 1:
            vals = rng.normal(size=(13, 5))
            return GridFunction((-1.0,), (0.17,), 0.25, 0.05, vals)
        vals = rng.normal(size=(7, 9, 4))
        return GridFunction((-1.0, 0.5), (0.1, 0.2), 0.0, 0.125, vals)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("suffix", [".hjg", ".csv"])
    def test_round_trip(self, tmp_path, d, suffix):
        u = self._sample(d)
        path = str(tmp_path / f"grid{suffix}")
        save_grid(u, path)
        v = load_grid(path)
        assert v.origin == u.origin
        assert v.spacing_x == u.spacing_x
        assert v.t0 == u.t0 and v.spacing_t == u.spacing_t
        assert np.array_equal(v.values, u.values)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            GridFunction((0.0,), (0.1,), 0.0, 0.1, np.array([[1.0, np.nan]]))

    def test_index_coordinate_affine(self):
        u = self._sample(2)
        xs = u.axis_coords(0)
        assert xs[3] == u.origin[0] + 3 * u.spacing_x[0]
        assert u.times()[2] == u.t0 + 2 * u.spacing_t


def old_hjg_bytes(u):
    """The .hjg bytes as the format's first writer built them, through tobytes()."""
    d = u.dim
    return b"".join([
        b"HJGRID1\n",
        struct.pack("<q", d),
        np.asarray(u.origin, dtype="<f8").tobytes(),
        np.asarray(u.spacing_x, dtype="<f8").tobytes(),
        struct.pack("<dd", u.t0, u.spacing_t),
        np.asarray(u.values.shape, dtype="<i8").tobytes(),
        np.ascontiguousarray(u.values, dtype="<f8").tobytes(),
    ])


class TestBinaryFormat:
    """.hjg files are read and written without copies of the values, and
    their bytes and errors are those of the format's first reader and writer."""

    def _grid(self, shape=(129, 129, 33)):
        vals = np.random.default_rng(3).normal(size=shape)
        d = len(shape) - 1
        return GridFunction((-1.0,) * d, (2.0 / (shape[0] - 1),) * d, -1.0, 0.03125, vals)

    @pytest.mark.parametrize("values", [
        lambda v: v,
        lambda v: v[:, ::2],          # strided
        lambda v: np.asfortranarray(v),
        lambda v: v.T.copy().T,       # transposed layout
        lambda v: v.astype(">f8"),    # big-endian input
        lambda v: v.astype(np.float32),
    ], ids=["contiguous", "strided", "fortran", "transposed", "big-endian", "float32"])
    def test_saved_bytes_equal_the_old_writer(self, tmp_path, values):
        base = np.random.default_rng(5).normal(size=(9, 8, 6))
        u = GridFunction((-1.0, 0.5), (0.25, 0.125), 0.0, 0.2, values(base))
        path = tmp_path / "u.hjg"
        save_grid(u, str(path))
        assert path.read_bytes() == old_hjg_bytes(u)
        assert np.array_equal(load_grid(str(path)).values, u.values)

    def test_load_allocates_at_most_a_quarter_more_than_the_payload(self, tmp_path):
        u = self._grid()
        path = str(tmp_path / "u.hjg")
        save_grid(u, path)
        payload = u.values.nbytes
        v, peak = traced_peak(lambda: load_grid(path))
        assert np.array_equal(v.values, u.values)
        assert peak <= 1.25 * payload, peak / payload

    def test_save_allocates_at_most_a_quarter_of_the_payload(self, tmp_path):
        u = self._grid()
        path = str(tmp_path / "u.hjg")
        payload = u.values.nbytes
        _, peak = traced_peak(lambda: save_grid(u, path))
        assert peak <= 0.25 * payload, peak / payload

    def test_huge_header_fails_before_allocating(self, tmp_path):
        # a header that promises 2**40 values, in a 100-byte file
        head = (b"HJGRID1\n" + struct.pack("<q", 1) + struct.pack("<4d", -1.0, 0.5, 0.0, 0.1)
                + struct.pack("<2q", 2**20, 2**20))
        path = tmp_path / "huge.hjg"
        path.write_bytes(head + bytes(100 - len(head)))
        payload = 100 - len(head)

        def load_error():
            with pytest.raises(DomainError) as err:
                load_grid(str(path))
            return str(err.value)

        message, peak = traced_peak(load_error)
        assert message == (f"{path}: grid file ends {8 * 2**40 - payload} bytes "
                           "short of what its header promises")
        assert peak < 2**20

    @pytest.mark.parametrize("cut, message", [
        (8 + 4, "grid file ends 4 bytes short of what its header promises"),
        (8 + 8 + 8, "grid file ends 8 bytes short of what its header promises"),
        (8 + 8 + 8 * 4 + 16 - 1, "grid file ends 1 bytes short of what its header promises"),
        (-8, "grid file ends 8 bytes short of what its header promises"),
        (-1, "grid file ends 1 bytes short of what its header promises"),
    ])
    def test_truncated_file(self, tmp_path, cut, message):
        u = GridFunction((-1.0, 0.5), (0.25, 0.125), 0.0, 0.2, np.ones((3, 4, 5)))
        data = old_hjg_bytes(u)
        path = tmp_path / "cut.hjg"
        path.write_bytes(data[:cut])
        with pytest.raises(DomainError, match="^" + str(path) + ": " + message + "$"):
            load_grid(str(path))

    @pytest.mark.parametrize("extra", [1, 8, 1000])
    def test_bytes_after_the_values(self, tmp_path, extra):
        u = GridFunction((-1.0,), (0.25,), 0.0, 0.2, np.ones((3, 5)))
        path = tmp_path / "long.hjg"
        path.write_bytes(old_hjg_bytes(u) + bytes(extra))
        with pytest.raises(DomainError, match=f"^{path}: {extra} bytes after the grid values$"):
            load_grid(str(path))

    @pytest.mark.parametrize("d, extent, message", [
        (0, None, "grid dimension must be >= 1, got 0"),
        (-3, None, "grid dimension must be >= 1, got -3"),
        (1, (3, 0), "grid extent must be positive, got {}"),
        (1, (-1, 5), "grid extent must be positive, got {}"),
    ])
    def test_bad_header(self, tmp_path, d, extent, message):
        head = b"HJGRID1\n" + struct.pack("<q", d)
        if extent is not None:
            head += struct.pack("<4d", -1.0, 0.5, 0.0, 0.1) + struct.pack("<2q", *extent)
        path = tmp_path / "bad.hjg"
        path.write_bytes(head + bytes(64))
        with pytest.raises(DomainError) as err:
            load_grid(str(path))
        assert str(err.value) == f"{path}: {message.format(extent)}"  # plain ints
