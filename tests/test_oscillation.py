import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjholder import oscillation
from hjholder.core import EquationParams, GridFunction
from hjholder.errors import DegenerateData, DomainError, EmptyIntersection, PreconditionFailed
from hjholder.oscillation import (
    ModulusReport,
    default_centers,
    fit_holder,
    holder_modulus_check,
    iterate_scales,
    measure_oscillations,
)
from hjholder.scaling import time_exponent


def grid_of(fn, nx=513, nt=17, half=1.0, t0=-1.0, t1=0.0):
    xs = np.linspace(-half, half, nx)
    ts = np.linspace(t0, t1, nt)
    vals = fn(xs[:, None], ts[None, :]) * np.ones((nx, nt))
    return GridFunction((-half,), (xs[1] - xs[0],), t0, ts[1] - ts[0], vals)


class TestMeasure:
    def test_constant(self):
        u = grid_of(lambda x, t: 0.0 * x + 7.0)
        samples = measure_oscillations(u, (0.0, 0.0), 0.5, 2.0, 4)
        assert all(o == 0.0 for _, o in samples)

    def test_power_profile(self):
        # open ball of nodes: exact sup-inf is r^alpha, the grid sees the
        # largest node strictly inside, so osc in [(r-dx)^alpha, r^alpha]
        alpha = 0.5
        u = grid_of(lambda x, t: np.abs(x) ** alpha + 0.0 * t, nx=2049)
        dx = u.spacing_x[0]
        samples = measure_oscillations(u, (0.0, 0.0), 0.5, 2.0, 5)
        for r, osc in samples:
            assert (r - dx) ** alpha - 1e-12 <= osc <= r**alpha + 1e-12

    def test_linear_slope(self):
        u = grid_of(lambda x, t: 2.0 * x + 0.0 * t, nx=2049)
        dx = u.spacing_x[0]
        samples = measure_oscillations(u, (0.0, 0.0), 0.5, 2.0, 4)
        for r, osc in samples:
            assert 4.0 * (r - dx) - 1e-12 <= osc <= 4.0 * r + 1e-12

    def test_nonincreasing(self):
        u = grid_of(lambda x, t: np.sin(5 * x) * np.cos(3 * t))
        samples = measure_oscillations(u, (0.0, 0.0), 0.6, 2.0, 8)
        oscs = [o for _, o in samples]
        assert all(a >= b - 1e-14 for a, b in zip(oscs, oscs[1:]))

    def test_truncation_when_cylinder_too_small(self):
        u = grid_of(lambda x, t: x + 0.0 * t, nx=33)
        samples = measure_oscillations(u, (0.0, 0.0), 0.5, 2.0, 12)
        assert len(samples) < 13

    def test_empty_outer_cylinder(self):
        u = grid_of(lambda x, t: x + 0.0 * t)
        with pytest.raises(EmptyIntersection):
            measure_oscillations(u, (5.0, 0.0), 0.5, 2.0, 3)

    def test_shift_and_renormalization_invariance(self):
        u = grid_of(lambda x, t: np.abs(x) ** 0.6 + 0.0 * t, nx=1025)
        s1 = measure_oscillations(u, (0.0, 0.0), 0.5, 2.0, 4)
        shifted = u.with_values(u.values + 3.0)
        s2 = measure_oscillations(shifted, (0.0, 0.0), 0.5, 2.0, 4)
        for (r1, o1), (r2, o2) in zip(s1, s2):
            assert r1 == r2
            assert o1 == pytest.approx(o2, abs=1e-12)


class TestFitHolder:
    def test_exact_power_data(self):
        samples = [(0.5**k, (0.5**k) ** 0.6) for k in range(8)]
        est = fit_holder(samples)
        assert est.alpha_hat == pytest.approx(0.6, abs=1e-12)
        assert est.c_hat == pytest.approx(1.0, abs=1e-12)
        assert est.max_fit_residual <= 1e-12

    def test_constant_plus_power(self):
        samples = [(0.5**k, 3.0 * (0.5**k) ** 1.0) for k in range(8)]
        est = fit_holder(samples)
        assert est.alpha_hat == pytest.approx(1.0, abs=1e-12)
        assert est.c_hat == pytest.approx(3.0, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.6, 1.0])
    def test_recovers_exponent_from_grid(self, alpha):
        u = grid_of(lambda x, t: np.abs(x) ** alpha + 0.0 * t, nx=513)
        samples = measure_oscillations(u, (0.0, 0.0), 0.5, 2.0, 5)
        est = fit_holder(samples, min_radius=4 * u.spacing_x[0])
        assert abs(est.alpha_hat - alpha) <= 0.05

    def test_noise_floor_drops_zeros(self):
        samples = [(1.0, 1.0), (0.5, 0.5), (0.25, 0.25), (0.125, 0.0)]
        est = fit_holder(samples)
        assert len(est.samples) == 3

    def test_degenerate_data(self):
        with pytest.raises(DegenerateData):
            fit_holder([(1.0, 0.0), (0.5, 0.0), (0.25, 0.0)])
        with pytest.raises(DegenerateData):
            fit_holder([(1.0, 1.0), (0.5, 0.7)])


class TestModulus:
    def test_constant_function(self):
        u = grid_of(lambda x, t: 0.0 * x + 1.0, nx=65, nt=9)
        rep = holder_modulus_check(u, 0.5, 1.0, 3.0, n_random_pairs=2000)
        assert rep.max_ratio == 0.0

    def test_power_profile_within_bound(self):
        alpha = 0.5
        u = grid_of(lambda x, t: np.abs(x) ** alpha + 0.0 * t, nx=257, nt=9)
        rep = holder_modulus_check(u, alpha, 1.0, 3.0, n_random_pairs=20000)
        assert rep.max_ratio <= 1.0 + 1e-9

    def test_jump_detected(self):
        def jumpy(x, t):
            return np.where(x > 0.31, 1.0, 0.0) + 0.0 * t

        u = grid_of(jumpy, nx=257, nt=9)
        rep = holder_modulus_check(u, 0.5, 1.0, 3.0, n_random_pairs=20000)
        assert rep.max_ratio > 1.0
        xa = rep.argmax_a[0][0]
        xb = rep.argmax_b[0][0]
        assert min(abs(xa - 0.31), abs(xb - 0.31)) < 0.02

    def test_time_exponent_formula(self):
        u = grid_of(lambda x, t: 0.0 * x + 1.0, nx=17, nt=5)
        rep = holder_modulus_check(u, 0.25, 1.0, 3.0, n_random_pairs=100)
        assert rep.time_exp == pytest.approx(0.25 / (3.0 - 0.25 * 2.0))

    def test_deterministic_given_seed(self):
        u = grid_of(lambda x, t: np.sin(3 * x) + t, nx=65, nt=9)
        r1 = holder_modulus_check(u, 0.5, 1.0, 3.0, n_random_pairs=5000, seed=42)
        r2 = holder_modulus_check(u, 0.5, 1.0, 3.0, n_random_pairs=5000, seed=42)
        assert r1 == r2


def all_blocks_modulus(u, alpha, C, p, n_random_pairs=100_000, seed=0):
    """The two-point check as first written: every block of ratios is kept
    until the end, then the first largest (or NaN) ratio is picked."""
    texp = time_exponent(p, alpha)
    space = u.space_points()
    pts = space.reshape(-1, u.dim)
    ts = u.times()
    n_sp = pts.shape[0]
    nt = len(ts)
    vals = u.values.reshape(n_sp, nt)

    def ratio(du, dxs, dts):
        return du / (C * (dxs**alpha + dts**texp))

    rng = np.random.default_rng(seed)
    ia = rng.integers(0, n_sp, n_random_pairs)
    na = rng.integers(0, nt, n_random_pairs)
    ib = rng.integers(0, n_sp, n_random_pairs)
    nb = rng.integers(0, nt, n_random_pairs)
    keep = (ia != ib) | (na != nb)
    ia, na, ib, nb = ia[keep], na[keep], ib[keep], nb[keep]
    ratios = [ratio(np.abs(vals[ia, na] - vals[ib, nb]),
                    np.linalg.norm(pts[ia] - pts[ib], axis=-1),
                    np.abs(ts[na] - ts[nb]))]
    for axis in range(u.dim + 1):
        lo = [slice(None)] * (u.dim + 1)
        hi = list(lo)
        lo[axis], hi[axis] = slice(None, -1), slice(1, None)
        du = np.abs(u.values[tuple(lo)] - u.values[tuple(hi)])
        if axis < u.dim:
            dxs = np.linalg.norm(space[tuple(lo[:-1])] - space[tuple(hi[:-1])], axis=-1)
            ratios.append(ratio(du, dxs[..., None], 0.0))
        else:
            ratios.append(ratio(du, 0.0, np.abs(ts[:-1] - ts[1:])))
    n_pairs = sum(r.size for r in ratios)
    if n_pairs == 0:
        raise DomainError("the grid has no two distinct nodes to compare")
    firsts = [int(np.argmax(r)) if r.size else -1 for r in ratios]
    tops = [r.flat[k] if r.size else -np.inf for r, k in zip(ratios, firsts)]
    block = int(np.argmax(tops))
    k = firsts[block]
    if block == 0:
        a, b = (pts[ia[k]], ts[na[k]]), (pts[ib[k]], ts[nb[k]])
    else:
        ma = np.unravel_index(k, ratios[block].shape)
        mb = list(ma)
        mb[block - 1] += 1
        a, b = [(space[tuple(m[:-1])], ts[m[-1]]) for m in (ma, mb)]
    return ModulusReport(
        max_ratio=float(tops[block]),
        argmax_a=(tuple(float(v) for v in a[0]), float(a[1])),
        argmax_b=(tuple(float(v) for v in b[0]), float(b[1])),
        alpha=alpha,
        time_exp=texp,
        C=C,
        n_pairs=n_pairs,
    )


def bits(obj):
    """obj with every float replaced by its hex form: NaN equals NaN, and
    0.0 differs from -0.0."""
    if isinstance(obj, (tuple, list)):
        return tuple(bits(v) for v in obj)
    if isinstance(obj, ModulusReport):
        return bits(tuple(vars(obj).values()))
    return float.hex(obj) if isinstance(obj, float) else obj


def assert_matches_all_blocks(u, *args, **kwargs):
    got = holder_modulus_check(u, *args, **kwargs)
    assert bits(got) == bits(all_blocks_modulus(u, *args, **kwargs))
    return got


def sample_grid(shape, seed=0, spacing=None, levels=None):
    """A grid of the given (*n_space, n_time) shape with random values, or
    random integers below `levels`, which makes ties likely."""
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=shape) if levels is None else rng.integers(0, levels, shape) * 1.0
    d = len(shape) - 1
    hx, ht = spacing or (0.5 / max(shape[0] - 1, 1), 0.25 / max(shape[-1] - 1, 1))
    return GridFunction((-0.25,) * d, (hx,) * d, -0.25, ht, vals)


class TestModulusStreamedBlocks:
    """holder_modulus_check reduces each block as it is built; its report is
    the all-blocks check's, bit for bit."""

    @pytest.mark.parametrize("shape", [(33, 9), (2, 7), (9, 2), (1, 5), (6, 1),
                                       (9, 7, 5), (2, 9, 4), (7, 2, 3), (5, 4, 2), (1, 1, 6)])
    @pytest.mark.parametrize("n_random_pairs", [0, 1, 50, 3000])
    def test_random_values(self, shape, n_random_pairs):
        u = sample_grid(shape, seed=sum(shape))
        assert_matches_all_blocks(u, 0.4, 0.7, 3.0, n_random_pairs=n_random_pairs, seed=5)

    @pytest.mark.parametrize("shape", [(17, 9), (6, 5, 4)])
    @pytest.mark.parametrize("n_random_pairs", [0, 400])
    def test_ties_across_blocks(self, shape, n_random_pairs):
        # unit spacings and 0/1 values: the largest ratio, 1/C, sits in every
        # block, so the first block holding it is the one reported
        u = sample_grid(shape, spacing=(1.0, 1.0), levels=2)
        rep = assert_matches_all_blocks(u, 0.5, 2.0, 3.0, n_random_pairs=n_random_pairs)
        assert rep.max_ratio == 0.5

    @pytest.mark.parametrize("n_random_pairs", [0, 200])
    def test_constant_values_tie_everywhere(self, n_random_pairs):
        u = sample_grid((5, 4, 3), levels=1)
        rep = assert_matches_all_blocks(u, 0.5, 1.0, 3.0, n_random_pairs=n_random_pairs)
        assert rep.max_ratio == 0.0

    @pytest.mark.parametrize("shape", [(9, 6), (5, 4, 3)])
    @pytest.mark.parametrize("where", ["first", "middle", "last", "two"])
    @pytest.mark.parametrize("n_random_pairs", [0, 300])
    def test_nan_values(self, shape, where, n_random_pairs):
        u = sample_grid(shape, seed=2)
        flat = u.values.reshape(-1)  # GridFunction rejects NaN, so it is put in afterwards
        spots = {"first": [0], "middle": [flat.size // 2], "last": [flat.size - 1],
                 "two": [3, flat.size - 4]}[where]
        flat[spots] = np.nan
        rep = assert_matches_all_blocks(u, 0.3, 1.0, 2.5, n_random_pairs=n_random_pairs)
        assert math.isnan(rep.max_ratio)

    def test_no_two_nodes(self):
        u = sample_grid((1, 1))
        with pytest.raises(DomainError, match="no two distinct nodes"):
            holder_modulus_check(u, 0.5, 1.0, 3.0, n_random_pairs=10)

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.lists(st.integers(1, 6), min_size=2, max_size=3).filter(
            lambda s: math.prod(s) > 1),
        levels=st.one_of(st.none(), st.integers(1, 3)),
        nans=st.lists(st.integers(0, 10**6), max_size=2),
        n_random_pairs=st.integers(0, 60),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.floats(0.05, 1.0),
        p=st.floats(1.5, 6.0),
    )
    def test_matches_all_blocks_anywhere(self, shape, levels, nans, n_random_pairs, seed,
                                         alpha, p):
        u = sample_grid(tuple(shape), seed=seed % 1000, levels=levels)
        flat = u.values.reshape(-1)
        flat[[i % flat.size for i in nans]] = np.nan
        assert_matches_all_blocks(u, alpha, 1.3, p, n_random_pairs=n_random_pairs, seed=seed)


class TestModulusStreamedInSmallChunks(TestModulusStreamedBlocks):
    """The checks above with chunks of 1, 2 and 5 random pairs and slabs of
    1, 2 and 5 neighbour pairs, rounded up to whole leading-axis rows, so the
    pairs of every test cross chunk and slab edges."""

    @pytest.fixture(autouse=True, scope="class", params=[1, 2, 5])
    def small_chunks(self, request):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oscillation, "_PAIR_CHUNK", request.param)
            mp.setattr(oscillation, "_SLAB_VALUES", request.param)
            yield


@pytest.mark.parametrize("shape", [(65535, 2), (65536, 2), (65537, 2),
                                   (4, 255), (4, 256), (4, 257)])
def test_narrowed_indices_pick_the_same_nodes(shape):
    """The drawn indices are narrowed to uint8, uint16 or uint32 at these
    edges.  NaN on the last space node (or at the last time) makes the first
    random pair that reaches it the reported one, and a neighbour pair when
    there are no random pairs."""
    u = sample_grid(shape, seed=1)
    if shape[0] > shape[1]:
        u.values[-1, :] = np.nan
    else:
        u.values[:, -1] = np.nan
    rep = assert_matches_all_blocks(u, 0.4, 1.0, 3.0, n_random_pairs=200_000, seed=0)
    only_neighbours = holder_modulus_check(u, 0.4, 1.0, 3.0, n_random_pairs=0)
    assert math.isnan(rep.max_ratio)
    assert (rep.argmax_a, rep.argmax_b) != (only_neighbours.argmax_a, only_neighbours.argmax_b)


class TestModulusPeakMemory:
    # the default 100,000 random pairs on grids of about 4.3 MB.  Measured
    # peaks: 0.380 and 0.340 of the grid, nearly all of it the four drawn
    # index arrays (uint16 space and uint8 time indices here) while the last
    # int64 draw is narrowed; the ratios take one chunk or slab at a time.
    BOUND = {(129, 129, 33): 0.40, (4097, 129): 0.36}

    @pytest.mark.parametrize("shape", [(129, 129, 33), (4097, 129)])
    def test_peak_is_the_drawn_indices_not_the_grid(self, shape):
        u = sample_grid(shape)
        grid = u.values.nbytes
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            holder_modulus_check(u, 0.3, 1.0, 3.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= self.BOUND[shape] * grid, peak / grid


class TestIterateScales:
    def _params(self):
        return EquationParams(p=3.0, A=1.0, d=1)

    def test_selection_rule_enforced(self):
        u = grid_of(lambda x, t: x + 0.0 * t, half=2.0, t0=-2.0)
        with pytest.raises(PreconditionFailed):
            iterate_scales(u, self._params(), 0.5, 0.01, 0.9)

    def test_geometric_decay_passes(self):
        # oscillation ~ r: passes for any small alpha
        u = grid_of(lambda x, t: 0.4 * x + 0.0 * t, half=2.0, t0=-2.0, nx=513)
        theta = 0.05
        alpha = 0.05
        assert 0.5**alpha >= 1 - theta
        rep = iterate_scales(u, self._params(), 0.5, theta, alpha)
        assert rep.passed
        assert rep.implied_constant == pytest.approx(0.5**-alpha)
        assert rep.beta == pytest.approx(3.0 - alpha * 2.0)

    def test_renormalizes_outer_oscillation(self):
        # oscillation 4 on the outer cylinder: engine scales it to 1 first
        u = grid_of(lambda x, t: 2.0 * x + 0.0 * t, half=2.0, t0=-2.0, nx=513)
        rep = iterate_scales(u, self._params(), 0.5, 0.05, 0.05)
        assert rep.passed
        lv0 = rep.centers[0].levels[0]
        assert lv0.osc <= 1.0 + 1e-12

    def test_flags_failure_level(self):
        # a jump inside every cylinder: oscillation stalls at 0.8 while the
        # bound (1/2)^(0.2 k) keeps dropping, so some level must fail
        def jumpy(x, t):
            return np.where(x > 0.0, 0.8, 0.0) + 0.0 * t

        u = grid_of(jumpy, half=2.0, t0=-2.0, nx=513)
        rep = iterate_scales(u, self._params(), 0.5, 0.15, 0.2,
                             centers=[(0.0, 0.0)])
        assert not rep.passed
        assert rep.implied_constant is None
        assert rep.centers[0].first_failure is not None

    def test_levels_respect_grid_floor(self):
        u = grid_of(lambda x, t: 0.3 * x + 0.0 * t, half=2.0, t0=-2.0, nx=513)
        rep = iterate_scales(u, self._params(), 0.5, 0.05, 0.05)
        dx = u.spacing_x[0]
        for cit in rep.centers:
            assert cit.levels[-1].r >= 4 * dx - 1e-12

    @pytest.mark.parametrize("lam, theta, alpha, name", [
        # for alpha <= 0 the bound r**alpha >= 1 would pass every level
        (0.5, 0.05, -1.0, "alpha"),
        (0.5, 0.05, 0.0, "alpha"),
        (0.5, 0.05, 1.5, "alpha"),
        (-1.0, 0.05, 0.5, "lambda"),  # (-1)**0.5 is complex
        (0.0, 0.05, 0.5, "lambda"),
        (1.0, 0.05, 0.5, "lambda"),
        (0.5, 2.0, 0.5, "theta"),  # 1 - theta < 0 makes the selection rule vacuous
        (0.5, 0.0, 0.5, "theta"),
    ])
    def test_parameters_outside_their_range_rejected(self, lam, theta, alpha, name):
        u = grid_of(lambda x, t: 0.4 * x + 0.0 * t, half=2.0, t0=-2.0)
        with pytest.raises(DomainError, match=f"{name} must lie in"):
            iterate_scales(u, self._params(), lam, theta, alpha)

    @pytest.mark.parametrize("r0", [-1.0, -1e-308, -1e308, 0.0, -0.0, math.inf, -math.inf,
                                    math.nan])
    def test_r0_that_is_not_a_finite_positive_number_rejected(self, r0):
        # a negative r0 turned r0**beta complex; -1e308 overflowed
        u = grid_of(lambda x, t: 0.4 * x + 0.0 * t, half=2.0, t0=-2.0)
        with pytest.raises(DomainError, match="r0 must be a finite number > 0"):
            iterate_scales(u, self._params(), 0.5, 0.05, 0.5, r0=r0)

    @pytest.mark.parametrize("r0", [1e-308, 1e-200])
    def test_r0_below_the_grid_resolution_rejected(self, r0):
        # the default centres' outer cylinders hold no node: a bad r0, not a failed check
        u = grid_of(lambda x, t: 0.4 * x + 0.0 * t, half=2.0, t0=-2.0)
        with pytest.raises(DomainError, match=f"r0 = {r0:g} is below the grid's resolution"):
            iterate_scales(u, self._params(), 0.5, 0.5, 0.5, r0=r0)

    def test_explicit_centre_off_the_grid_is_an_empty_intersection(self):
        u = grid_of(lambda x, t: 0.4 * x + 0.0 * t, half=2.0, t0=-2.0)
        with pytest.raises(EmptyIntersection):
            iterate_scales(u, self._params(), 0.5, 0.5, 0.5, r0=1e-308,
                           centers=[(5.0, u.t1)])

    @pytest.mark.parametrize("d", [1, 2])
    def test_samples_are_the_raw_measurement(self, d):
        # values up to 3, so the outer oscillation exceeds one and the levels
        # carry renormalized oscillations; the samples keep the raw ones
        n, nt, half = (129, 33, 2.0) if d == 1 else (81, 17, 2.0)
        axes = [np.linspace(-half, half, n)] * d + [np.linspace(0.0, 1.0, nt)]
        mesh = np.meshgrid(*axes, indexing="ij")
        vals = 1.5 + 1.5 * np.sin(3.0 * sum(mesh[:-1]) + mesh[-1])
        u = GridFunction((-half,) * d, (axes[0][1] - axes[0][0],) * d, 0.0, 1.0 / (nt - 1),
                         vals)
        params = EquationParams(p=3.0, A=1.0, d=d)
        lam, theta, alpha = 0.6, 0.25, 0.5
        # the second centre sits just below the second time slice: its small
        # cylinders reach back less than one time step and hold no node
        centers = [(0.0,) * d + (1.0,), (0.3,) * d + (0.9 / (nt - 1),)]
        rep = iterate_scales(u, params, lam, theta, alpha, centers=centers)
        assert [c.truncated for c in rep.centers] == [False, True]
        for c in rep.centers:
            fresh = measure_oscillations(u, c.center, lam, rep.beta, len(c.levels) - 1)
            assert c.samples == tuple(fresh)
            assert [lv.r for lv in c.levels] == [r for r, _ in c.samples]
            assert any(lv.osc != osc for lv, (_, osc) in zip(c.levels, c.samples))
        truncated = rep.centers[1]
        assert truncated.samples == tuple(measure_oscillations(
            u, truncated.center, lam, rep.beta, 60))

    def test_default_centers_fit_domain(self):
        u = grid_of(lambda x, t: x + 0.0 * t, half=2.0, t0=-2.0)
        centers = default_centers(u, 1.0, 3.0)
        for cx, ct in centers:
            assert abs(cx) <= 1.0 + 1e-12
            assert ct == u.t1

    def test_default_centers_depth_that_overflows(self):
        # 1.5**3000 leaves the float range: an inf depth, which no grid holds
        u = grid_of(lambda x, t: x + 0.0 * t, half=2.0, t0=-2.0)
        with pytest.raises(DomainError, match="outer cylinder depth inf exceeds the time extent"):
            default_centers(u, 1.5, 3000.0)

    def test_report_notes_family_gap(self):
        u = grid_of(lambda x, t: 0.1 * x + 0.0 * t, half=2.0, t0=-2.0)
        rep = iterate_scales(u, self._params(), 0.5, 0.05, 0.05)
        assert "finite family" in rep.note


class TestVerifierConsistency:
    def test_iterate_pass_implies_modulus_pass(self):
        # a passing decay iteration at alpha implies the two-point bound with
        # C = lambda^-alpha on the measured data (here synthetic |x|^0.5 with
        # unit outer oscillation, checked over all resolvable pairs)
        u = grid_of(lambda x, t: np.abs(x) ** 0.5 + 0.0 * t, half=2.0, t0=-2.0, nx=513)
        params = EquationParams(p=3.0, A=1.0, d=1)
        lam, theta, alpha = 0.5, 0.2, 0.3
        rep = iterate_scales(u, params, lam, theta, alpha, centers=[(0.0, 0.0)])
        assert rep.passed
        mod = holder_modulus_check(u, alpha, rep.implied_constant, params.p,
                                   n_random_pairs=20000)
        assert mod.max_ratio <= 1.0 + 1e-9


class TestTimeExponentConsistency:
    def test_pure_time_power(self):
        # u = |t|^gamma measured with cylinders of exponent beta: the fitted
        # decay exponent is gamma * beta
        gamma, beta = 0.5, 2.0
        u = grid_of(lambda x, t: np.abs(t) ** gamma + 0.0 * x,
                    nx=65, nt=4097, half=2.0, t0=-1.0, t1=0.0)
        samples = measure_oscillations(u, (0.0, 0.0), 0.5, beta, 5)
        est = fit_holder(samples)
        assert abs(est.alpha_hat - gamma * beta) <= 0.05
