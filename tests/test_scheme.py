import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hjholder import extremal
from hjholder.core import EquationParams, GridFunction, ParabolicCylinder
from hjholder.errors import (
    Blowup,
    BoundaryOrderingFailed,
    DomainError,
    EmptyIntersection,
    GridTooSmall,
)
from hjholder.scheme import (
    ExtremalDiffusion,
    HamiltonianSpec,
    SolveConfig,
    TraceDiffusion,
    _boundary_mask,
    _extremal_field,
    _Stencil,
    _Workspace,
    comparison_check,
    discrete_residual,
    grid_from_callable,
    lm_norm,
    solve_hj,
)


def cfg_1d(nx=65, t1=0.25, nt=9, half=1.0, **kw):
    return SolveConfig(xmin=(-half,), xmax=(half,), nx=(nx,), t0=0.0, t1=t1, nt=nt, **kw)


class TestSolveBasics:
    def test_constants_are_exact_solutions(self):
        spec = HamiltonianSpec(params=EquationParams(p=3.0, A=1.0, d=1))
        cfg = cfg_1d()
        u = solve_hj(spec, lambda x: np.full(x.shape, 2.5),
                     lambda x, t: np.full(x.shape, 2.5), cfg)
        assert np.array_equal(u.values, np.full(u.values.shape, 2.5))

    def test_quadratic_matches_variational_value(self):
        spec = HamiltonianSpec(params=EquationParams(p=2.0, A=1.0, d=1))
        exact = lambda x, t: x**2 / (1.0 + 4.0 * t)
        cfg = cfg_1d(nx=257, half=2.0)
        u = solve_hj(spec, lambda x: x**2, exact, cfg)
        xs = u.axis_coords(0)
        sel = np.abs(xs) <= 0.5
        err = np.abs(u.values[sel, -1] - exact(xs[sel], 0.25)).max()
        assert err <= 0.05

    def test_first_order_convergence_rate(self):
        spec = HamiltonianSpec(params=EquationParams(p=2.0, A=1.0, d=1))
        exact = lambda x, t: x**2 / (1.0 + 4.0 * t)
        errs = []
        for nx in (65, 129, 257):
            cfg = cfg_1d(nx=nx, half=2.0)
            u = solve_hj(spec, lambda x: x**2, exact, cfg)
            xs = u.axis_coords(0)
            sel = np.abs(xs) <= 0.5
            errs.append(np.abs(u.values[sel, -1] - exact(xs[sel], 0.25)).max())
        for e_coarse, e_fine in zip(errs, errs[1:]):
            assert 1.5 <= e_coarse / e_fine <= 3.0

    def test_heat_diffusion_oracle(self):
        params = EquationParams(p=2.0, A=1.0, d=1)
        spec = HamiltonianSpec(params=params, coefficient=0.0,
                               diffusion=TraceDiffusion(np.eye(1)))
        exact = lambda x, t: np.exp(-t) * np.cos(x)
        cfg = cfg_1d(nx=65, half=1.5, t1=0.5)
        u = solve_hj(spec, lambda x: np.cos(x), exact, cfg)
        xs = u.axis_coords(0)
        err = np.abs(u.values[:, -1] - exact(xs, 0.5)).max()
        # O(dx^2) + O(dt) with dt ~ dx^2/2: measured 7.7e-5 at dx = 3/64
        assert err <= 5e-4

    def test_discrete_maximum_principle(self):
        params = EquationParams(p=3.0, A=2.0, d=1)
        spec = HamiltonianSpec(
            params=params,
            coefficient=lambda x, t: 1.0 + 0.5 * np.sin(10 * x) * np.sin(7 * t),
            diffusion=ExtremalDiffusion(1, 1e-3),
            forcing=lambda x, t: 0.2 * np.cos(3 * x),
            shift=0.05,
        )
        cfg = cfg_1d(nx=129, t1=0.5, nt=17)
        init = lambda x: 0.5 + 0.3 * np.sin(2 * x) * (1 - x**2) ** 2
        bc = lambda x, t: init(x)
        u = solve_hj(spec, init, bc, cfg)
        data_min, data_max = 0.2, 0.8
        f_max = 0.2
        shift = 0.05
        ts = u.times()
        for n, t in enumerate(ts):
            sl = u.values[..., n]
            assert sl.min() >= data_min - t * (f_max + shift) - 1e-12
            assert sl.max() <= data_max + t * (f_max + shift) + 1e-12

    def test_monotone_in_data(self):
        # bump a single initial value: the solution never decreases anywhere;
        # a fixed dissipation floor keeps both runs in the same LF regime
        params = EquationParams(p=3.0, A=1.0, d=1)
        spec = HamiltonianSpec(params=params, coefficient=1.0)
        cfg = cfg_1d(nx=33, t1=0.1, nt=5, lf_alpha_floor=10.0)
        xs = np.linspace(-1, 1, 33)
        base_init = 0.5 + 0.3 * np.sin(2 * xs)
        bc = lambda x, t: 0.5 + 0.3 * np.sin(2 * x)
        u0 = solve_hj(spec, base_init, bc, cfg)
        for k in (7, 16, 25):
            bumped = base_init.copy()
            bumped[k] += 0.05
            u1 = solve_hj(spec, bumped, bc, cfg)
            assert np.all(u1.values >= u0.values - 1e-14)

    @settings(deadline=None, max_examples=60)
    @given(p=st.floats(1.5, 4.0), ratio=st.floats(0.0, 4.0),
           cfl=st.floats(0.01, 1.0, exclude_max=True), k=st.integers(1, 63))
    @example(p=3.0, ratio=1.0, cfl=0.8, k=32)  # centre weight 0.2
    def test_one_step_is_monotone(self, p, ratio, cfl, k):
        # one step of the solver's rule cfl / (alpha/dx + 2 Lambda/dx^2) on convex
        # data, with alpha fixed by the floor and m+ diffusion Lambda = ratio *
        # alpha * dx; the step weighs the centre by 1 - cfl
        alpha, dx = 20.0, 2.0 / 64
        lam = ratio * alpha * dx
        dt = cfl / (alpha / dx + 2.0 * lam / dx**2)
        spec = HamiltonianSpec(params=EquationParams(p=p, A=2.0, d=1), coefficient=0.5,
                               diffusion=ExtremalDiffusion(sign=1, coeff=lam))
        cfg = cfg_1d(t1=dt, nt=2, lf_alpha_floor=alpha)  # p * 0.5 * max|u_x|^(p-1) <= 16
        xs = np.linspace(-1.0, 1.0, 65)
        bc = lambda x, t: x**2
        u0 = solve_hj(spec, xs**2, bc, cfg)
        raised = xs**2
        raised[k] += 1e-4  # keeps the data convex: m+ stays the second difference
        u1 = solve_hj(spec, raised, bc, cfg)
        assert np.all(u1.values[:, -1] >= u0.values[:, -1] - 1e-14)

    @pytest.mark.parametrize("d", [1, 2])
    def test_first_substep_is_cfl_over_rate(self, d):
        # alpha is the floor (p * max a * max|q|^(p-1) is about 3 * 0.5 * 0.25**2) and
        # the diffusion small, so the old rule's hyperbolic term would bind; the
        # first bc call comes at the end of the first substep
        alpha, lam, cfl = 40.0, 0.01, 0.7
        spec = HamiltonianSpec(params=EquationParams(p=3.0, A=2.0, d=d), coefficient=0.5,
                               diffusion=ExtremalDiffusion(sign=1, coeff=lam))
        cfg = SolveConfig(xmin=(-1.0,) * d, xmax=(1.0, 1.5)[:d], nx=(33, 25)[:d],
                          t1=0.05, nt=2, cfl=cfl, lf_alpha_floor=alpha)
        times = []

        def bc(*xt):
            times.append(xt[-1])
            return 0.25 * xt[0]

        solve_hj(spec, lambda *x: 0.25 * x[0], bc, cfg)
        dx = cfg.spacings()
        rate = alpha * sum(1.0 / h for h in dx) + 2.0 * lam * sum(1.0 / h**2 for h in dx)
        assert times[0] == pytest.approx(cfl / rate, rel=1e-14)
        assert times[0] > cfl * min(dx) / (2.0 * d * alpha) * 1.9
        assert len(times) == math.ceil(cfg.t1 * rate / cfl)

    def test_blowup_guard(self):
        params = EquationParams(p=2.0, A=1.0, d=1)
        spec = HamiltonianSpec(params=params, coefficient=1.0, forcing=1e6)
        cfg = cfg_1d(nx=33, t1=1.0, nt=5)
        with pytest.raises(Blowup):
            solve_hj(spec, lambda x: 0.0 * x, lambda x, t: 0.0 * x, cfg)

    def test_rejects_mismatched_dim(self):
        spec = HamiltonianSpec(params=EquationParams(p=2.0, A=1.0, d=2))
        with pytest.raises(DomainError):
            solve_hj(spec, lambda x: 0.0 * x, lambda x, t: 0.0 * x, cfg_1d())

    def test_rejects_indefinite_trace_matrix(self):
        params = EquationParams(p=2.0, A=1.0, d=1)
        spec = HamiltonianSpec(params=params, coefficient=0.0,
                               diffusion=TraceDiffusion(-np.eye(1)))
        with pytest.raises(DomainError):
            solve_hj(spec, lambda x: np.cos(x), lambda x, t: np.cos(x), cfg_1d())

    @pytest.mark.parametrize("d", [1, 2])
    def test_rejects_non_finite_trace_matrix(self, d):
        b = np.eye(d)
        b[-1, 0] = np.nan  # nan compares false against any eigenvalue bound
        spec = HamiltonianSpec(params=EquationParams(p=2.0, A=1.0, d=d), coefficient=0.0,
                               diffusion=TraceDiffusion(b))
        cfg = SolveConfig(xmin=(-1.0,) * d, xmax=(1.0,) * d, nx=(17,) * d, t1=0.05, nt=3)
        cos = lambda *x: np.cos(x[0])
        with pytest.raises(DomainError, match="matrix entries must be finite"):
            solve_hj(spec, cos, lambda *xt: cos(*xt[:-1]), cfg)

    def test_grid_counts_must_be_whole_numbers(self):
        for nx, nt in (((np.int64(33),), np.int32(5)), ((33.0,), 5.0), ([33], 5)):
            cfg = SolveConfig(xmin=(-1.0,), xmax=(1.0,), nx=nx, t0=0.0, t1=0.1, nt=nt)
            assert (cfg.nx, cfg.nt) == ((33,), 5)
            assert type(cfg.nx[0]) is int and type(cfg.nt) is int
        for nx, nt in (((33.5,), 5), ((33,), 5.7), ((33,), float("nan")), (("x",), 5)):
            with pytest.raises(DomainError):
                SolveConfig(xmin=(-1.0,), xmax=(1.0,), nx=nx, t0=0.0, t1=0.1, nt=nt)

    @pytest.mark.parametrize("coeff", [-1.0, -1e-300, float("nan")])
    def test_extremal_coeff_must_be_nonnegative(self, coeff):
        # a negative coeff is anti-diffusive: the step is monotone at no dt
        with pytest.raises(DomainError, match="diffusion coeff must be >= 0"):
            ExtremalDiffusion(1, coeff)
        assert ExtremalDiffusion(-1, 0.0).coeff == 0.0

    def test_2d_constant_and_heat(self):
        params = EquationParams(p=2.0, A=1.0, d=2)
        spec = HamiltonianSpec(params=params, coefficient=0.0,
                               diffusion=TraceDiffusion(np.eye(2)))
        cfg = SolveConfig(xmin=(-1.5, -1.5), xmax=(1.5, 1.5), nx=(33, 33),
                          t0=0.0, t1=0.1, nt=5)
        exact = lambda x, y, t: np.exp(-2 * t) * np.cos(x) * np.cos(y)
        u = solve_hj(spec, lambda x, y: np.cos(x) * np.cos(y), exact, cfg)
        xs = u.axis_coords(0)
        gx, gy = np.meshgrid(xs, u.axis_coords(1), indexing="ij")
        err = np.abs(u.values[..., -1] - exact(gx, gy, 0.1)).max()
        assert err < 5e-3


class TestScaledEquation:
    def test_scaled_solve_reproduces_composition(self):
        # v(x,t) = u(x/2, t/8) solves the same equation with diffusion halved
        # on the doubled grid; a = 1/2, b = 2^-p are exact binary scalings
        p, eps = 3.0, 0.01
        params = EquationParams(p=p, A=1.0, d=1)
        spec_u = HamiltonianSpec(params=params, coefficient=1.0,
                                 diffusion=ExtremalDiffusion(1, eps))
        init = lambda x: 0.5 + 0.3 * np.sin(1.5 * x) * np.clip(1 - (x / 2.0) ** 2, 0, None) ** 2
        bc = lambda x, t: init(x)
        cfg_u = SolveConfig(xmin=(-2,), xmax=(2,), nx=(129,), t0=0.0, t1=0.125, nt=9)
        u = solve_hj(spec_u, init, bc, cfg_u)

        a, b = 0.5, 0.5**p
        spec_v = HamiltonianSpec(params=params, coefficient=1.0,
                                 diffusion=ExtremalDiffusion(1, eps * b / a**2))
        init_v = lambda x: init(a * x)
        bc_v = lambda x, t: init(a * x)
        cfg_v = SolveConfig(xmin=(-4,), xmax=(4,), nx=(129,), t0=0.0, t1=0.125 / b, nt=9)
        v = solve_hj(spec_v, init_v, bc_v, cfg_v)
        # node x'_j = 2 x_j, t'_n = 8 t_n: exact correspondence up to rounding
        assert np.abs(v.values - u.values).max() <= 1e-8


class TestDiscreteResidual:
    def test_affine_data_exact(self):
        params = EquationParams(p=3.0, A=2.0, d=1)
        spec = HamiltonianSpec(params=params, coefficient=2.0)
        xs = np.linspace(-1, 1, 33)
        vals = (0.3 + 2.0 * xs)[:, None] * np.ones((1, 5))
        u = GridFunction((-1.0,), (xs[1] - xs[0],), 0.0, 0.25, vals)
        rep = discrete_residual(u, spec, "super")
        assert rep.worst_value == pytest.approx(2.0 * 2.0**3, rel=1e-12)
        rep2 = discrete_residual(u, spec, "sub")
        assert rep2.worst_value == pytest.approx(2.0 * 2.0**3, rel=1e-12)
        assert rep2.violation > 0.0  # affine data is not a subsolution here

    def test_solution_self_consistency(self):
        params = EquationParams(p=2.0, A=1.0, d=1)
        spec = HamiltonianSpec(params=params, coefficient=1.0)
        cfg = cfg_1d(nx=129, half=2.0, t1=0.25, nt=33)
        u = solve_hj(spec, lambda x: x**2, lambda x, t: x**2 / (1 + 4 * t), cfg)
        # a-posteriori bound: LF dissipation + one-sided-time truncation
        dx, dt = u.spacing_x[0], u.spacing_t
        ws = _Workspace(_Stencil(u.n_space, [dx]), 1).rows(1)
        hess = ws.st.second_diffs(ws.st.flat(u.values[None, :, 1]), ws)
        d2x = np.abs(hess[(0, 0)]).max()
        qmax = np.abs(np.diff(u.values, axis=0) / dx).max()
        alpha = 2.0 * qmax
        d2t = np.abs(np.diff(u.values, n=2, axis=1)).max() / dt
        bound = 0.5 * alpha * dx * d2x + d2t + 1e-6
        for side in ("sub", "super"):
            rep = discrete_residual(u, spec, side)
            assert rep.violation <= 2.0 * bound

    def test_barrier_is_discrete_supersolution(self):
        from hjholder.barriers import SupersolutionBarrier, supersolution_eval

        params = EquationParams(p=3.0, A=1.0, d=1)
        bar = SupersolutionBarrier(4.0, 1.0, params)
        xs = np.linspace(-1.5, 1.5, 129)
        ts = np.linspace(0.2, 1.0, 33)
        vals = np.empty((len(xs), len(ts)))
        for j, t in enumerate(ts):
            for i, x in enumerate(xs):
                vals[i, j] = supersolution_eval(bar, [x], t)[0]
        u = GridFunction((-1.5,), (xs[1] - xs[0],), 0.2, ts[1] - ts[0], vals)
        eps = 0.05
        spec = HamiltonianSpec(params=params, coefficient=1.0 / params.A,
                               diffusion=ExtremalDiffusion(1, eps))
        rep = discrete_residual(u, spec, "super")
        dx = xs[1] - xs[0]
        assert rep.worst_value >= -50.0 * dx**2

    def test_grid_too_small(self):
        spec = HamiltonianSpec(params=EquationParams(p=2.0, A=1.0, d=1))
        u = GridFunction((0.0,), (0.1,), 0.0, 0.1, np.zeros((2, 4)))
        with pytest.raises(GridTooSmall):
            discrete_residual(u, spec, "sub")

    def test_bad_side_rejected(self):
        spec = HamiltonianSpec(params=EquationParams(p=2.0, A=1.0, d=1))
        u = GridFunction((0.0,), (0.1,), 0.0, 0.1, np.zeros((5, 4)))
        with pytest.raises(DomainError):
            discrete_residual(u, spec, "both")

    @pytest.mark.parametrize("sign", [1, -1])
    def test_extremal_diffusion_beyond_d_2_rejected(self, sign):
        # m+- has closed forms for d <= 2 only: on x^2/2 + 2 z^2 (m+ = 4) the
        # (0, 0) second difference alone would read 1
        axes = np.meshgrid(*[np.linspace(-1.0, 1.0, 9)] * 3, indexing="ij")
        vals = (0.5 * axes[0] ** 2 + 2.0 * axes[2] ** 2)[..., None] * np.ones(3)
        u = GridFunction((-1.0,) * 3, (0.25,) * 3, 0.0, 0.5, vals)
        spec = HamiltonianSpec(params=EquationParams(p=3.0, A=1.0, d=3),
                               diffusion=ExtremalDiffusion(sign, 1.0))
        with pytest.raises(DomainError, match="m\\+/- diffusion supports d in"):
            discrete_residual(u, spec, "super")


class TestComparison:
    def _pair(self, delta):
        xs = np.linspace(-1, 1, 33)
        ts = np.linspace(0, 1, 9)
        lo = np.sin(xs)[:, None] * np.ones((1, 9))
        hi = lo + delta
        g = lambda v: GridFunction((-1.0,), (xs[1] - xs[0],), 0.0, ts[1] - ts[0], v)
        return g(lo), g(hi)

    def test_equal_functions(self):
        lo, hi = self._pair(0.0)
        cyl = ParabolicCylinder((0.0,), 1.0, 1.2, 3.0)
        rep = comparison_check(lo, hi, cyl)
        assert rep.boundary_excess == 0.0
        assert rep.interior_excess == 0.0

    def test_ordered_pair(self):
        lo, hi = self._pair(0.3)
        cyl = ParabolicCylinder((0.0,), 1.0, 1.2, 3.0)
        rep = comparison_check(lo, hi, cyl)
        assert rep.interior_excess == pytest.approx(-0.3)
        assert rep.n_boundary > 0 and rep.n_interior > 0

    def test_boundary_ordering_failure_raises(self):
        lo, hi = self._pair(-0.1)
        cyl = ParabolicCylinder((0.0,), 1.0, 1.2, 3.0)
        with pytest.raises(BoundaryOrderingFailed):
            comparison_check(lo, hi, cyl)

    @pytest.mark.parametrize("field, value", [
        ("origin", (-1.0 + 2.0**-52,)), ("spacing_x", (0.0625 + 2.0**-56,)),
        ("t0", 0.125), ("spacing_t", 0.125 + 2.0**-55),
    ])
    def test_grids_that_differ_rejected(self, field, value):
        # the same extent, and a node grid that differs in one header field
        lo, hi = self._pair(0.3)
        cyl = ParabolicCylinder((0.0,), 1.0, 1.2, 3.0)
        with pytest.raises(DomainError, match="must live on the same grid"):
            comparison_check(lo, replace(hi, **{field: value}), cyl)

    def test_interior_violation_reported_not_raised(self):
        xs = np.linspace(-1, 1, 33)
        ts = np.linspace(0, 1, 9)
        lo = np.zeros((33, 9))
        hi = np.full((33, 9), 0.2)
        hi[16, 5] = -0.1  # upper dips below lower at one interior node
        g = lambda v: GridFunction((-1.0,), (xs[1] - xs[0],), 0.0, ts[1] - ts[0], v)
        rep = comparison_check(g(lo), g(hi), ParabolicCylinder((0.0,), 1.0, 1.2, 3.0))
        assert rep.boundary_excess <= 0.0
        assert rep.interior_excess == pytest.approx(0.1)
        assert rep.worst_interior_index == (16, 5)


class TestLmNorm:
    def _grid(self, fn, nx=257, nt=17, half=1.0):
        cfg = SolveConfig(xmin=(-half,), xmax=(half,), nx=(nx,), t0=0.0, t1=1.0, nt=nt)
        return grid_from_callable(lambda x, t: fn(x) + 0.0 * t, cfg)

    def test_constant(self):
        u = self._grid(lambda x: np.full(x.shape, 3.0))
        q = ParabolicCylinder((0.0,), 1.0, 0.5, 1.0)
        vol = np.sum(u.node_mask(q)) * u.spacing_x[0] * u.spacing_t
        assert lm_norm(u, 2.0, q) == pytest.approx(3.0 * vol**0.5, rel=1e-12)

    def test_singular_profile_converges(self):
        # |x|^-gamma truncated at the grid scale, gamma*m < d: finite and
        # approaching the exact improper integral under refinement
        gamma, m = 0.4, 2.0
        errs = []
        # cylinder B_0.9 x [0.1, 1]: space integral 2*0.9^{1-gm}/(1-gm), times 0.9
        exact = (2 * 0.9 ** (1 - gamma * m) / (1 - gamma * m) * 0.9) ** (1 / m)
        for nx in (257, 513, 1025):
            dx = 2.0 / (nx - 1)
            u = self._grid(lambda x: np.abs(x).clip(dx) ** -gamma, nx=nx)
            q = ParabolicCylinder((0.0,), 1.0, 0.9, 1.0)
            errs.append(abs(lm_norm(u, m, q) - exact))
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 0.15 * exact  # O(dx^{1-gamma*m}) tail, slow but real

    def test_scaling_relation_exact_nodes(self):
        # b f(a., b.) on the pulled-back grid with a = 1/2, b = a^p: nodes map
        # exactly, so the Riemann sums obey the L^m factor to rounding
        p, m, d = 3.0, 2.0, 1
        a, b = 0.5, 0.5**3
        fn = lambda x: 1.0 + np.sin(2.0 * x)
        u = self._grid(fn, nx=513, nt=65, half=1.0)
        q = ParabolicCylinder((0.0,), 1.0, 0.8, 1.0)
        base = lm_norm(u, m, q)

        cfg2 = SolveConfig(xmin=(-2.0,), xmax=(2.0,), nx=(513,), t0=0.0, t1=8.0, nt=65)
        v = grid_from_callable(lambda x, t: b * fn(a * x), cfg2)
        # pulled-back cylinder: same points under (x, t) -> (ax, bt)
        q2 = ParabolicCylinder((0.0,), 8.0, 1.6, np.log(0.8 / b) / np.log(1.6))
        scaled = lm_norm(v, m, q2)
        factor = a ** (p * (1 - 1 / m) - d / m)
        assert scaled == pytest.approx(factor * base, rel=1e-12)

    def test_rejects_m_below_one(self):
        u = self._grid(lambda x: x)
        with pytest.raises(DomainError):
            lm_norm(u, 0.5, ParabolicCylinder((0.0,), 1.0, 0.5, 1.0))

    def test_rejects_m_that_is_not_finite(self):
        # the limit m -> inf is the sup norm, which the Riemann sum does not give
        u = self._grid(lambda x: 0.98 * x)
        with pytest.raises(DomainError, match="m must be >= 1 and finite"):
            lm_norm(u, math.inf, ParabolicCylinder((0.0,), 1.0, 0.5, 1.0))

    def test_empty_intersection(self):
        u = self._grid(lambda x: x)
        with pytest.raises(EmptyIntersection):
            lm_norm(u, 2.0, ParabolicCylinder((9.0,), 1.0, 0.5, 1.0))


class TestVectorizedExtremal:
    def test_matches_pointwise_operators(self):
        rng = np.random.default_rng(12)
        for d in (1, 2):
            shape = (6,) if d == 1 else (5, 4)
            hess = {}
            hess[(0, 0)] = rng.normal(size=shape)
            if d == 2:
                hess[(1, 1)] = rng.normal(size=shape)
                hess[(0, 1)] = rng.normal(size=shape)
            # each call writes over the entries it is given, and over work
            work = (np.empty(shape), np.empty(shape))
            mp = _extremal_field({k: v.copy() for k, v in hess.items()}, d, 1, work)
            mm = _extremal_field({k: v.copy() for k, v in hess.items()}, d, -1, work)
            for idx in np.ndindex(*shape):
                if d == 1:
                    mat = np.array([[hess[(0, 0)][idx]]])
                else:
                    mat = np.array(
                        [
                            [hess[(0, 0)][idx], hess[(0, 1)][idx]],
                            [hess[(0, 1)][idx], hess[(1, 1)][idx]],
                        ]
                    )
                assert mp[idx] == pytest.approx(extremal.m_plus(mat), abs=1e-12)
                assert mm[idx] == pytest.approx(extremal.m_minus(mat), abs=1e-12)


class TestDiffusionEquality:
    def test_equal_matrices_in_two_objects(self):
        a, b = TraceDiffusion(np.eye(2)), TraceDiffusion(np.eye(2))
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a == TraceDiffusion([[1.0, 0.0], [0.0, 1.0]])

    def test_matrices_compare_by_shape_and_bits(self):
        a = TraceDiffusion(np.eye(2))
        assert a != TraceDiffusion(2.0 * np.eye(2))
        assert a != TraceDiffusion(np.eye(2).ravel())  # same bytes, other shape
        assert TraceDiffusion(np.zeros((1, 1))) != TraceDiffusion(-np.zeros((1, 1)))
        nan = np.full((1, 1), np.nan)
        assert TraceDiffusion(nan) == TraceDiffusion(nan.copy())

    def test_callables_compare_by_identity(self):
        def entries(*args):
            return np.eye(1)

        a = TraceDiffusion(entries)
        assert a == TraceDiffusion(entries)
        assert hash(a) == hash(TraceDiffusion(entries))
        assert a != TraceDiffusion(lambda *args: np.eye(1))
        assert a != TraceDiffusion(np.eye(1))
        assert TraceDiffusion(np.eye(1)) != a

    def test_other_diffusion_kinds(self):
        trace = TraceDiffusion(np.eye(1))
        assert trace != ExtremalDiffusion(1, 1.0)
        assert trace != None  # noqa: E711
        assert ExtremalDiffusion(1, 1.0) == ExtremalDiffusion(1, 1.0)

    def test_specs_holding_equal_matrices(self):
        params = EquationParams(p=3.0, A=2.0, d=2)
        a = HamiltonianSpec(params=params, diffusion=TraceDiffusion(np.eye(2)))
        b = HamiltonianSpec(params=params, diffusion=TraceDiffusion(np.eye(2)))
        assert a == b
        assert hash(a) == hash(b)
        assert a != HamiltonianSpec(params=params, diffusion=TraceDiffusion(-np.eye(2)))


class TestRowStencil:
    """A block of rows flattened row after row: every view of its windows and
    faces holds what slicing each row of the (rows,) + shape array gives."""

    SHAPES = [(9,), (3,), (7, 5), (3, 14), (11, 3)]

    @staticmethod
    def _block(shape, rows):
        # every value is its flat position, so a view's values say where it reads
        st = _Stencil(shape, [0.1] * len(shape), rows)
        block = np.arange(st.length, dtype=float).reshape((rows,) + shape)
        boundary = block[:, _boundary_mask(shape)]  # the row seams among them
        return st, block, st.flat(block), boundary

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_inner_reads_each_rows_interior(self, shape, rows):
        st, block, f, boundary = self._block(shape, rows)
        d = len(shape)
        assert np.shares_memory(f, block)
        interior = (slice(None),) + (slice(1, -1),) * d
        inner = st.inner(f[st.mid])
        assert np.array_equal(inner, block[interior])
        assert not np.isin(inner, boundary).any()
        for i in range(d):
            for offsets, shifted in ((st.plus, slice(2, None)), (st.minus, slice(None, -2))):
                rows_i = list(interior)
                rows_i[1 + i] = shifted
                assert np.array_equal(st.inner(f[offsets[i]]), block[tuple(rows_i)])

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_face_view_reads_each_rows_faces(self, shape, rows):
        st, block, f, _ = self._block(shape, rows)
        for i in range(len(shape)):
            lower, upper = [slice(None)] * (1 + len(shape)), [slice(None)] * (1 + len(shape))
            lower[1 + i], upper[1 + i] = slice(None, -1), slice(1, None)
            # each face array holds the node below or above the face
            assert np.array_equal(st.face_view(f[st.face_lo[i]].copy(), i), block[tuple(lower)])
            assert np.array_equal(st.face_view(f[st.face_hi[i]].copy(), i), block[tuple(upper)])

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_whole_rows_of_a_longer_buffer(self, shape, rows):
        st, block, _, _ = self._block(shape, rows)
        buf = np.arange(st.length + 2 * st.size, dtype=float)  # room for two more rows
        whole = st.whole(buf)
        assert np.shares_memory(whole, buf)
        assert np.array_equal(whole, block.reshape(rows, st.size))

    def test_workspace_zeroes_what_a_larger_block_left(self):
        ws = _Workspace(_Stencil((7, 5), [0.1, 0.2]), 3)
        big = ws.rows(3)
        for rows in [big.rhs_rows, big.g2_rows, big.term_rows, *big.hess_rows.values()]:
            rows.fill(math.nan)
        small = ws.rows(2)
        st = small.st
        for rows in [small.rhs_rows, small.g2_rows, small.term_rows, *small.hess_rows.values()]:
            assert not rows.reshape(-1)[st.hi:].any()
            assert np.isnan(rows.reshape(-1)[st.lo:st.hi]).all()
        assert ws.rows(2) is small
