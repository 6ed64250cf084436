import math

import numpy as np
import pytest

from hjholder.barriers import (
    BumpFunction,
    FirstOrderConstants,
    SubsolutionBarrier,
    SupersolutionBarrier,
    VerificationGrid,
    bump_eval,
    find_supersolution_constants,
    first_order_constants,
    make_subsolution_barrier,
    subsolution_eval,
    subsolution_residual,
    supersolution_eval,
    supersolution_residual,
    two_case_oscillation_check,
)
from hjholder.core import EquationParams, GridFunction
from hjholder.errors import DomainError
from hjholder import extremal

QUICK_GRID = VerificationGrid(nx=33, nt=33)


def fd_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def fd_hessian(f, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    d = len(x)
    hess = np.zeros((d, d))
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        hess[i, i] = (f(x + ei) - 2 * f(x) + f(x - ei)) / h**2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h
            hess[i, j] = hess[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4 * h**2)
    return hess


class TestBump:
    def test_plateau_values(self):
        b = BumpFunction()
        assert bump_eval(b, 0.5) == (1.0, 0.0, 0.0)
        assert bump_eval(b, 1.5) == (0.0, 0.0, 0.0)
        assert bump_eval(b, 0.75) == (1.0, 0.0, 0.0)
        assert bump_eval(b, 1.0) == (0.0, 0.0, 0.0)

    def test_monotone_decreasing(self):
        b = BumpFunction()
        s = np.linspace(-0.5, 1.5, 2001)
        _, db, _ = b.eval(s)
        assert np.all(db <= 0.0)

    def test_derivative_norms(self):
        b = BumpFunction()
        s = np.linspace(0.75, 1.0, 400_001)
        _, db, d2b = b.eval(s)
        assert np.max(np.abs(db)) == pytest.approx(7.5, rel=1e-8)
        assert np.max(np.abs(d2b)) == pytest.approx(160.0 / math.sqrt(3.0), rel=1e-8)
        assert b.sup_db == 7.5
        assert b.sup_d2b == pytest.approx(92.37604307034013, rel=1e-14)

    def test_sup_db_attained_at_midpoint(self):
        b = BumpFunction()
        _, db, _ = b.eval(np.array([7.0 / 8.0]))
        assert abs(db[0]) == pytest.approx(7.5, rel=1e-14)

    def test_c2_gluing(self):
        # b, b', b'' are continuous across both gluing points (b'' has slope
        # 64 * sup|sigma'''| = 3840, so 1e-9 offsets move it by ~4e-6)
        b = BumpFunction()
        for s0 in (0.75, 1.0):
            left = b.eval(np.array([s0 - 1e-9]))
            right = b.eval(np.array([s0 + 1e-9]))
            for lv, rv in zip(left, right):
                assert abs(lv[0] - rv[0]) < 1e-5

    def test_derivatives_match_fd(self):
        b = BumpFunction()
        for s in (0.8, 0.85, 0.9, 0.97):
            val, db, d2b = bump_eval(b, s)
            h = 1e-6
            assert db == pytest.approx(
                (bump_eval(b, s + h)[0] - bump_eval(b, s - h)[0]) / (2 * h), abs=1e-7
            )
            h = 1e-4
            assert d2b == pytest.approx(
                (bump_eval(b, s + h)[0] - 2 * val + bump_eval(b, s - h)[0]) / h**2,
                rel=1e-5,
                abs=1e-5,
            )


class TestVerificationGrid:
    @pytest.mark.parametrize("nx, nt", [(0, 65), (65, 0), (-5, 65)])
    def test_rejects_counts_below_one(self, nx, nt):
        with pytest.raises(DomainError, match="nx, nt >= 1"):
            VerificationGrid(nx=nx, nt=nt)

    def test_no_node_within_x_max(self):
        grid = VerificationGrid(nx=2)  # nodes at (+-2, +-2), all outside |x| <= 2
        assert grid.radii(1).tolist() == [2.0]
        with pytest.raises(DomainError, match="no node"):
            grid.radii(2)


class TestSupersolution:
    def _bar(self, p=3.0, C=1.0, eta=1.0, d=1, A=1.0):
        return SupersolutionBarrier(C, eta, EquationParams(p=p, A=A, d=d))

    def test_unit_value_at_origin(self):
        v, _, _, _ = supersolution_eval(self._bar(), [0.0], 1.0)
        assert v == 1.0

    def test_gradient_zero_at_origin(self):
        _, g, _, _ = supersolution_eval(self._bar(d=2), [0.0, 0.0], 0.5)
        assert np.allclose(g, 0.0)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(DomainError):
            supersolution_eval(self._bar(), [0.1], 0.0)

    def test_rejects_subquadratic(self):
        with pytest.raises(DomainError):
            SupersolutionBarrier(1.0, 1.0, EquationParams(p=2.0, A=1.0))

    def test_derivatives_match_fd(self):
        bar = self._bar(p=2.5, C=1.7, eta=0.6, d=2)
        rng = np.random.default_rng(0)
        for _ in range(25):
            x = rng.uniform(-1.5, 1.5, 2)
            t = rng.uniform(0.2, 1.0)
            v, g, h, dt = supersolution_eval(bar, x, t)
            fg = fd_gradient(lambda y: supersolution_eval(bar, y, t)[0], x)
            fh = fd_hessian(lambda y: supersolution_eval(bar, y, t)[0], x)
            fdt = (
                supersolution_eval(bar, x, t + 1e-6)[0]
                - supersolution_eval(bar, x, t - 1e-6)[0]
            ) / 2e-6
            assert np.max(np.abs(g - fg)) <= 1e-5 * (1 + np.max(np.abs(g)))
            assert np.max(np.abs(h.entries - fh)) <= 1e-5 * (1 + np.max(np.abs(h.entries)))
            assert abs(dt - fdt) <= 1e-5 * (1 + abs(dt))

    def test_hessian_matches_5point_example(self):
        bar = self._bar(p=3.0, C=1.0, eta=1.0, d=2)
        x = np.array([0.3, 0.4])
        _, _, h, _ = supersolution_eval(bar, x, 0.5)
        fh = fd_hessian(lambda y: supersolution_eval(bar, y, 0.5)[0], x)
        assert np.max(np.abs(h.entries - fh)) <= 1e-6 * (1 + np.max(np.abs(h.entries)))

    def test_residual_origin_closed_form_1d(self):
        # at x = 0 everything reduces to powers of eta*t
        bar = self._bar(p=3.0, C=2.0, eta=0.8, d=1)
        p, pp = 3.0, 1.5
        eps = 0.01
        for t in (0.1, 0.5, 1.0):
            s = bar.eta * t
            tau = bar.C * t ** (-0.5)
            ut = tau * (-(s**0.75) / (2 * t) + bar.eta * 0.75 * s**-0.25)
            mplus = max(0.0, tau * 2 * 0.75 * s**-0.25)
            expect = ut - eps * mplus
            got = supersolution_residual(bar, [0.0], t, eps)
            assert got == pytest.approx(expect, rel=1e-12)

    def test_residual_uses_extremal_operator(self):
        bar = self._bar(p=3.0, C=2.0, eta=1.0, d=2)
        x, t, eps = np.array([0.4, -0.3]), 0.6, 0.02
        _, g, h, dt = supersolution_eval(bar, x, t)
        manual = dt + np.linalg.norm(g) ** 3 / bar.params.A - eps * extremal.m_plus(h)
        assert supersolution_residual(bar, x, t, eps) == pytest.approx(manual, rel=1e-14)

    def test_residual_nonnegative_with_eps_zero_large_C(self):
        bar = self._bar(p=3.0, C=8.0, eta=1.0, d=1)
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.uniform(-2, 2, 1)
            t = rng.uniform(1e-3, 1.0)
            assert supersolution_residual(bar, x, t, 0.0) >= -1e-12

    def test_scaling_relation(self):
        # U_r(x,t) = U(rx, r^p t) has residual b * residual(rx, r^p t) under
        # the (a, b, c) = (r, r^p, 1) transformed coefficients
        p, eps, r = 3.0, 0.05, 0.5
        bar = self._bar(p=p, C=2.0, eta=1.0, d=1)
        a_f, b_f = r, r**p
        diff_factor = b_f / a_f**2
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.uniform(-1.5, 1.5, 1)
            t = rng.uniform(0.05, 1.0)
            _, g, h, dt = supersolution_eval(bar, r * x, r**p * t)
            # chain rule on the composition
            vt = b_f * dt
            dv = a_f * g
            d2v = a_f**2 * h.entries
            lhs = (
                vt
                + np.linalg.norm(dv) ** p / bar.params.A
                - eps * diff_factor * extremal.m_plus(extremal.SymMatrix(d2v))
            )
            rhs = b_f * supersolution_residual(bar, r * x, r**p * t, eps)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_eta_scaling_identity(self):
        params = EquationParams(p=3.0, A=1.0, d=2)
        eta = 0.37
        r = eta ** (1.0 / (params.p - 2.0))
        base = SupersolutionBarrier(1.7, 1.0, params)
        etabar = SupersolutionBarrier(1.7, eta, params)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(-1, 1, 2)
            t = rng.uniform(0.01, 1.0)
            v1 = supersolution_eval(base, r * x, r**params.p * t)[0]
            v2 = supersolution_eval(etabar, x, t)[0]
            assert v1 == pytest.approx(v2, rel=1e-12)


class TestFindSupersolutionConstants:
    def test_basic_certificate(self):
        params = EquationParams(p=3.0, A=1.0, d=1)
        C, eps0 = find_supersolution_constants(params, 1.0, QUICK_GRID)
        assert C > 0 and eps0 > 0
        bar = SupersolutionBarrier(C, 1.0, params)
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.uniform(-2, 2, 1)
            t = rng.uniform(1e-3, 1.0)
            # spot-check at off-grid points with a margin: the certificate is
            # a node statement, but the residual is smooth
            assert supersolution_residual(bar, x, t, eps0) >= -1e-6

    def test_rejects_subquadratic(self):
        with pytest.raises(DomainError):
            find_supersolution_constants(EquationParams(p=2.0, A=1.0), 1.0)

    def test_monotone_rerun_in_A(self):
        c1, e1 = find_supersolution_constants(EquationParams(p=3.0, A=1.0, d=1), 1.0, QUICK_GRID)
        c2, e2 = find_supersolution_constants(EquationParams(p=3.0, A=2.0, d=1), 1.0, QUICK_GRID)
        assert e2 <= e1
        if e2 == e1:
            assert c2 >= c1
        c3, e3 = find_supersolution_constants(EquationParams(p=3.0, A=64.0, d=1), 1.0, QUICK_GRID)
        assert (c3 > c1) or (e3 < e1)

    def test_eps0_strictly_positive(self):
        _, eps0 = find_supersolution_constants(EquationParams(p=2.5, A=1.0, d=1), 0.1, QUICK_GRID)
        assert eps0 > 0.0


class TestSubsolution:
    def test_flat_region_residual_formula(self):
        params = EquationParams(p=3.0, A=1.0, d=1)
        bar = make_subsolution_barrier(params, 0.25, QUICK_GRID)
        # where |x|/R + t/4 < 3/4 the bump is constant
        got = subsolution_residual(bar, params, [0.05], 0.1)
        expect = -bar.C_b * bar.eps * bar.theta**2 / bar.R**2
        assert got == pytest.approx(expect, rel=1e-12)

    def test_constants_formulas(self):
        params = EquationParams(p=3.0, A=1.0, d=1)
        bar = make_subsolution_barrier(params, 0.25, QUICK_GRID)
        C_b, theta = bar.C_b, bar.theta
        b = BumpFunction()
        assert C_b == pytest.approx(2 * b.sup_db + b.sup_d2b / 0.25, rel=1e-14)
        assert theta ** (params.p - 1.0) <= 0.25**params.p / (
            4 * params.A * b.sup_db ** (params.p - 1.0)
        ) * (1 + 1e-12)
        assert theta < 0.25

    def test_theta_weakly_increases_with_R(self):
        params = EquationParams(p=3.0, A=1.0, d=1)
        th1 = make_subsolution_barrier(params, 0.25, QUICK_GRID).theta
        th2 = make_subsolution_barrier(params, 0.5, QUICK_GRID).theta
        assert th2 >= th1

    @pytest.mark.parametrize("p, A, R, d", [
        (3.0, 1.0, 0.25, 1),  # the cap in R binds
        (2.5, 2.0, 0.5, 2),
        (3.0, 1.0, 4.0, 1),  # 1/4 - 0.01 binds
    ])
    def test_barrier_carries_the_closed_form_constants(self, p, A, R, d):
        # the (C_b, theta) that the removed find_subsolution_constants returned
        params = EquationParams(p=p, A=A, d=d)
        bar = make_subsolution_barrier(params, R, QUICK_GRID)
        b = BumpFunction()
        theta_cap = (R**p / (4.0 * A * b.sup_db ** (p - 1.0))) ** (1.0 / (p - 1.0))
        assert bar.C_b == 2.0 * b.sup_db + b.sup_d2b / R
        assert bar.theta == min(0.25 - 0.01, theta_cap)

    def test_derivatives_match_fd_away_from_gluing(self):
        params = EquationParams(p=3.0, A=1.0, d=2)
        bar = make_subsolution_barrier(params, 0.3, QUICK_GRID)
        rng = np.random.default_rng(7)
        count = 0
        while count < 25:
            x = rng.uniform(-0.5, 0.5, 2)
            t = rng.uniform(0.05, 0.95)
            w = np.linalg.norm(x) / bar.R + t / 4.0
            if min(abs(w - 0.75), abs(w - 1.0)) < 2e-4 or np.linalg.norm(x) < 1e-2:
                continue
            count += 1
            v, g, h, dt = subsolution_eval(bar, x, t)
            fg = fd_gradient(lambda y: subsolution_eval(bar, y, t)[0], x)
            fh = fd_hessian(lambda y: subsolution_eval(bar, y, t)[0], x)
            fdt = (
                subsolution_eval(bar, x, t + 1e-6)[0]
                - subsolution_eval(bar, x, t - 1e-6)[0]
            ) / 2e-6
            scale = 1 + np.max(np.abs(g))
            assert np.max(np.abs(g - fg)) <= 1e-5 * scale
            assert np.max(np.abs(h.entries - fh)) <= 1e-4 * (1 + np.max(np.abs(h.entries)))
            assert abs(dt - fdt) <= 1e-5 * (1 + abs(dt))

    def test_origin_hessian_radial_limit(self):
        params = EquationParams(p=3.0, A=1.0, d=2)
        bar = make_subsolution_barrier(params, 0.3, QUICK_GRID)
        _, _, h, _ = subsolution_eval(bar, [0.0, 0.0], 0.5)
        w = 0.5 / 4.0
        _, _, d2b = bump_eval(bar.bump, w)
        assert np.allclose(h.entries, bar.theta * d2b / bar.R**2 * np.eye(2))

    def test_residual_nonpositive_at_certificate_nodes(self):
        # the certificate is a node statement: spot-check random nodes of the
        # verification grid through the pointwise (extremal-operator) path
        params = EquationParams(p=3.0, A=1.0, d=1)
        grid = VerificationGrid()
        bar = make_subsolution_barrier(params, 0.25, grid)
        rng = np.random.default_rng(8)
        radii = grid.radii(1)
        times = grid.times()
        for _ in range(200):
            rho = radii[rng.integers(len(radii))]
            t = times[rng.integers(len(times))]
            assert subsolution_residual(bar, params, [rho], t) <= 1e-10

    def test_rejects_bad_theta(self):
        with pytest.raises(DomainError):
            SubsolutionBarrier(0.3, 0.25, 0.0, 1.0)
        with pytest.raises(DomainError):
            SubsolutionBarrier(0.0, 0.25, 0.0, 1.0)

    def test_time_window_enforced(self):
        params = EquationParams(p=3.0, A=1.0, d=1)
        bar = make_subsolution_barrier(params, 0.25, QUICK_GRID)
        with pytest.raises(DomainError):
            subsolution_residual(bar, params, [0.1], 1.5)

    @pytest.mark.parametrize("p, A, R", [
        (1e12, 1.0, 0.25),  # ||b'||**(p-1)
        (3.0, 1.0, 1e308),  # R**p
        (3.0, 1.0, 1e154),
        (1.0001, 1e-308, 1e308),  # theta caps at 1/4 - 0.01, then R**2
    ])
    def test_float_power_overflow_names_the_input(self, p, A, R):
        params = EquationParams(p=p, A=A, d=1)
        with pytest.raises(DomainError) as err:
            make_subsolution_barrier(params, R, QUICK_GRID)
        assert str(err.value) == (f"R={R}, p={p}, A={A} overflow the float powers "
                                  "of the subsolution barrier")


class TestFirstOrderConstants:
    def test_worked_triple(self):
        fo = first_order_constants(EquationParams(p=2.0, A=1.0))
        assert (fo.T, fo.theta, fo.eps) == (4.0, 1.0 / 32.0, 1.0 / 256.0)

    def test_worked_triple_margins(self):
        fo = FirstOrderConstants(4.0, 1.0 / 32.0, 1.0 / 256.0, EquationParams(p=2.0, A=1.0))
        m1, m2, m3 = fo.margins()
        assert m1 == pytest.approx(0.875 - 0.75)
        assert m2 == pytest.approx(0.0, abs=1e-16)
        assert m3 == pytest.approx(1.0 / 32.0 - 4.0 / 256.0)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("A", [1.0, 2.0])
    def test_margins_nonnegative(self, p, A):
        fo = first_order_constants(EquationParams(p=p, A=A))
        assert min(fo.margins()) >= 0.0
        assert 0.0 < fo.theta < 0.25
        assert fo.eps > 0.0

    def test_increasing_A_forces_larger_T(self):
        t1 = first_order_constants(EquationParams(p=2.0, A=1.0)).T
        t4 = first_order_constants(EquationParams(p=2.0, A=4.0)).T
        assert t4 > t1

    def test_violating_triple_rejected(self):
        with pytest.raises(DomainError):
            FirstOrderConstants(4.0, 0.2, 0.3, EquationParams(p=2.0, A=1.0))

    def test_serialization_round_trip(self):
        fo = first_order_constants(EquationParams(p=3.0, A=2.0))
        back = FirstOrderConstants.from_dict(fo.as_dict())
        assert back == fo
        assert min(back.margins()) >= 0.0


class TestTwoCase:
    def _grid(self, fn, nx=65, nt=17):
        xs = np.linspace(-1.0, 1.0, nx)
        ts = np.linspace(0.0, 1.0, nt)
        vals = fn(xs[:, None], ts[None, :]) * np.ones((nx, nt))
        return GridFunction((-1.0,), (xs[1] - xs[0],), 0.0, ts[1] - ts[0], vals)

    def test_constant_zero_is_case_one(self):
        u = self._grid(lambda x, t: 0.0 * x)
        params = EquationParams(p=3.0, A=1.0, d=1)
        rep = two_case_oscillation_check(u, params, 0.5, 0.25, 0.1)
        assert rep.case == 1 and rep.passed

    def test_constant_one_is_case_two(self):
        u = self._grid(lambda x, t: 1.0 + 0.0 * x)
        params = EquationParams(p=3.0, A=1.0, d=1)
        rep = two_case_oscillation_check(u, params, 0.5, 0.25, 0.1)
        assert rep.case == 2 and rep.passed

    def test_range_precondition(self):
        u = self._grid(lambda x, t: 2.0 + 0.0 * x)
        params = EquationParams(p=3.0, A=1.0, d=1)
        with pytest.raises(DomainError):
            two_case_oscillation_check(u, params, 0.5, 0.25, 0.1)

    def test_case_one_failure_detected(self):
        # low at the bottom center but high later inside B_R: conclusion fails
        u = self._grid(lambda x, t: np.clip(0.0 * x + 0.98 * t, 0.0, 1.0))
        params = EquationParams(p=3.0, A=1.0, d=1)
        rep = two_case_oscillation_check(u, params, 0.5, 0.25, 0.1)
        assert rep.case == 1
        assert not rep.passed
        assert rep.witness_value > 1.0 - 0.1
