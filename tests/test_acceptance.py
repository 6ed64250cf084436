"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import hjholder as hj
from hjholder import extremal, instances
from hjholder.barriers import (
    VerificationGrid,
    _sub_residual_radial,
    _super_residual_radial,
)


def report(num, ok, text):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d}: {status} - {text}")
    assert ok, f"criterion {num} failed: {text}"


# ---------------------------------------------------------------------------
# shared instances (module scoped: several criteria reuse the solves)
# ---------------------------------------------------------------------------


def _rough_solve(k, omega, amp, k_init, phase, t1=1.5, forcing=None, eps=1e-5,
                 nx=513, nt=97):
    params = hj.EquationParams(p=3.0, A=2.0, d=1)
    spec = hj.HamiltonianSpec(
        params=params,
        coefficient=instances.rough_coefficient(k, omega),
        diffusion=hj.ExtremalDiffusion(1, eps),
        forcing=forcing,
    )
    cfg = hj.SolveConfig(xmin=(-2.0,), xmax=(2.0,), nx=(nx,), t0=0.0, t1=t1, nt=nt)
    init = instances.initial_profile(
        "windowed", level=0.5, amplitude=amp, k=k_init, phase=phase
    )
    bc = instances.boundary_profile("frozen_initial", init=init)
    return hj.solve_hj(spec, init, bc, cfg), params


@pytest.fixture(scope="module")
def sub_barrier():
    return hj.make_subsolution_barrier(hj.EquationParams(p=3.0, A=2.0, d=1), 0.25)


@pytest.fixture(scope="module")
def rough_family(sub_barrier):
    eps = sub_barrier.eps
    singular = instances.inverse_power_forcing(0.4, 0.4, 1.3, cap_radius=4.0 / 512)
    return [
        # (solution, params, fit center, m)
        (*_rough_solve(10.0, 7.0, 0.30, 1.5, 0.7, eps=eps), 0.50, None),
        (*_rough_solve(6.0, 5.0, 0.25, 1.0, 0.3, eps=eps), 0.75, None),
        (*_rough_solve(3.0, 9.0, 0.20, 2.0, 1.2, t1=2.0, eps=eps), -0.75, None),
        (*_rough_solve(12.0, 2.0, 0.25, 1.5, 1.5, eps=eps), -1.00, None),
        (*_rough_solve(10.0, 7.0, 0.25, 1.5, 0.7, forcing=singular, eps=eps), 0.00, 2.0),
    ]


# ---------------------------------------------------------------------------
# 1. Legendre oracle
# ---------------------------------------------------------------------------


def test_criterion_01_legendre_oracle():
    worst = 0.0
    for p in (1.5, 2.0, 3.0, 4.0):
        for A in (0.5, 1.0, 2.0):
            lag = hj.legendre_closed(p, A)
            brute_at = {}  # the oracle and its window see only |q|
            for q in np.linspace(-10.0, 10.0, 50):
                if abs(q) not in brute_at:
                    radius = 2.0 * (max(abs(q), 1e-3) / (p * A)) ** (1.0 / (p - 1.0))
                    brute_at[abs(q)] = hj.legendre_brute(p, A, 0.0, q, radius, 200_001)
                worst = max(worst, abs(lag(q) - brute_at[abs(q)]))
    quad = hj.legendre_closed(2.0, 1.0)
    quad_exact = all(
        abs(quad(q) - q * q / 4.0) <= 1e-12 for q in np.linspace(-10, 10, 50)
    )
    report(
        1,
        worst <= 1e-6 and quad_exact,
        f"closed-form vs brute-force Legendre transform, worst gap {worst:.2e} "
        f"(tol 1e-6); p=2, A=1 reproduces |q|^2/4",
    )


# ---------------------------------------------------------------------------
# 2. First-order constants
# ---------------------------------------------------------------------------


def test_criterion_02_first_order_constants():
    worst = math.inf
    for p in (1.5, 2.0, 3.0):
        for A in (1.0, 2.0):
            fo = hj.first_order_constants(hj.EquationParams(p=p, A=A))
            worst = min(worst, min(fo.margins()))
    worked = hj.FirstOrderConstants(
        4.0, 1.0 / 32.0, 1.0 / 256.0, hj.EquationParams(p=2.0, A=1.0)
    )
    m = worked.margins()
    report(
        2,
        worst >= 0.0 and min(m) >= 0.0,
        f"(T, theta, eps) systems for p in {{1.5, 2, 3}}, A in {{1, 2}}, worst "
        f"margin {worst:.3g} >= 0; worked triple (4, 1/32, 1/256) margins {tuple(round(x, 6) for x in m)}",
    )


# ---------------------------------------------------------------------------
# 3. Supersolution certificate
# ---------------------------------------------------------------------------


def test_criterion_03_supersolution_certificate():
    grid = VerificationGrid()
    worst = math.inf
    for p in (2.5, 3.0, 4.0):
        for eta in (0.1, 1.0):
            for d in (1, 2):
                params = hj.EquationParams(p=p, A=1.0, d=d)
                C, eps0 = hj.find_supersolution_constants(params, eta, grid)
                bar = hj.SupersolutionBarrier(C, eta, params)
                rho, t = np.meshgrid(grid.radii(d), grid.times(), indexing="ij")
                res = _super_residual_radial(bar, rho, t, eta * eps0)
                worst = min(worst, float(res.min()))
                assert eps0 > 0.0
    report(
        3,
        worst >= -1e-10,
        f"supersolution residual on the 65-node grid across p/eta/d sweep, "
        f"worst {worst:.2e} (tol -1e-10)",
    )


# ---------------------------------------------------------------------------
# 4. Subsolution certificate
# ---------------------------------------------------------------------------


def test_criterion_04_subsolution_certificate():
    grid = VerificationGrid()
    bump = hj.BumpFunction()
    worst = -math.inf
    formulas_ok = True
    for p in (2.5, 3.0, 4.0):
        for d in (1, 2):
            params = hj.EquationParams(p=p, A=1.0, d=d)
            R = 0.25
            bar = hj.make_subsolution_barrier(params, R, grid)
            formulas_ok &= bar.C_b == pytest.approx(
                2.0 * bump.sup_db + bump.sup_d2b / R, rel=1e-14
            )
            cap = (R**p / (4.0 * params.A * bump.sup_db ** (p - 1.0))) ** (1.0 / (p - 1.0))
            formulas_ok &= bar.theta <= cap * (1 + 1e-12) and bar.theta < 0.25
            rho, t = np.meshgrid(grid.radii(d), grid.times(), indexing="ij")
            res = _sub_residual_radial(bar, params, rho, t)
            worst = max(worst, float(res.max()))
    report(
        4,
        worst <= 1e-10 and formulas_ok,
        f"subsolution residual on the grid across p/d sweep, worst {worst:.2e} "
        f"(tol 1e-10), C_b and theta per the closed-form bounds",
    )


# ---------------------------------------------------------------------------
# 5. Barrier derivatives vs finite differences
# ---------------------------------------------------------------------------


def _fd_checks(value_fn, x, t, grad, hess, dt):
    d = len(x)
    ok = True
    h = 1e-6
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        fd = (value_fn(x + e, t) - value_fn(x - e, t)) / (2 * h)
        ok &= abs(fd - grad[i]) <= 1e-5 * (1.0 + abs(grad[i]))
    # h = 3e-5 balances the fourth-derivative truncation (large near the bump
    # ramp) against roundoff for second differences
    h = 3e-5
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        fd = (value_fn(x + ei, t) - 2 * value_fn(x, t) + value_fn(x - ei, t)) / h**2
        ok &= abs(fd - hess[i, i]) <= 1e-5 * (1.0 + abs(hess[i, i])) + 1e-7
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h
            fd = (
                value_fn(x + ei + ej, t)
                - value_fn(x + ei - ej, t)
                - value_fn(x - ei + ej, t)
                + value_fn(x - ei - ej, t)
            ) / (4 * h**2)
            ok &= abs(fd - hess[i, j]) <= 1e-5 * (1.0 + abs(hess[i, j])) + 1e-7
    fd = (value_fn(x, t + 1e-6) - value_fn(x, t - 1e-6)) / 2e-6
    ok &= abs(fd - dt) <= 1e-5 * (1.0 + abs(dt))
    return ok


def test_criterion_05_barrier_derivatives():
    rng = np.random.default_rng(2024)
    params = hj.EquationParams(p=3.0, A=1.0, d=2)
    sup = hj.SupersolutionBarrier(2.0, 0.7, params)
    sub = hj.make_subsolution_barrier(params, 0.3)
    ok = True

    n = 0
    while n < 100:
        x = rng.uniform(-1.5, 1.5, 2)
        t = rng.uniform(0.1, 1.0)
        v, g, hss, dt = hj.supersolution_eval(sup, x, t)
        ok &= _fd_checks(lambda y, s: hj.supersolution_eval(sup, y, s)[0], x, t,
                         g, hss.entries, dt)
        n += 1

    n = 0
    w_gluing = 1e-3  # >= 2h from the gluing circles, in bump-argument units
    while n < 100:
        x = rng.uniform(-0.5, 0.5, 2)
        t = rng.uniform(0.05, 0.95)
        w = np.linalg.norm(x) / sub.R + t / 4.0
        if min(abs(w - 0.75), abs(w - 1.0)) < w_gluing or np.linalg.norm(x) < 0.01:
            continue
        _, g, hss, dt = hj.subsolution_eval(sub, x, t)
        ok &= _fd_checks(lambda y, s: hj.subsolution_eval(sub, y, s)[0], x, t,
                         g, hss.entries, dt)
        n += 1
    report(
        5,
        ok,
        "analytic gradient/Hessian/time-derivative of both barriers match "
        "central differences to relative 1e-5 at 100 random interior points each",
    )


# ---------------------------------------------------------------------------
# 6. Hopf-Lax oracle and first-order solver agreement
# ---------------------------------------------------------------------------


def test_criterion_06_hopf_lax_oracle():
    lag = hj.legendre_closed(2.0, 1.0)
    bnd = hj.sample_parabolic_boundary(
        lambda y, s: float(np.abs(y[0])), 8.0, 0.0, 1.0, d=1, bottom_spacing=1 / 512
    )
    moreau_worst = 0.0
    for x in np.linspace(-3.0, 3.0, 20):
        exact = x * x / 4.0 if abs(x) <= 2.0 else abs(x) - 1.0
        moreau_worst = max(moreau_worst, abs(hj.hopf_lax_eval(bnd, lag, [x], 1.0) - exact))

    params = hj.EquationParams(p=2.0, A=1.0, d=1)
    spec = hj.HamiltonianSpec(params=params, coefficient=1.0)
    exact_fn = lambda x, t: x**2 / (1.0 + 4.0 * t)
    errs = []
    for nx in (129, 257, 513):  # dx = 1/32, 1/64, 1/128 on [-2, 2]
        cfg = hj.SolveConfig(xmin=(-2.0,), xmax=(2.0,), nx=(nx,), t0=0.0, t1=0.25, nt=17)
        u = hj.solve_hj(spec, lambda x: x**2, exact_fn, cfg)
        xs = u.axis_coords(0)
        sel = np.abs(xs) <= 0.5
        errs.append(float(np.abs(u.values[sel, -1] - exact_fn(xs[sel], 0.25)).max()))
    rates = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    ok = moreau_worst <= 1e-4 and errs[-1] <= 0.05 and all(0.7 <= r <= 1.3 for r in rates)
    report(
        6,
        ok,
        f"Moreau-envelope worst gap {moreau_worst:.2e} (tol 1e-4); solver vs "
        f"|x|^2/(1+4t): err {errs[-1]:.4f} at dx=1/128 (tol 0.05), orders "
        f"{[round(r, 2) for r in rates]} in [0.7, 1.3]",
    )


# ---------------------------------------------------------------------------
# 7. Comparison principle against the min-of-translates barrier
# ---------------------------------------------------------------------------


def _comparison_instance(p, A, init_kw):
    params = hj.EquationParams(p=p, A=A, d=1)
    C, eps0 = hj.find_supersolution_constants(params, 1.0)
    eps = 0.25 * eps0
    r = (1.0 / C) ** (1.0 / params.p_prime)
    R = 0.5
    half = R + r
    spec = hj.HamiltonianSpec(
        params=params,
        coefficient=1.0 / A,
        diffusion=hj.ExtremalDiffusion(1, eps),
        shift=-eps,
    )
    cfg = hj.SolveConfig(xmin=(-half,), xmax=(half,), nx=(257,), t0=0.0, t1=1.0, nt=33)
    init_kw = dict(init_kw)
    kind = init_kw.pop("kind")
    if kind == "windowed":
        init_kw.setdefault("half_width", half)
    init = instances.initial_profile(kind, **init_kw)
    bc = instances.boundary_profile("frozen_initial", init=init)
    u = hj.solve_hj(spec, init, bc, cfg)

    xs = u.axis_coords(0)
    ts = u.times()
    bottom_sel = np.abs(xs) <= R
    ypts = xs[bottom_sel].reshape(-1, 1)
    yvals = u.values[bottom_sel, 0]
    vvals = np.empty_like(u.values)
    vvals[:, 0] = np.where(bottom_sel, u.values[:, 0], 2.0)
    bar = hj.SupersolutionBarrier(C, 1.0, params)
    for n in range(1, len(ts)):
        vvals[:, n] = hj.semi_lax_upper_bound(ypts, yvals, bar, eps, xs.reshape(-1, 1), ts[n])
    v = u.with_values(vvals)

    cyl = hj.ParabolicCylinder((0.0,), 1.0, half * 1.01, p)
    rep = hj.comparison_check(u, v, cyl)

    # truncation tolerance: horizon times the largest LF dissipation actually
    # subtracted from the Hamiltonian on the output slices
    dx = u.spacing_x[0]
    diss = 0.0
    for n in range(len(ts)):
        q = np.diff(u.values[:, n]) / dx
        alpha = p * (1.0 / A) * np.abs(q).max() ** (p - 1.0)
        diss = max(diss, 0.5 * alpha * np.abs(np.diff(q)).max())
    tol = 2.0 * diss * (ts[-1] - ts[0])
    return rep, tol, float(u.values.max())


def test_criterion_07_comparison_principle():
    cases = [
        (3.0, 1.0, dict(kind="windowed", level=0.40, amplitude=0.35, k=2.0, phase=0.4)),
        (3.0, 1.0, dict(kind="dip", level=0.70, depth=0.50, center=0.2, width=0.2)),
        (3.0, 2.0, dict(kind="windowed", level=0.50, amplitude=0.30, k=1.2, phase=1.1)),
        (4.0, 1.0, dict(kind="windowed", level=0.40, amplitude=0.30, k=1.5, phase=0.8)),
        (2.5, 1.0, dict(kind="windowed", level=0.45, amplitude=0.30, k=1.0, phase=0.5)),
    ]
    ok = True
    worst = -math.inf
    for p, A, init_kw in cases:
        rep, tol, umax = _comparison_instance(p, A, init_kw)
        ok &= rep.boundary_excess <= 1e-9
        ok &= rep.interior_excess <= tol
        ok &= umax <= 1.0
        worst = max(worst, rep.interior_excess - tol)
    report(
        7,
        ok,
        f"FD solution stays below the min-of-translates barrier on 5 instances, "
        f"worst (excess - 2x truncation tol) = {worst:.3g} <= 0",
    )


# ---------------------------------------------------------------------------
# 8. Two-case improvement lemma, end to end
# ---------------------------------------------------------------------------


def test_criterion_08_two_case_end_to_end(sub_barrier):
    params = hj.EquationParams(p=3.0, A=2.0, d=1)
    theta, eps = sub_barrier.theta, sub_barrier.eps
    C, _ = hj.find_supersolution_constants(params, 1.0)
    r = (1.0 / C) ** (1.0 / params.p_prime)
    R = 0.25
    half = R + r
    spec = hj.HamiltonianSpec(
        params=params,
        coefficient=instances.rough_coefficient(10.0, 7.0),
        diffusion=hj.ExtremalDiffusion(1, eps),
    )
    cfg = hj.SolveConfig(xmin=(-half,), xmax=(half,), nx=(257,), t0=0.0, t1=1.0, nt=65)

    # case 1: a bottom dip of depth theta (init min 0.005 < theta)
    dip = instances.initial_profile("dip", level=0.95, depth=0.945, center=0.0, width=0.05)
    bc1 = instances.boundary_profile("frozen_initial", init=dip)
    u1 = hj.solve_hj(spec, dip, bc1, cfg)
    cover = hj.ParabolicCylinder((0.0,), 1.0, half * (1.0 - 1e-9), 1e-6)
    u1n = hj.shift_normalize(u1, cover)
    rep1 = hj.two_case_oscillation_check(u1n, params, R, r, theta)

    # case 2: a uniformly raised bottom (all values >= 0.5 >> theta)
    raised = instances.initial_profile("dip", level=0.5, depth=-0.3, center=0.0, width=0.15)
    bc2 = instances.boundary_profile("frozen_initial", init=raised)
    u2 = hj.solve_hj(spec, raised, bc2, cfg)
    rep2 = hj.two_case_oscillation_check(u2, params, R, r, theta)

    ok = rep1.case == 1 and rep1.passed and rep2.case == 2 and rep2.passed
    report(
        8,
        ok,
        f"rough instance p=3, a = 1 + sin(10x)sin(7t)/2: dip -> case 1 "
        f"(max {rep1.witness_value:.3f} <= 1-theta = {rep1.threshold:.4f}); raised "
        f"bottom -> case 2 (min {rep2.witness_value:.3f} >= theta/2 = {rep2.threshold:.5f})",
    )


# ---------------------------------------------------------------------------
# 9. Improvement of oscillation on rough FD solutions
# ---------------------------------------------------------------------------


def test_criterion_09_oscillation_decay(rough_family, sub_barrier):
    lam = 0.6
    theta = sub_barrier.theta
    ok = True
    lines = []
    for u, params, center, m in rough_family:
        adm = hj.admissible_alpha(replace(params, m=m), lam, theta)
        rep = hj.iterate_scales(u, params, lam, theta, adm.alpha)
        samples = hj.measure_oscillations(u, (center, u.t1), lam, rep.beta, 12)
        est = hj.fit_holder(samples, min_radius=4 * u.spacing_x[0])
        floor_ok = rep.centers[0].levels[-1].r >= 4 * u.spacing_x[0] - 1e-12
        ok &= rep.passed and floor_ok and est.alpha_hat > 0.0 and est.max_fit_residual < 0.1
        lines.append(f"alpha={adm.alpha:.4f} alpha_hat={est.alpha_hat:.2f} "
                     f"resid={est.max_fit_residual:.3f}")
    report(
        9,
        ok,
        "iterate_scales passes at the admissible alpha down to the 4dx floor "
        "and log-log fits are clean on 5 rough instances (one with "
        f"f in L^2 \\ L^inf): {'; '.join(lines)}",
    )


# ---------------------------------------------------------------------------
# 10. Holder meter calibration
# ---------------------------------------------------------------------------


def test_criterion_10_holder_meter():
    ok = True
    gaps = []
    for alpha in (0.3, 0.5, 0.6, 1.0):
        xs = np.linspace(-1.0, 1.0, 513)
        vals = np.abs(xs)[:, None] ** alpha * np.ones((1, 9))
        u = hj.GridFunction((-1.0,), (xs[1] - xs[0],), -0.5, 0.5 / 8, vals)
        samples = hj.measure_oscillations(u, (0.0, 0.0), 0.5, 2.0, 5)
        est = hj.fit_holder(samples, min_radius=4 * u.spacing_x[0])
        gaps.append(abs(est.alpha_hat - alpha))
        ok &= gaps[-1] <= 0.05
    exact_samples = [(0.5**k, (0.5**k) ** 0.6) for k in range(8)]
    exact_est = hj.fit_holder(exact_samples)
    ok &= abs(exact_est.alpha_hat - 0.6) <= 1e-12
    report(
        10,
        ok,
        f"fitted exponents for |x|^alpha on 513-node grids within 0.05 "
        f"(gaps {[round(g, 3) for g in gaps]}); exact power data recovered to 1e-12",
    )


# ---------------------------------------------------------------------------
# 11. Scaling algebra
# ---------------------------------------------------------------------------


def test_criterion_11_scaling_algebra():
    rng = np.random.default_rng(7)
    ok = True
    # delta(alpha=0) == L^m scaling exponent on 100 random triples
    for _ in range(100):
        p = rng.uniform(1.1, 5.0)
        m = rng.uniform(1.1, 6.0)
        params = hj.EquationParams(p, d=int(rng.integers(1, 4)), m=m)
        ok &= abs(
            hj.delta_exponent(params, 0.0) - hj.lm_scaling_exponent(params)
        ) <= 1e-12 * (1 + abs(hj.delta_exponent(params, 0.0)))
    # beta window nonempty iff p(m-1) > d on a 1000-point scan
    for _ in range(1000):
        p = rng.uniform(2.01, 6.0)
        m = rng.uniform(1.01, 4.0)
        d = int(rng.integers(1, 5))
        _, _, nonempty = hj.beta_window(hj.EquationParams(p, d=d, m=m))
        ok &= nonempty == (p * (m - 1.0) > d)
    # functional round-trip consistency at 1e-10 (residual of the composed
    # function under transformed coefficients)
    p, A, eps = 3.0, 1.3, 0.21
    params = hj.EquationParams(p=p, A=A, d=1)
    u = lambda x, t: np.sin(1.3 * x) * np.cos(0.7 * t)
    du = lambda x, t: 1.3 * np.cos(1.3 * x) * np.cos(0.7 * t)
    d2u = lambda x, t: -(1.3**2) * np.sin(1.3 * x) * np.cos(0.7 * t)
    ut = lambda x, t: -0.7 * np.sin(1.3 * x) * np.sin(0.7 * t)
    for _ in range(50):
        a, b, c = rng.uniform(0.3, 2.5, 3)
        rep = hj.transform_coeffs(a, b, c, params)
        x, t = rng.uniform(-1, 1), rng.uniform(0.1, 1)
        lhs = (
            c * b * ut(a * x, b * t)
            + A * rep.grad_coeff_factor * abs(c * a * du(a * x, b * t)) ** p
            - eps * rep.diff_coeff_factor * max(c * a * a * d2u(a * x, b * t), 0.0)
        )
        rhs = b * c * (ut(a * x, b * t) + A * abs(du(a * x, b * t)) ** p
                       - eps * max(d2u(a * x, b * t), 0.0))
        ok &= abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))
    # the L^infty zoom preserves the gradient coefficient exactly
    for p_exact in (2.5, 3.0, 4.0):
        rep = hj.transform_coeffs(0.5, 0.5**p_exact, 1.0, hj.EquationParams(p=p_exact, A=1.0))
        ok &= rep.grad_coeff_factor == 1.0
    report(
        11,
        ok,
        "delta(alpha=0) == L^m exponent (100 random); beta window nonempty iff "
        "p(m-1) > d (1000-point scan); functional round trip to 1e-10; "
        "(a, b) = (1/2, 2^-p) preserves the gradient coefficient exactly",
    )


# ---------------------------------------------------------------------------
# 12. Extremal operator algebra
# ---------------------------------------------------------------------------


def test_criterion_12_extremal_properties():
    ok = True
    tol = 1e-9
    for d in (1, 2, 3, 5):
        # one loop iteration of draws per matrix pair, then m+/m- on the stacks
        rng = np.random.default_rng(900 + d)
        xs, ys, cs, psds = [], [], [], []
        for _ in range(1000):
            a = rng.normal(size=(d, d))
            xs.append(0.5 * (a + a.T))
            a = rng.normal(size=(d, d))
            ys.append(0.5 * (a + a.T))
            cs.append(float(rng.uniform(0.0, 2.0)))
            b = rng.normal(size=(d, d))
            psds.append(b @ b.T)
        x, y, c, psd = np.array(xs), np.array(ys), np.array(cs), np.array(psds)
        mp_x = extremal.m_plus(x)
        ok &= bool(np.all(np.abs(mp_x + extremal.m_minus(-x)) <= tol))
        ok &= bool(np.all(extremal.m_plus(x + y) <= mp_x + extremal.m_plus(y) + tol))
        cx = c[:, None, None] * x
        ok &= bool(np.all(np.abs(extremal.m_plus(cx) - c * mp_x) <= tol * (1 + c)))
        ok &= bool(np.all(mp_x <= extremal.m_plus(x + psd) + tol))
    report(
        12,
        ok,
        "reflection, subadditivity, positive homogeneity and monotonicity of "
        "m+/m- hold on 1000 random symmetric matrices for d in {1, 2, 3, 5} at 1e-9",
    )


# ---------------------------------------------------------------------------
# 13. First-order solver against the exact power-law solution for p > 2
# ---------------------------------------------------------------------------


def _power_law_error(p, d, n):
    """Max error at t1 = 0.25 on |x| <= 0.5 of the solve of u_t + |Du|^p = 0
    on [-2, 2]^d from u0 = |x|^{p'}, with exact Dirichlet data."""
    exact = lambda *xt: hj.power_law_solution(p, 1.0, np.stack(xt[:-1], axis=-1), xt[-1])
    spec = hj.HamiltonianSpec(params=hj.EquationParams(p=p, A=1.0, d=d), coefficient=1.0)
    cfg = hj.SolveConfig(xmin=(-2.0,) * d, xmax=(2.0,) * d, nx=(n,) * d, t0=0.0, t1=0.25,
                         nt=17)
    u = hj.solve_hj(spec, lambda *x: exact(*x, 0.0), exact, cfg)
    coords = np.meshgrid(*[u.axis_coords(i) for i in range(d)], indexing="ij")
    sel = sum(c * c for c in coords) <= 0.25
    want = exact(*[c[sel] for c in coords], 0.25)
    return float(np.abs(u.values[..., -1][sel] - want).max())


def test_criterion_13_power_law_oracle():
    # bands set from the solver before its step became cfl/rate: 1-D orders
    # 0.735-0.746, 0.651-0.662 and 0.583-0.595 (about p'/2), errors at 1025
    # nodes 1.84e-2, 3.23e-2 and 5.24e-2; 2-D errors at 65^2 and 129^2 0.250
    # and 0.153, 0.330 and 0.216, 0.416 and 0.289
    ceilings = {3.0: (0.019, 0.26, 0.16), 4.0: (0.033, 0.34, 0.22), 6.0: (0.054, 0.43, 0.30)}
    ok, parts = True, []
    for p, (ceil_1d, ceil_65, ceil_129) in ceilings.items():
        half_pp = 0.5 * p / (p - 1.0)
        errs = [_power_law_error(p, 1, n) for n in (129, 257, 513, 1025)]
        rates = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        errs_2d = [_power_law_error(p, 2, n) for n in (65, 129)]
        ok &= all(abs(r - half_pp) <= 0.04 for r in rates) and errs[-1] <= ceil_1d
        ok &= errs_2d[0] <= ceil_65 and errs_2d[1] <= ceil_129
        parts.append(f"p={p:g}: 1-D err {errs[-1]:.3e} at 1025 (tol {ceil_1d}), orders "
                     f"{[round(r, 3) for r in rates]} within 0.04 of p'/2 = {half_pp:.3f}; "
                     f"2-D err {errs_2d[0]:.3f} at 65^2, {errs_2d[1]:.3f} at 129^2 "
                     f"(tol {ceil_65}, {ceil_129})")
    report(13, ok, "solver vs (1 + c_p^{1-p} t)^{-1/(p-1)} |x|^{p'}: " + "; ".join(parts))
