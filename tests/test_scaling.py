import math

import numpy as np
import pytest

from hjholder.core import EquationParams
from hjholder.errors import DomainError, Infeasible
from hjholder.scaling import (
    admissible_alpha,
    beta_window,
    calpha_scale,
    delta_exponent,
    lm_scaling_exponent,
    time_exponent,
    transform_coeffs,
)


class TestTransformCoeffs:
    def test_identity(self):
        rep = transform_coeffs(1.0, 1.0, 1.0, EquationParams(p=3.0, A=1.0))
        assert rep.grad_coeff_factor == 1.0
        assert rep.diff_coeff_factor == 1.0
        assert rep.rhs_factor == 1.0

    def test_gradient_preserving_family_is_exact(self):
        # b = a^p, c = 1 preserves the gradient coefficient bit-exactly
        for p in (2.5, 3.0, 4.0):
            rep = transform_coeffs(0.5, 0.5**p, 1.0, EquationParams(p=p, A=1.0))
            assert rep.grad_coeff_factor == 1.0

    def test_halving_example(self):
        rep = transform_coeffs(0.5, 2.0**-3, 1.0, EquationParams(p=3.0, A=1.0))
        assert rep.grad_coeff_factor == 1.0
        assert rep.diff_coeff_factor == pytest.approx(0.5, abs=1e-15)

    def test_diffusion_shrinks_iff_superquadratic(self):
        for p in (1.5, 2.0, 2.5, 3.0):
            rep = transform_coeffs(0.5, 0.5**p, 1.0, EquationParams(p=p, A=1.0))
            if p > 2.0:
                assert rep.diff_coeff_factor < 1.0
            else:
                assert rep.diff_coeff_factor >= 1.0

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        params = EquationParams(p=2.7, A=1.0, m=3.0, d=2)
        for _ in range(50):
            a, b, c = rng.uniform(0.2, 3.0, 3)
            fwd = transform_coeffs(a, b, c, params)
            bwd = transform_coeffs(1 / a, 1 / b, 1 / c, params)
            assert fwd.grad_coeff_factor * bwd.grad_coeff_factor == pytest.approx(1.0, abs=1e-12)
            assert fwd.diff_coeff_factor * bwd.diff_coeff_factor == pytest.approx(1.0, abs=1e-12)
            assert fwd.rhs_factor * bwd.rhs_factor == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            transform_coeffs(0.0, 1.0, 1.0, EquationParams(p=3.0, A=1.0))


class TestFunctionalConsistency:
    def test_residual_of_composed_function_scales(self):
        # residual of c*u(ax, bt) under the transformed coefficients equals
        # b*c times the original residual at (ax, bt), pointwise
        p, A, eps = 3.0, 1.3, 0.21
        params = EquationParams(p=p, A=A, d=1)

        def u(x, t):
            return np.sin(1.3 * x) * np.cos(0.7 * t) + 0.2 * x * x * t

        def du(x, t):
            return 1.3 * np.cos(1.3 * x) * np.cos(0.7 * t) + 0.4 * x * t

        def d2u(x, t):
            return -1.3**2 * np.sin(1.3 * x) * np.cos(0.7 * t) + 0.4 * t

        def ut(x, t):
            return -0.7 * np.sin(1.3 * x) * np.sin(0.7 * t) + 0.2 * x * x

        def f(x, t):
            return 0.3 * np.sin(x + t)

        def residual(x, t):
            return ut(x, t) + A * abs(du(x, t)) ** p - eps * max(d2u(x, t), 0.0) - f(x, t)

        a, b, c = 0.7, 0.31, 1.9
        rep = transform_coeffs(a, b, c, params)
        rng = np.random.default_rng(11)
        for _ in range(40):
            x, t = rng.uniform(-1, 1), rng.uniform(0.1, 1)
            # derivatives of v(x,t) = c u(ax, bt) by the chain rule
            vt = c * b * ut(a * x, b * t)
            dv = c * a * du(a * x, b * t)
            d2v = c * a * a * d2u(a * x, b * t)
            lhs = (
                vt
                + A * rep.grad_coeff_factor * abs(dv) ** p
                - eps * rep.diff_coeff_factor * max(d2v, 0.0)
                - rep.rhs_factor * f(a * x, b * t)
            )
            rhs = b * c * residual(a * x, b * t)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


class TestCalphaScale:
    def test_unit_radius(self):
        rep = calpha_scale(1.0, 0.3, EquationParams(p=3.0, A=1.0))
        assert rep.diff_coeff_factor == 1.0
        assert rep.rhs_factor == 1.0

    def test_worked_example(self):
        rep = calpha_scale(0.5, 0.25, EquationParams(p=3.0, A=1.0))
        assert rep.diff_coeff_factor == pytest.approx(2.0**-0.5, rel=1e-14)
        assert rep.rhs_factor == pytest.approx(0.5 ** (3 * 0.75), rel=1e-14)

    def test_rhs_factor_below_one(self):
        for alpha in (0.1, 0.5, 0.9):
            rep = calpha_scale(0.5, alpha, EquationParams(p=2.5, A=1.0))
            assert rep.rhs_factor < 1.0


class TestDeltaExponent:
    def test_worked_example(self):
        assert delta_exponent(EquationParams(3.0, d=2, m=2.0), 0.0) == pytest.approx(0.5)

    def test_matches_lm_exponent_at_alpha_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = rng.uniform(1.1, 5.0)
            m = rng.uniform(1.1, 6.0)
            params = EquationParams(p, d=int(rng.integers(1, 4)), m=m)
            assert delta_exponent(params, 0.0) == pytest.approx(
                lm_scaling_exponent(params), rel=1e-12, abs=1e-12
            )

    def test_increasing_in_alpha(self):
        params = EquationParams(3.0, d=2, m=2.0)
        d0 = delta_exponent(params, 0.1)
        d1 = delta_exponent(params, 0.5)
        assert d1 > d0

    def test_rejects_m_le_1(self):
        with pytest.raises(DomainError):
            delta_exponent(EquationParams(3.0, d=2, m=1.0), 0.0)

    @pytest.mark.parametrize("p, m, alpha", [
        (3.0, 1e308, 0.0),  # p(m-1) and ((m-1)p+1) overflow: inf/m - inf/m
        (3.0, 1e308, 0.5),
        (1e308, 1e200, 0.0),
    ])
    def test_rejects_a_result_that_is_not_finite(self, p, m, alpha):
        with pytest.raises(DomainError, match="delta is not finite"):
            delta_exponent(EquationParams(p, d=1, m=m), alpha)

    @pytest.mark.parametrize("p, m, d, alpha", [
        (3.0, 2.0, 2, 0.0), (2.5, 1.5, 1, 0.3), (1e308, 2.0, 1, 0.0), (3.0, 1e300, 3, 0.0),
    ])
    def test_finite_results_keep_the_formula(self, p, m, d, alpha):
        assert delta_exponent(EquationParams(p, d=d, m=m), alpha) == (
            (p * (m - 1.0) - d) / m + alpha * ((m - 1.0) * p + 1.0) / m)


class TestAdmissibleAlpha:
    def test_lambda_theta_binding(self):
        got = admissible_alpha(EquationParams(3.0), 0.5, 0.1)
        exact = math.log(0.9) / math.log(0.5)
        assert abs(got.alpha - exact) <= 2e-4
        assert got.alpha <= exact

    def test_theta_near_one_caps_at_p_constraint(self):
        got = admissible_alpha(EquationParams(3.0), 0.5, 0.9999)
        assert got.alpha == pytest.approx(3.0 / 4.0, abs=3e-4)

    def test_lm_constraint(self):
        got = admissible_alpha(EquationParams(3.0, d=2, m=2.0), 0.5, 0.9999)
        assert got.alpha == pytest.approx(1.0 / 6.0, abs=3e-4)

    def test_all_reported_caps_satisfied(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            p = rng.uniform(2.1, 5.0)
            lam = rng.uniform(0.2, 0.8)
            theta = rng.uniform(0.01, 0.2)
            m = rng.uniform(1.0 + 1.5 / p, 5.0)
            d = 1
            if p * (m - 1.0) <= d:
                continue
            got = admissible_alpha(EquationParams(p, d=d, m=m), lam, theta)
            a = got.alpha
            assert 0 < a < p / (2 * (p - 1))
            assert lam**a >= 1 - theta - 1e-12
            assert a < 0.5
            assert p * (1 - a - 1 / m) - d / m >= -1e-12

    def test_infeasible_reports_binding_constraint(self):
        with pytest.raises(Infeasible):
            admissible_alpha(EquationParams(3.0, d=2, m=1.3), 0.5, 0.1)

    @pytest.mark.parametrize("p", [math.inf, math.nan, 1.0])
    def test_rejects_p_that_is_not_a_finite_number_above_one(self, p):
        with pytest.raises(DomainError, match="p must be > 1 and finite"):
            admissible_alpha(EquationParams(p), 0.5, 0.1)


class TestBetaWindow:
    def test_worked_example(self):
        lo, hi, ok = beta_window(EquationParams(3.0, d=2, m=2.0))
        assert (lo, hi) == pytest.approx((1.0 / 3.0, 0.5))
        assert ok

    def test_large_m_capped_by_conjugate(self):
        lo, hi, ok = beta_window(EquationParams(2.5, m=100.0))
        assert lo == pytest.approx(0.4)
        assert hi == pytest.approx(0.6)
        assert ok

    def test_nonempty_iff_predicate(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            p = rng.uniform(2.01, 6.0)
            m = rng.uniform(1.01, 4.0)
            d = int(rng.integers(1, 5))
            _, _, ok = beta_window(EquationParams(p, d=d, m=m))
            assert ok == (p * (m - 1.0) > d)

    def test_rejects_subquadratic(self):
        with pytest.raises(DomainError):
            beta_window(EquationParams(2.0, m=2.0))


@pytest.mark.parametrize("d", [0, -1])
@pytest.mark.parametrize("call", [
    lambda d: delta_exponent(EquationParams(3.0, d=d, m=2.0), 0.0),
    lambda d: lm_scaling_exponent(EquationParams(3.0, d=d, m=2.0)),
    lambda d: admissible_alpha(EquationParams(3.0, d=d, m=2.0), 0.5, 0.1),
    lambda d: admissible_alpha(EquationParams(3.0, d=d), 0.5, 0.1),
    lambda d: beta_window(EquationParams(3.0, d=d, m=2.0)),
])
def test_dimension_below_one_rejected(call, d):
    with pytest.raises(DomainError, match=f"d must be a positive integer, got {d}"):
        call(d)


@pytest.mark.parametrize("call", [
    lambda params: delta_exponent(params, 0.0),
    lambda params: lm_scaling_exponent(params),
    lambda params: beta_window(params),
])
def test_exponents_of_the_lm_theory_need_m(call):
    with pytest.raises(DomainError, match="needs the L\\^m exponent m"):
        call(EquationParams(3.0, d=2))


def test_time_exponent_matches_display():
    p, alpha = 3.0, 0.25
    assert time_exponent(p, alpha) == pytest.approx(alpha / (p - alpha * (p - 1)))
