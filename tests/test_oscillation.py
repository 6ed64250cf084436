import numpy as np
import pytest

from hjholder.core import EquationParams, GridFunction
from hjholder.errors import DegenerateData, DomainError, EmptyIntersection, PreconditionFailed
from hjholder.oscillation import (
    check_improvement,
    default_centers,
    fit_holder,
    holder_modulus_check,
    iterate_scales,
    measure_oscillations,
)


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


class TestCheckImprovement:
    def test_exact_boundary_case_passes(self):
        alpha, lam = 0.7, 0.5
        samples = [(lam**k, (lam**k) ** alpha) for k in range(6)]
        rep = check_improvement(samples, alpha, lam)
        assert rep.passed and rep.first_failure is None

    def test_stronger_decay_passes_weaker_alpha(self):
        lam = 0.5
        samples = [(lam**k, (lam**k) ** 0.8) for k in range(6)]
        rep = check_improvement(samples, 0.5, lam)
        assert rep.passed

    def test_constant_oscillation_fails_at_level_one(self):
        samples = [(0.5**k, 1.0) for k in range(4)]
        rep = check_improvement(samples, 0.3, 0.5)
        assert not rep.passed
        assert rep.first_failure == 1

    def test_vacuous_levels_reported_not_failed(self):
        # premise false at level 0 (osc > 1): nothing to check there
        samples = [(1.0, 2.0), (0.5, 1.9), (0.25, 1.8)]
        rep = check_improvement(samples, 0.5, 0.5)
        assert rep.passed
        assert not rep.levels[0].premise_holds

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
