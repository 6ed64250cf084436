import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hjholder.barriers import SupersolutionBarrier
from hjholder.core import EquationParams
from hjholder.errors import DomainError, EmptyBoundary, SearchFailed, WindowTooSmall
from hjholder.variational import (
    _line_samples,
    hopf_lax_eval,
    legendre_brute,
    legendre_closed,
    power_law_solution,
    sample_parabolic_boundary,
    semi_lax_upper_bound,
)


def brute_radius(p, A, q):
    return 2.0 * (max(abs(q), 1e-3) / (p * A)) ** (1.0 / (p - 1.0))


def _ref_legendre_brute(p, A, shift, q, search_radius, n_samples):
    """The scan of the whole line [-R, R]: its value, or the message of the
    WindowTooSmall it raises."""
    qnorm = float(np.linalg.norm(np.atleast_1d(np.asarray(q, dtype=float))))
    s = np.linspace(-search_radius, search_radius, int(n_samples))
    vals = qnorm * s - (shift + A * np.abs(s) ** p)
    k = int(np.argmax(vals))
    if k in (0, len(s) - 1) and qnorm > 0.0:
        try:
            xi_star = (qnorm / (p * A)) ** (1.0 / (p - 1.0))
        except OverflowError:  # p close to 1
            xi_star = math.inf
        return f"maximizer on the window edge; |xi*|={xi_star:g}"
    return repr(float(vals[k]))  # repr compares bits, and nan equal to nan


def _powers_of_ten(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


def _signed(magnitudes):
    return st.builds(lambda sign, v: sign * v, st.sampled_from([-1.0, 1.0]), magnitudes)


class TestLegendreClosed:
    def test_quadratic_coefficient(self):
        lag = legendre_closed(2.0, 1.0)
        assert lag.c_p == 0.25
        assert lag(2.0) == pytest.approx(1.0)

    def test_cubic_coefficient(self):
        lag = legendre_closed(3.0, 1.0)
        assert lag.c_p == pytest.approx(2.0 * 3.0**-1.5, rel=1e-14)

    def test_value_at_zero_is_minus_shift(self):
        for shift in (-0.3, 0.0, 0.7):
            lag = legendre_closed(2.5, 1.3, shift)
            assert lag(0.0) == pytest.approx(-shift)

    def test_reciprocal_coefficient_convention(self):
        # H = -eps + (1/A)|xi|^p  ->  L = eps + c_p A^{p'-1} |r|^{p'}
        A, eps = 2.0, 0.1
        lag = legendre_closed(3.0, 1.0 / A, -eps)
        assert lag.shift == pytest.approx(eps)
        assert lag.coeff_A_power == pytest.approx(A ** (lag.p_prime - 1.0))

    def test_rejects_bad_args(self):
        with pytest.raises(DomainError):
            legendre_closed(1.0, 1.0)
        with pytest.raises(DomainError):
            legendre_closed(2.0, 0.0)

    @pytest.mark.parametrize("p, A", [(1.5, 1e-300), (1.5, 1e300), (1e17, 1.0)])
    def test_float_range(self, p, A):
        # A^{1-p'} overflows, or underflows to 0, or p' rounds to 1
        with pytest.raises(SearchFailed, match=re.escape(f"for p={p}, A={A} leaves the float range")):
            legendre_closed(p, A)


class TestLegendreBrute:
    def test_zero_velocity(self):
        assert legendre_brute(2.0, 1.0, 0.4, 0.0, 1.0) == pytest.approx(-0.4)

    def test_quadratic_closed_form(self):
        got = legendre_brute(2.0, 1.0, 0.0, 2.0, 4.0, 100_001)
        assert got == pytest.approx(1.0, abs=1e-6)

    def test_quadratic_with_coefficient(self):
        got = legendre_brute(2.0, 2.0, 0.0, 2.0, 4.0, 100_001)
        assert got == pytest.approx(0.5, abs=1e-6)

    def test_window_too_small(self):
        with pytest.raises(WindowTooSmall):
            legendre_brute(2.0, 1.0, 0.0, 10.0, 1.0, 1001)

    @pytest.mark.parametrize("shift", [0.0, 0.4, -2.5, 1e20, -1e20, math.nan])
    def test_half_line_scan_matches_the_whole_line(self, shift):
        """The same value, or the same window-edge message, as a scan of the
        whole line: with q = 0 or nan, and with shifts that swamp every sample,
        the half-line does not decide and the whole line is scanned."""
        for q in (0.0, 1e-300, 1e-3, -0.7, 3.0, [3.0, -4.0], np.array([[0.0, 1e-3]]), math.nan):
            for p, A in ((1.5, 1.0), (2.0, 0.5), (3.0, 2.0), (7.0, 1.0)):
                for radius in (1e-3, 0.5, 4.0, 50.0):
                    for n in (100, 101, 10_001):
                        ref = _ref_legendre_brute(p, A, shift, q, radius, n)
                        try:
                            got = repr(legendre_brute(p, A, shift, q, radius, n))
                        except WindowTooSmall as exc:
                            got = str(exc)
                        assert got == ref, (shift, q, p, A, radius, n)

    def test_rejects_few_samples(self):
        with pytest.raises(DomainError):
            legendre_brute(2.0, 1.0, 0.0, 1.0, 2.0, 10)

    @pytest.mark.parametrize("n", [math.nan, math.inf, "200", 100.5, 200.0, True])
    def test_rejects_a_sample_count_that_is_not_an_integer(self, n):
        with pytest.raises(DomainError, match="n_samples must be an integer"):
            legendre_brute(2.0, 1.0, 0.0, 1.0, 2.0, n)

    def test_takes_a_numpy_integer_sample_count(self):
        assert (repr(legendre_brute(3.0, 2.0, 0.0, 1.5, 2.0, np.int64(1001)))
                == repr(legendre_brute(3.0, 2.0, 0.0, 1.5, 2.0, 1001)))

    @pytest.mark.parametrize("q, lines", [(3.0, 2.0), (0.0, 2.0), (3.0, 1.0), (3.0, 0.0)])
    def test_peak_is_the_samples_and_two_scored_lines(self, q, lines):
        # only the scored samples are built: about 2 sqrt(n) coarse and
        # bracket samples per half, with their indices and penalties
        # (measured: 0.0141 times the n samples' size at q = 3, 0.0094 at
        # q = 0), which the no-line row bounds by 0.02; a half scored whole
        # builds its samples, then one penalty and one score array of its
        # length, which the one- and two-line rows bound
        n = 200_000
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            legendre_brute(3.0, 2.0, 0.0, q, 2.0, n)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= (lines + (0.05 if lines else 0.02)) * 8 * n, peak / (8 * n)

    @settings(max_examples=300, deadline=None)
    @given(
        R=st.one_of(st.floats(5e-324, 1e-300), _powers_of_ten(-300.0, 300.0),
                    st.floats(8.98846567431158e307, 1.7976931348623157e308)),
        n=st.sampled_from([100, 101, 1001, 200_001]),
    )
    @example(5e-324, 100)
    @example(1e-320, 200_001)  # the step underflows to 0
    @example(8.98846567431158e307, 101)  # the least R whose 2R overflows
    @example(1.7e308, 200_001)
    def test_sample_rule_is_linspace(self, R, n):
        """_line_samples gives np.linspace(-R, R, n)'s bits at any ascending
        index array, and m = np.searchsorted(samples, 0.0), with no warning."""
        with np.errstate(over="ignore", invalid="ignore"):  # linspace's own, where 2R overflows
            ref = np.linspace(-R, R, n)
        at, m = _line_samples(R, n)
        assert m == np.searchsorted(ref, 0.0)
        for idx in (np.arange(n), np.append(np.arange(0, n - 1, math.isqrt(n)), n - 1),
                    np.arange(m, n - 1), np.arange(0, m)):
            assert at(idx).tobytes() == ref[idx].tobytes(), idx

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.floats(1.001, 60.0, exclude_min=True, exclude_max=True),
        A=_powers_of_ten(-8.0, 8.0),
        shift=st.one_of(st.just(0.0), st.just(math.nan), st.floats(-1e22, 1e22),
                        _signed(_powers_of_ten(-3.0, 22.0))),
        q=st.one_of(st.just(0.0), st.floats(-50.0, 50.0), _signed(_powers_of_ten(-6.0, 3.0))),
        R=_powers_of_ten(-4.0, 3.0),
        n=st.sampled_from([100, 101, 1001, 200_001]),
    )
    # without the rounding guard the bracket missed these by one ulp: the
    # shift is so large that rounding flattens the scores into teeth
    @example(39.589848304193346, 1.1989621090531218e-4, 3.44238908129764e17,
             -23.983481505712913, 4.14299433335751, 10001)
    @example(33.56213204783179, 1.0237931797003524e-6, 2.2314598302408426e17,
             -34.19948906486579, 4.37636696574612, 100)
    @example(3.0, 10806050.329805922, 23137226179689.42, -30.51270251823879,
             0.002183538296071484, 10001)
    def test_bracket_matches_the_whole_line(self, p, A, shift, q, R, n):
        """The same value, or the same window-edge message, as a scan of the
        whole line, whether the bracket decides or a half is scored whole."""
        ref = _ref_legendre_brute(p, A, shift, q, R, n)
        try:
            got = repr(legendre_brute(p, A, shift, q, R, n))
        except WindowTooSmall as exc:
            got = str(exc)
        assert got == ref

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("A", [0.5, 1.0, 2.0])
    def test_oracle_agreement_spot(self, p, A):
        lag = legendre_closed(p, A)
        for q in (-7.0, -1.0, 0.5, 3.0):
            brute = legendre_brute(p, A, 0.0, q, brute_radius(p, A, q), 200_001)
            assert abs(lag(q) - brute) <= 1e-6

    def test_young_inequality(self):
        p, A = 3.0, 1.5
        lag = legendre_closed(p, A)
        rng = np.random.default_rng(2)
        for _ in range(100):
            q, xi = rng.uniform(-5, 5, 2)
            assert q * xi <= A * abs(xi) ** p + lag(q) + 1e-12
        for q in (0.5, 2.0, -3.0):
            xi_star = np.sign(q) * (abs(q) / (p * A)) ** (1.0 / (p - 1.0))
            gap = A * abs(xi_star) ** p + lag(q) - q * xi_star
            assert abs(gap) <= 1e-10


class TestHopfLax:
    def test_zero_bottom_data(self):
        # x on the sample lattice: the minimizer y = x, s = t0 is hit exactly
        lag = legendre_closed(2.0, 1.0)
        bnd = sample_parabolic_boundary(lambda y, s: 0.0 if abs(y[0]) < 7.9 else 5.0,
                                        8.0, 0.0, 1.0, d=1, bottom_spacing=1 / 64)
        assert hopf_lax_eval(bnd, lag, [0.25], 0.7) == pytest.approx(0.0, abs=1e-12)

    def test_moreau_envelope_of_abs(self):
        lag = legendre_closed(2.0, 1.0)
        bnd = sample_parabolic_boundary(lambda y, s: float(np.abs(y[0])),
                                        8.0, 0.0, 1.0, d=1, bottom_spacing=1 / 512)
        for x in np.linspace(-3, 3, 20):
            exact = x * x / 4.0 if abs(x) <= 2.0 else abs(x) - 1.0
            assert hopf_lax_eval(bnd, lag, [x], 1.0) == pytest.approx(exact, abs=1e-4)

    def test_quadratic_bottom_closed_form(self):
        lag = legendre_closed(2.0, 1.0)
        bnd = sample_parabolic_boundary(lambda y, s: float(y[0] ** 2),
                                        8.0, 0.0, 1.0, d=1, bottom_spacing=1 / 512)
        for x, t in ((0.3, 0.5), (-1.2, 0.25), (0.9, 1.0)):
            assert hopf_lax_eval(bnd, lag, [x], t) == pytest.approx(
                x * x / (1 + 4 * t), abs=2e-4
            )

    def test_min_property(self):
        lag = legendre_closed(2.0, 1.0)
        bnd = sample_parabolic_boundary(lambda y, s: float(np.cos(y[0])),
                                        2.0, 0.0, 1.0, d=1, bottom_spacing=1 / 32)
        x, t = [0.2], 0.8
        v = hopf_lax_eval(bnd, lag, x, t)
        dt = t - bnd.times
        keep = dt >= 1e-9
        costs = bnd.values[keep] + dt[keep] * lag.value_at_speed(
            np.abs(x[0] - bnd.points[keep, 0]) / dt[keep]
        )
        assert v <= costs.min() + 1e-14

    def test_monotone_in_boundary_data(self):
        lag = legendre_closed(2.0, 1.0)
        low = sample_parabolic_boundary(lambda y, s: float(np.sin(y[0])),
                                        2.0, 0.0, 1.0, d=1, bottom_spacing=1 / 64)
        high = sample_parabolic_boundary(lambda y, s: float(np.sin(y[0])) + 0.2,
                                         2.0, 0.0, 1.0, d=1, bottom_spacing=1 / 64)
        v_low = hopf_lax_eval(low, lag, [0.1], 0.5)
        v_high = hopf_lax_eval(high, lag, [0.1], 0.5)
        assert v_low <= v_high <= v_low + 0.2 + 1e-12

    def test_refinement_never_increases(self):
        # halved spacing yields a superset of candidates, so the min drops
        lag = legendre_closed(2.0, 1.0)
        coarse = sample_parabolic_boundary(lambda y, s: float(np.abs(y[0])),
                                           4.0, 0.0, 1.0, d=1, bottom_spacing=1 / 32)
        fine = sample_parabolic_boundary(lambda y, s: float(np.abs(y[0])),
                                         4.0, 0.0, 1.0, d=1, bottom_spacing=1 / 64)
        for x in (-1.3, 0.4, 2.2):
            assert hopf_lax_eval(fine, lag, [x], 1.0) <= hopf_lax_eval(
                coarse, lag, [x], 1.0
            ) + 1e-14

    def test_dynamic_programming_consistency(self):
        # going through an intermediate slice of itself changes little on
        # smooth data
        lag = legendre_closed(2.0, 1.0)
        bnd = sample_parabolic_boundary(lambda y, s: float(y[0] ** 2),
                                        8.0, 0.0, 1.0, d=1, bottom_spacing=1 / 256)
        s_mid = 0.5
        ys = np.linspace(-4, 4, 513)
        mid_vals = [hopf_lax_eval(bnd, lag, [y], s_mid) for y in ys]
        from hjholder.variational import BoundarySamples

        mid = BoundarySamples(ys.reshape(-1, 1), np.full(len(ys), s_mid), mid_vals)
        for x in (0.0, 0.7, -1.1):
            direct = hopf_lax_eval(bnd, lag, [x], 1.0)
            through = hopf_lax_eval(mid, lag, [x], 1.0)
            assert through == pytest.approx(direct, abs=5e-3)

    def test_empty_boundary(self):
        lag = legendre_closed(2.0, 1.0)
        bnd = sample_parabolic_boundary(lambda y, s: 0.0, 1.0, 0.5, 1.0, d=1)
        with pytest.raises(EmptyBoundary):
            hopf_lax_eval(bnd, lag, [0.0], 0.2)

    def test_two_dimensional_sampling(self):
        lag = legendre_closed(2.0, 1.0)
        bnd = sample_parabolic_boundary(lambda y, s: float(y[0] ** 2 + y[1] ** 2),
                                        4.0, 0.0, 1.0, d=2, bottom_spacing=1 / 16)
        x = np.array([0.3, -0.2])
        t = 0.5
        exact = float(x @ x) / (1 + 4 * t)
        assert hopf_lax_eval(bnd, lag, x, t) == pytest.approx(exact, abs=5e-3)


class TestPowerLawSolution:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0, 6.0])
    def test_matches_hopf_lax_of_its_boundary_data(self, p):
        a = 0.7
        lag = legendre_closed(p, 1.0)
        bnd = sample_parabolic_boundary(lambda y, s: power_law_solution(p, a, y, s),
                                        3.0, 0.0, 1.0, d=1, bottom_spacing=1 / 512)
        for x, t in ((0.0, 0.5), (0.3, 0.25), (-0.8, 0.6), (1.1, 1.0)):
            assert hopf_lax_eval(bnd, lag, [x], t) == pytest.approx(
                power_law_solution(p, a, [x], t), abs=5e-6)

    @pytest.mark.parametrize("p", [1.5, 3.0, 6.0])
    def test_is_the_minimum_over_y(self, p):
        # brute minimum of a|y|^{p'} + t c_p |(x - y)/t|^{p'} over a line of y
        # and over a square of y, whose lattice misses the 2-D minimizer
        a, t = 1.3, 0.4
        lag = legendre_closed(p, 1.0)
        ys = np.linspace(-2.0, 2.0, 400_001)
        for x in (0.0, 0.45, -1.2):
            cost = a * np.abs(ys) ** lag.p_prime + t * lag.value_at_speed((x - ys) / t)
            assert power_law_solution(p, a, [x], t) == pytest.approx(cost.min(), abs=1e-9)
        g = np.linspace(-1.0, 1.0, 801)
        y = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1)
        x = np.array([0.6, -0.35])
        speed = np.linalg.norm(x - y, axis=-1) / t
        cost = a * np.linalg.norm(y, axis=-1) ** lag.p_prime + t * lag.value_at_speed(speed)
        assert power_law_solution(p, a, x, t) == pytest.approx(cost.min(), abs=1e-5)

    @pytest.mark.parametrize("p", [1.5, 3.0, 6.0])
    def test_solves_the_equation(self, p):
        # centred differences: u_t + |Du|^p = 0 away from the kink at x = 0
        a, h = 0.9, 1e-5
        x, t = np.array([0.5, -0.4]), 0.3
        u = lambda x, t: power_law_solution(p, a, x, t)
        ut = (u(x, t + h) - u(x, t - h)) / (2.0 * h)
        grad = [(u(x + h * e, t) - u(x - h * e, t)) / (2.0 * h) for e in np.eye(2)]
        assert ut + np.linalg.norm(grad) ** p == pytest.approx(0.0, abs=1e-8)

    def test_initial_data_and_the_quadratic_case(self):
        x = np.linspace(-2.0, 2.0, 9).reshape(-1, 1)
        lag = legendre_closed(4.0, 1.0)
        np.testing.assert_allclose(power_law_solution(4.0, 0.6, x, 0.0),
                                   0.6 * np.abs(x[:, 0]) ** lag.p_prime, rtol=1e-15)
        for t in (0.0, 0.25, 1.0):
            np.testing.assert_allclose(power_law_solution(2.0, 1.0, x, t),
                                       x[:, 0] ** 2 / (1.0 + 4.0 * t), rtol=1e-15)

    def test_shapes(self):
        assert isinstance(power_law_solution(3.0, 1.0, [0.5, 0.2], 0.1), float)
        assert isinstance(power_law_solution(3.0, 1.0, 0.5, 0.1), float)
        pts = np.zeros((4, 3, 2))
        assert power_law_solution(3.0, 1.0, pts, 0.1).shape == (4, 3)

    @pytest.mark.parametrize("p, a, t", [(1.0, 1.0, 0.1), (3.0, 0.0, 0.1), (3.0, -1.0, 0.1),
                                         (3.0, 1.0, -0.1), (3.0, math.nan, 0.1),
                                         (3.0, 1.0, math.nan), (3.0, math.inf, 0.0),
                                         (3.0, 1.0, math.inf)])
    def test_rejects_bad_input(self, p, a, t):
        with pytest.raises(DomainError):
            power_law_solution(p, a, [0.5], t)


class TestSemiLaxUpperBound:
    def _bar(self, C=2.0, eta=1.0, d=1):
        return SupersolutionBarrier(C, eta, EquationParams(p=3.0, A=1.0, d=d))

    def test_symmetric_minimizer_formula(self):
        bar = self._bar()
        eps, t = 0.05, 0.7
        ys = np.linspace(-1, 1, 201).reshape(-1, 1)
        vals = np.zeros(201)
        got = semi_lax_upper_bound(ys, vals, bar, eps, [0.0], t)
        expect = bar.C * t ** (-0.5) * (bar.eta * t) ** (bar.params.p_prime / 2.0) + eps * t
        assert got == pytest.approx(expect, rel=1e-12)

    def test_single_dip_bound(self):
        bar = self._bar()
        eps, t = 0.05, 0.5
        ys = np.linspace(-1, 1, 201).reshape(-1, 1)
        vals = np.ones(201)
        k0 = 40
        vals[k0] = 0.03
        x = [0.3]
        got = semi_lax_upper_bound(ys, vals, bar, eps, x, t)
        dist2 = (x[0] - ys[k0, 0]) ** 2
        barrier = bar.C * t ** (-0.5) * (dist2 + bar.eta * t) ** (bar.params.p_prime / 2.0)
        assert got <= 0.03 + barrier + eps * t + 1e-12

    def test_monotone_in_bottom_values(self):
        bar = self._bar(C=1.0)
        ys = np.linspace(-1, 1, 101).reshape(-1, 1)
        rng = np.random.default_rng(4)
        vals = rng.uniform(0, 1, 101)
        base = semi_lax_upper_bound(ys, vals, bar, 0.0, [0.2], 0.5)
        bumped = semi_lax_upper_bound(ys, vals + 0.1, bar, 0.0, [0.2], 0.5)
        assert base <= bumped <= base + 0.1 + 1e-12

    @pytest.mark.parametrize("d", [1, 2])
    def test_points_at_once_equal_one_point_at_a_time(self, d):
        rng = np.random.default_rng(5 + d)
        bar = self._bar(C=1.7, eta=0.6, d=d)
        ys = rng.uniform(-1, 1, (57, d))
        vals = rng.uniform(0, 1, 57)
        xs = rng.uniform(-1.5, 1.5, (3, 41, d))
        got = semi_lax_upper_bound(ys, vals, bar, 0.03, xs, 0.37)
        assert got.shape == (3, 41)
        for idx in np.ndindex(3, 41):
            one = semi_lax_upper_bound(ys, vals, bar, 0.03, xs[idx], 0.37)
            assert isinstance(one, float)
            assert got[idx] == one

    @pytest.mark.parametrize("d, x", [(1, [0.3, 0.4]), (2, [0.3]), (2, [[0.1, 0.2, 0.3]])])
    def test_rejects_points_of_another_dimension(self, d, x):
        ys = np.zeros((4, d))
        with pytest.raises(DomainError, match="coordinates"):
            semi_lax_upper_bound(ys, np.zeros(4), self._bar(d=d), 0.0, x, 0.5)

    def test_rejects_subquadratic_and_bad_time(self):
        ys = np.zeros((1, 1))
        with pytest.raises(DomainError):
            semi_lax_upper_bound(ys, [0.0], self._bar(), 0.0, [0.0], 0.0)
        with pytest.raises(DomainError, match="requires p > 2"):
            SupersolutionBarrier(1.0, 1.0, EquationParams(p=2.0, A=1.0))
