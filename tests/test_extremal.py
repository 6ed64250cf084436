import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjholder.errors import DomainError
from hjholder.extremal import SymMatrix, _mid_rad, _symmetrized, m_minus, m_plus, sym_eigs


def random_sym(rng, d):
    a = rng.normal(size=(d, d))
    return 0.5 * (a + a.T)


# ---------------------------------------------------------------------------
# Independent oracle: no code shared with hjholder.extremal
# ---------------------------------------------------------------------------


def _det3(b):
    return float(
        b[0, 0] * (b[1, 1] * b[2, 2] - b[1, 2] * b[2, 1])
        - b[0, 1] * (b[1, 0] * b[2, 2] - b[1, 2] * b[2, 0])
        + b[0, 2] * (b[1, 0] * b[2, 1] - b[1, 1] * b[2, 0])
    )


def trig_cubic_eigs(a):
    """Eigenvalues of a symmetric 3x3 matrix from its characteristic cubic."""
    q = np.trace(a) / 3.0
    b = a - q * np.eye(3)
    p2 = np.sum(b * b) / 6.0
    if p2 == 0.0:
        return np.array([q, q, q])
    p = math.sqrt(p2)
    r = min(1.0, max(-1.0, _det3(b / p) / 2.0))
    phi = math.acos(r) / 3.0
    e0 = q + 2.0 * p * math.cos(phi)
    e2 = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    e1 = 3.0 * q - e0 - e2
    return np.array(sorted([e0, e1, e2]))


def jacobi_eigs(a, tol=1e-12, max_sweeps=64):
    """Cyclic Jacobi rotations; converges to tolerance 1e-12 relative."""
    m = np.array(a, dtype=float)
    d = m.shape[0]
    scale = 1.0 + math.sqrt(float(np.sum(m * m)))
    for _ in range(max_sweeps):
        off = math.sqrt(max(0.0, float(np.sum(m * m) - np.sum(np.diag(m) ** 2))))
        if off <= tol * scale:
            break
        for i in range(d - 1):
            for j in range(i + 1, d):
                if abs(m[i, j]) <= 1e-13 * scale:
                    continue
                theta = 0.5 * (m[j, j] - m[i, i]) / m[i, j]
                if abs(theta) > 1e150:  # rotation angle ~ 1/(2 theta)
                    t = 0.5 / theta
                else:
                    t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(d)
                rot[i, i] = rot[j, j] = c
                rot[i, j] = s
                rot[j, i] = -s
                m = rot.T @ m @ rot
                m = 0.5 * (m + m.T)
    return np.sort(np.diag(m))


def oracle_eigs(a):
    d = a.shape[0]
    if d == 1:
        return a[0, :1].copy()
    if d == 3:
        return trig_cubic_eigs(a)
    return jacobi_eigs(a)


class TestSymEigs:
    def test_identity(self):
        assert sym_eigs(np.eye(2)) == pytest.approx([1.0, 1.0])

    def test_diagonal(self):
        assert sym_eigs(np.diag([2.0, -3.0])) == pytest.approx([-3.0, 2.0])

    def test_reflection(self):
        assert sym_eigs([[0.0, 1.0], [1.0, 0.0]]) == pytest.approx([-1.0, 1.0])

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_matches_numpy(self, d):
        # The package is checked against the oracle, which does not use
        # LAPACK; the oracle itself is checked against numpy.
        rng = np.random.default_rng(d)
        for _ in range(200):
            x = random_sym(rng, d)
            mine = sym_eigs(x)
            ref = oracle_eigs(x)
            scale = 1.0 + np.linalg.norm(x)
            assert np.max(np.abs(mine - ref)) <= 1e-10 * scale
            assert np.max(np.abs(ref - np.linalg.eigvalsh(x))) <= 1e-10 * scale

    def test_oracles_agree_at_d3(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            x = random_sym(rng, 3)
            scale = 1.0 + np.linalg.norm(x)
            assert np.max(np.abs(trig_cubic_eigs(x) - jacobi_eigs(x))) <= 1e-10 * scale

    def test_symmetrization_at_construction(self):
        m = SymMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
        assert np.array_equal(m.entries, m.entries.T)

    def test_repeated_eigenvalues(self):
        x = np.diag([2.0, 2.0, 2.0])
        assert sym_eigs(x) == pytest.approx([2.0, 2.0, 2.0])


class TestStacks:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_shapes_and_values_match_single_matrices(self, d):
        rng = np.random.default_rng(40 + d)
        stack = rng.normal(size=(4, 3, d, d))
        ev = sym_eigs(stack)
        mp, mm = m_plus(stack), m_minus(stack)
        assert ev.shape == (4, 3, d)
        assert mp.shape == mm.shape == (4, 3)
        for idx in np.ndindex(4, 3):
            assert ev[idx] == pytest.approx(sym_eigs(stack[idx]), abs=1e-12)
            assert mp[idx] == pytest.approx(m_plus(stack[idx]), abs=1e-12)
            assert mm[idx] == pytest.approx(m_minus(stack[idx]), abs=1e-12)

    def test_single_matrix_gives_float_and_stack_gives_array(self):
        x = np.diag([1.0, -2.0])
        assert type(m_plus(x)) is float and type(m_minus(x)) is float
        one = m_plus(x[None])
        assert isinstance(one, np.ndarray) and one.shape == (1,)
        assert m_plus(3.0) == 3.0 and m_minus(3.0) == 0.0

    def test_stack_is_symmetrized(self):
        a = np.array([[[1.0, 2.0], [0.0, 1.0]], [[0.0, 4.0], [-4.0, 0.0]]])
        assert m_plus(a) == pytest.approx([2.0, 0.0])
        assert m_minus(a) == pytest.approx([0.0, 0.0])

    @pytest.mark.parametrize(
        "shape", [(3,), (3, 2), (2, 3, 2), (0, 0), (4, 0, 0)]
    )
    def test_non_square_rejected(self, shape):
        x = np.zeros(shape)
        for op in (sym_eigs, m_plus, m_minus):
            with pytest.raises(DomainError):
                op(x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_non_finite_rejected(self, bad, d):
        x = np.zeros((5, d, d))
        x[3, 0, d - 1] = bad
        for op in (sym_eigs, m_plus, m_minus):
            with pytest.raises(DomainError):
                op(x)
            with pytest.raises(DomainError):
                op(x[3])

    def test_sym_matrix_holds_one_matrix(self):
        with pytest.raises(DomainError):
            SymMatrix(np.zeros((2, 2, 2)))


class TestClamps:
    def test_mixed_signs(self):
        x = np.diag([2.0, -3.0])
        assert m_plus(x) == 2.0
        assert m_minus(x) == -3.0

    def test_zero_matrix(self):
        z = np.zeros((3, 3))
        assert m_plus(z) == 0.0
        assert m_minus(z) == 0.0

    def test_negative_definite(self):
        x = np.diag([-1.0, -2.0])
        assert m_plus(x) == 0.0
        assert m_minus(x) == -2.0

    def test_positive_definite(self):
        x = np.diag([1.0, 2.0])
        assert m_plus(x) == 2.0
        assert m_minus(x) == 0.0


class TestAlgebraicProperties:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_reflection_subadditivity_homogeneity_monotonicity(self, d):
        # Draw in the order of one loop iteration per matrix pair, then
        # evaluate every property on the whole stack at once.
        rng = np.random.default_rng(100 + d)
        xs, ys, cs, psds = [], [], [], []
        for _ in range(250):
            xs.append(random_sym(rng, d))
            ys.append(random_sym(rng, d))
            cs.append(float(rng.uniform(0.0, 3.0)))
            b = rng.normal(size=(d, d))
            psds.append(b @ b.T)
        x, y, c, psd = np.array(xs), np.array(ys), np.array(cs), np.array(psds)
        cx = c[:, None, None] * x
        tol = 1e-9
        # reflection
        assert np.all(np.abs(m_plus(x) + m_minus(-x)) <= tol)
        # subadditivity of m+, superadditivity of m-
        assert np.all(m_plus(x + y) <= m_plus(x) + m_plus(y) + tol)
        assert np.all(m_minus(x + y) >= m_minus(x) + m_minus(y) - tol)
        # positive homogeneity
        assert np.all(np.abs(m_plus(cx) - c * m_plus(x)) <= tol * (1 + c))
        assert np.all(np.abs(m_minus(cx) - c * m_minus(x)) <= tol * (1 + c))
        # quadratic-form monotonicity: X <= X + P for P psd
        assert np.all(m_plus(x) <= m_plus(x + psd) + tol)


# ---------------------------------------------------------------------------
# Entries near the ends of the float range
# ---------------------------------------------------------------------------

_MAX = float(np.finfo(float).max)


def _signed(magnitudes):
    return st.builds(lambda sign, v: sign * v, st.sampled_from([-1.0, 1.0]), magnitudes)


# any finite float, and magnitudes whose squares overflow or underflow
_ENTRY = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    _signed(st.floats(1e154, _MAX)),
    _signed(st.floats(0.0, 1e-154)),
)


class TestRadius:
    @settings(max_examples=300, deadline=None)
    @given(st.tuples(_ENTRY, _ENTRY, _ENTRY), st.tuples(_ENTRY, _ENTRY, _ENTRY))
    def test_within_2ulp_of_hypot_alone_and_in_a_stack(self, first, second):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alone = [_mid_rad(*(np.asarray(v) for v in h)) for h in (first, second)]
            mids, rads = _mid_rad(*(np.array(col) for col in zip(first, second)))
        for k, (h00, h11, h01) in enumerate((first, second)):
            mid, rad = alone[k]
            with np.errstate(over="ignore"):  # radii above the float range are inf
                want = np.hypot(0.5 * h00 - 0.5 * h11, h01)
            assert rad == want or abs(rad - want) <= 2 * np.spacing(want)
            assert mid == 0.5 * h00 + 0.5 * h11 and math.isfinite(mid)
            # each entry's radius depends on that entry alone
            assert np.float64(rad).tobytes() == rads[k].tobytes()
            assert np.float64(mid).tobytes() == mids[k].tobytes()

    def test_sqrt_form_away_from_the_range_ends(self):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(2, 10_000)) * 10.0 ** rng.integers(-100, 100, size=(2, 10_000))
        _, rad = _mid_rad(x, -x, y)
        assert rad.tobytes() == np.sqrt(x * x + y * y).tobytes()


class TestHugeFiniteMatrices:
    @pytest.mark.parametrize("entries", [
        [[1.5e308, 0.0], [0.0, 1.5e308]],
        [[1e308, 0.0], [0.0, -1e308]],
        [[-1.2e308, 1e308], [1e308, 1.2e308]],
        [[1.5e308, 0.0, 0.0], [0.0, -1e308, 0.0], [0.0, 0.0, 1e308]],
        # eigenvalues +-1.97e308 lie above the float range: +-inf, never nan
        [[-1.7e308, 1e308], [1e308, 1.7e308]],
    ])
    def test_m_pm_never_nan_and_match_eigvalsh(self, entries):
        x = np.array(entries)
        want = np.linalg.eigvalsh(x)
        for a in (x, np.stack([x, x])):
            ev = sym_eigs(a)
            assert not np.isnan(ev).any()
            assert np.allclose(ev, want, rtol=1e-15, atol=0.0)
            assert np.all(m_plus(a) == max(ev.reshape(-1)[-1], 0.0))
            assert np.all(m_minus(a) == min(ev.reshape(-1)[0], 0.0))

    def test_symmetrization_keeps_the_bits_of_the_half_sum(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(300, 3, 3)) * 10.0 ** rng.integers(-300, 300, size=(300, 1, 1))
        assert _symmetrized(a).tobytes() == (0.5 * (a + a.swapaxes(-1, -2))).tobytes()
