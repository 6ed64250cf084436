"""The certificate checkers against their per-candidate and pair-index forms.

The references below are frozen, test-local copies of the code that the
once-per-search terms and the sliced neighbour blocks replaced: the
supersolution and subsolution residuals recomputed whole for every
candidate, both searches' candidate loops, and the modulus check built on
(N, 2) pair-index arrays.  The same float operations run in the same order,
so every residual array, every certificate and every ModulusReport must
agree bit for bit.
"""

import math

import numpy as np
import pytest

from hjholder import barriers
from hjholder.barriers import (
    BumpFunction,
    SubsolutionBarrier,
    SupersolutionBarrier,
    VerificationGrid,
    _sub_residual_radial,
    _super_residual_radial,
    find_supersolution_constants,
    make_subsolution_barrier,
)
from hjholder.core import EquationParams, GridFunction
from hjholder.errors import DomainError
from hjholder.oscillation import ModulusReport, holder_modulus_check
from hjholder.scaling import time_exponent

# ---------------------------------------------------------------------------
# Reference: residuals recomputed for every candidate
# ---------------------------------------------------------------------------


def _ref_super_residual_radial(bar, rho, t, eps, d):
    rho = np.asarray(rho, dtype=float)
    t = np.asarray(t, dtype=float)
    p, pp, A = bar.params.p, bar.params.p_prime, bar.params.A
    s = rho**2 + bar.eta * t
    tau = bar.C * t ** (-1.0 / (p - 1.0))
    g = s ** (pp / 2.0)
    dg = (pp / 2.0) * s ** (pp / 2.0 - 1.0)
    d2g = (pp / 2.0) * (pp / 2.0 - 1.0) * s ** (pp / 2.0 - 2.0)
    dt_term = tau * (-g / ((p - 1.0) * t) + bar.eta * dg)
    gnorm = 2.0 * tau * dg * rho
    eig_rad = tau * (2.0 * dg + 4.0 * d2g * rho**2)
    if d >= 2:
        eig_max = np.maximum(eig_rad, tau * 2.0 * dg)
    else:
        eig_max = eig_rad
    mp = np.maximum(eig_max, 0.0)
    return dt_term + gnorm**p / A - eps * mp


def _ref_sub_residual_radial(bar, params, rho, t, d):
    rho = np.asarray(rho, dtype=float)
    t = np.asarray(t, dtype=float)
    theta, R, eps = bar.theta, bar.R, bar.eps
    w = rho / R + t / 4.0
    _, db, d2b = bar.bump.eval(w)
    dt_term = (theta / 4.0) * db - bar.drift
    gnorm = (theta / R) * np.abs(db)
    eig_rad = theta * d2b / R**2
    if d >= 2:
        with np.errstate(divide="ignore", invalid="ignore"):
            eig_tan = np.where(rho > 0.0, theta * db / (R * rho), eig_rad)
        eig_min = np.minimum(eig_rad, eig_tan)
    else:
        eig_min = eig_rad
    mm = np.minimum(eig_min, 0.0)
    return dt_term + params.A * gnorm ** params.p - eps * mm + eps


def _ref_super_search(params, eta, grid):
    """The old search: (C, eps0) and every candidate (C, eps) it tried."""
    rho, t = np.meshgrid(grid.radii(params.d), grid.times(), indexing="ij")
    tried = []
    eps0 = 1.0
    for _ in range(barriers._EPS0_MAX_HALVINGS):
        c = 1.0
        for _ in range(barriers._C_MAX_DOUBLINGS):
            bar = SupersolutionBarrier(c, eta, params)
            tried.append((c, eta * eps0))
            res = _ref_super_residual_radial(bar, rho, t, eta * eps0, params.d)
            if res.min() >= -barriers.RESIDUAL_TOL:
                return (c, eps0), tried
            c *= 2.0
        eps0 *= 0.5
    raise AssertionError("reference supersolution search failed")


def _ref_sub_search(params, R, grid, theta_margin=0.01, eps_halvings=80):
    """The old search: the barrier and every eps it tried."""
    bump = BumpFunction()
    C_b = 2.0 * bump.sup_db + bump.sup_d2b / R
    theta_cap = (R**params.p / (4.0 * params.A * bump.sup_db ** (params.p - 1.0))) ** (
        1.0 / (params.p - 1.0)
    )
    theta = min(0.25 - theta_margin, theta_cap)
    rho, t = np.meshgrid(grid.radii(params.d), grid.times(), indexing="ij")
    tried = []
    eps = min(theta / 2.0, 0.5 / C_b)
    for _ in range(eps_halvings):
        bar = SubsolutionBarrier(theta, R, eps, C_b, bump)
        tried.append(eps)
        res = _ref_sub_residual_radial(bar, params, rho, t, params.d)
        if res.max() <= barriers.RESIDUAL_TOL:
            return bar, tried
        eps *= 0.5
    raise AssertionError("reference subsolution search failed")


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Residuals and searches
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("p", [2.2, 2.5, 3.0, 4.0])
def test_super_residual_matches_reference(p, d):
    grid = VerificationGrid()
    rho, t = np.meshgrid(grid.radii(d), grid.times(), indexing="ij")
    params = EquationParams(p=p, A=2.0, d=d)
    for eta in (0.1, 1.0):
        for C in (1.0, 2.0**10, 2.0**20, 2.0**40):
            bar = SupersolutionBarrier(C, eta, params)
            for eps in (0.0, 0.1 * eta, 2.0**-30):
                got = _super_residual_radial(bar, rho, t, eps, d)
                assert _same_bits(got, _ref_super_residual_radial(bar, rho, t, eps, d))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
def test_sub_residual_matches_reference(p, d):
    grid = VerificationGrid()
    rho, t = np.meshgrid(grid.radii(d), grid.times(), indexing="ij")
    params = EquationParams(p=p, A=2.0, d=d)
    for R in (0.25, 1.0):
        for eps in (0.0, 1e-3, 2.0**-40):
            bar = SubsolutionBarrier(0.1, R, eps, 2.0 * 7.5 + 92.4 / R)
            got = _sub_residual_radial(bar, params, rho, t, d)
            assert _same_bits(got, _ref_sub_residual_radial(bar, params, rho, t, d))


@pytest.mark.parametrize("eta", [0.1, 1.0])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
def test_supersolution_search_matches_reference(p, d, eta, monkeypatch):
    """Same candidates in the same order, each residual bit-equal, same (C, eps0)."""
    grid = VerificationGrid()
    params = EquationParams(p=p, A=2.0, d=d)
    rho, t = np.meshgrid(grid.radii(d), grid.times(), indexing="ij")
    inner = barriers._super_residual
    tried = []

    def checked(terms, C, eps, params_, d_):
        res = inner(terms, C, eps, params_, d_)
        ref = _ref_super_residual_radial(SupersolutionBarrier(C, eta, params), rho, t, eps, d)
        assert _same_bits(res, ref), (C, eps)
        tried.append((C, eps))
        return res

    monkeypatch.setattr(barriers, "_super_residual", checked)
    result = find_supersolution_constants(params, eta, grid)
    ref_result, ref_tried = _ref_super_search(params, eta, grid)
    assert result == ref_result
    assert tried == ref_tried


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
def test_subsolution_search_matches_reference(p, d, monkeypatch):
    grid = VerificationGrid()
    params = EquationParams(p=p, A=2.0, d=d)
    rho, t = np.meshgrid(grid.radii(d), grid.times(), indexing="ij")
    ref_bar, ref_tried = _ref_sub_search(params, 0.25, grid)
    inner = barriers._sub_residual
    tried = []

    def checked(terms, drift, eps):
        res = inner(terms, drift, eps)
        bar = SubsolutionBarrier(ref_bar.theta, ref_bar.R, eps, ref_bar.C_b)
        assert drift == bar.drift
        assert _same_bits(res, _ref_sub_residual_radial(bar, params, rho, t, d)), eps
        tried.append(eps)
        return res

    monkeypatch.setattr(barriers, "_sub_residual", checked)
    bar = make_subsolution_barrier(params, 0.25, grid)
    assert bar == ref_bar
    assert tried == ref_tried


# ---------------------------------------------------------------------------
# Benchmark contract: candidates per certificate
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, name):
    inner = getattr(barriers, name)
    calls = []

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(barriers, name, counted)
    return calls


@pytest.mark.parametrize("eta", [0.1, 1.0])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
def test_supersolution_candidate_count(p, d, eta, monkeypatch):
    """Every candidate is checked once, in the order perfbench/tracing.py derives
    barriers.candidates_per_certificate from."""
    calls = _count_calls(monkeypatch, "_super_residual")
    C, eps0 = find_supersolution_constants(EquationParams(p=p, A=2.0, d=d), eta)
    expected = (round(-math.log2(eps0)) * barriers._C_MAX_DOUBLINGS
                + round(math.log2(C)) + 1)
    assert len(calls) == expected


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
def test_subsolution_candidate_count(p, d, monkeypatch):
    calls = _count_calls(monkeypatch, "_sub_residual")
    bar = make_subsolution_barrier(EquationParams(p=p, A=2.0, d=d), 0.25)
    start = min(bar.theta / 2.0, 0.5 / bar.C_b)
    assert len(calls) == round(math.log2(start / bar.eps)) + 1


# ---------------------------------------------------------------------------
# Reference: the pair-index modulus check
# ---------------------------------------------------------------------------


def _ref_holder_modulus_check(u, alpha, C, p, n_random_pairs=100_000, seed=0):
    texp = time_exponent(p, alpha)
    pts = u.space_points().reshape(-1, u.dim)
    ts = u.times()
    n_sp = pts.shape[0]
    nt = len(ts)
    vals = u.values.reshape(n_sp, nt)

    rng = np.random.default_rng(seed)
    ia = rng.integers(0, n_sp, n_random_pairs)
    na = rng.integers(0, nt, n_random_pairs)
    ib = rng.integers(0, n_sp, n_random_pairs)
    nb = rng.integers(0, nt, n_random_pairs)

    nbr_a, nbr_b = [], []
    idx = np.arange(n_sp * nt)
    sp_idx, t_idx = idx // nt, idx % nt
    shape = u.n_space
    multi = np.unravel_index(sp_idx, shape)
    for axis in range(u.dim):
        ok = multi[axis] < shape[axis] - 1
        shifted = list(multi)
        shifted[axis] = multi[axis] + 1
        nbr_sp = np.ravel_multi_index(
            tuple(np.clip(m, 0, s - 1) for m, s in zip(shifted, shape)), shape)
        nbr_a.append(np.stack([sp_idx[ok], t_idx[ok]], axis=1))
        nbr_b.append(np.stack([nbr_sp[ok], t_idx[ok]], axis=1))
    ok = t_idx < nt - 1
    nbr_a.append(np.stack([sp_idx[ok], t_idx[ok]], axis=1))
    nbr_b.append(np.stack([sp_idx[ok], t_idx[ok] + 1], axis=1))

    pair_a = np.concatenate([np.stack([ia, na], axis=1)] + nbr_a, axis=0)
    pair_b = np.concatenate([np.stack([ib, nb], axis=1)] + nbr_b, axis=0)
    same = (pair_a[:, 0] == pair_b[:, 0]) & (pair_a[:, 1] == pair_b[:, 1])
    pair_a, pair_b = pair_a[~same], pair_b[~same]

    du = np.abs(vals[pair_a[:, 0], pair_a[:, 1]] - vals[pair_b[:, 0], pair_b[:, 1]])
    dxs = np.linalg.norm(pts[pair_a[:, 0]] - pts[pair_b[:, 0]], axis=-1)
    dts = np.abs(ts[pair_a[:, 1]] - ts[pair_b[:, 1]])
    bound = C * (dxs**alpha + dts**texp)
    ratio = du / bound
    k = int(np.argmax(ratio))
    return ModulusReport(
        max_ratio=float(ratio[k]),
        argmax_a=(tuple(float(v) for v in pts[pair_a[k, 0]]), float(ts[pair_a[k, 1]])),
        argmax_b=(tuple(float(v) for v in pts[pair_b[k, 0]]), float(ts[pair_b[k, 1]])),
        alpha=alpha,
        time_exp=texp,
        C=C,
        n_pairs=int(len(ratio)),
    )


# ---------------------------------------------------------------------------
# Modulus grids
# ---------------------------------------------------------------------------

_SHAPES = {1: (9, 6), 2: (7, 5, 4)}


def _index_grid(d, fn, spacing=1.0):
    """Values fn(i_0, ..., i_{d-1}, n) on a grid with unit index steps."""
    shape = _SHAPES[d]
    idx = np.meshgrid(*[np.arange(n, dtype=float) for n in shape], indexing="ij")
    vals = np.asarray(fn(*idx), dtype=float) + np.zeros(shape)
    return GridFunction((0.0,) * d, (spacing,) * d, 0.0, spacing, vals)


def _constant(d):
    return _index_grid(d, lambda *idx: 1.0, spacing=0.25)


def _ties(d):
    # u = i_0 + n with unit steps and alpha = 1 (so the time exponent is 1):
    # every axis-0 and time neighbour has ratio 1/C, as do many random pairs
    return _index_grid(d, lambda *idx: idx[0] + idx[-1])


def _steep_last_axis(d):
    # the largest ratio sits in the block of the last space axis
    return _index_grid(d, lambda *idx: idx[0] + 3.0 * idx[d - 1] + idx[-1])


def _steep_in_time(d):
    return _index_grid(d, lambda *idx: idx[0] + 3.0 * idx[-1])


def _smooth(d):
    return _index_grid(d, lambda *idx: np.sin(0.7 * sum(idx[:-1])) + 0.3 * idx[-1], 0.1)


def _one_nan(d):
    u = _smooth(d)
    u.values[(2,) * d + (1,)] = np.nan  # GridFunction only rejects NaN on construction
    return u


GRIDS = {"constant": _constant, "ties": _ties, "steep_last_axis": _steep_last_axis,
         "steep_in_time": _steep_in_time, "smooth": _smooth, "one_nan": _one_nan}


@pytest.mark.parametrize("n_random_pairs", [0, 1, 1000])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_modulus_report_matches_reference(grid, d, n_random_pairs):
    u = GRIDS[grid](d)
    for alpha, C, p in ((1.0, 2.0, 3.0), (0.5, 1.0, 2.5), (0.01, 2.0, 3.0)):
        for seed in (0, 7):
            got = holder_modulus_check(u, alpha, C, p, n_random_pairs, seed)
            ref = _ref_holder_modulus_check(u, alpha, C, p, n_random_pairs, seed)
            # repr compares floats bit for bit and NaN equal to NaN
            assert repr(got) == repr(ref)


def test_modulus_ties_pick_the_first_block():
    """Without random pairs the first axis-0 pair wins over tied time pairs."""
    u = _ties(2)
    rep = holder_modulus_check(u, 1.0, 2.0, 3.0, n_random_pairs=0)
    assert rep.max_ratio == 0.5
    assert rep.argmax_a == ((0.0, 0.0), 0.0)
    assert rep.argmax_b == ((1.0, 0.0), 0.0)


def test_modulus_nan_counts_as_largest():
    u = _one_nan(2)
    rep = holder_modulus_check(u, 0.5, 1.0, 3.0, n_random_pairs=0)
    assert math.isnan(rep.max_ratio)
    assert rep.argmax_a == ((0.1, 0.2), 0.1)  # the axis-0 pair ending at the NaN node
    assert rep.argmax_b == ((0.2, 0.2), 0.1)


def test_modulus_pair_count():
    u = _smooth(2)
    n0, n1, nt = _SHAPES[2]
    neighbours = (n0 - 1) * n1 * nt + n0 * (n1 - 1) * nt + n0 * n1 * (nt - 1)
    assert holder_modulus_check(u, 0.5, 1.0, 3.0, n_random_pairs=0).n_pairs == neighbours


@pytest.mark.parametrize("kwargs", [
    {"C": -1.0}, {"C": 0.0}, {"C": math.nan}, {"C": math.inf},
    {"alpha": 0.0}, {"alpha": -0.5}, {"alpha": 1.5}, {"alpha": math.nan},
    {"n_random_pairs": -1}, {"p": 1.0}, {"p": math.nan},
])
def test_modulus_rejects_bad_inputs(kwargs):
    args = {"alpha": 0.5, "C": 1.0, "p": 3.0, "n_random_pairs": 10, **kwargs}
    with pytest.raises(DomainError):
        holder_modulus_check(_smooth(1), **args)


def test_modulus_rejects_a_grid_without_pairs():
    u = GridFunction((0.0,), (1.0,), 0.0, 1.0, np.zeros((1, 1)))
    with pytest.raises(DomainError):
        holder_modulus_check(u, 0.5, 1.0, 3.0, n_random_pairs=10)
