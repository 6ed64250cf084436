"""The certificate checkers against their per-candidate, pair-index and
full-grid forms.

The references below are frozen, test-local copies of the code that the
once-per-search terms, the screened C-outer supersolution search, the sliced
neighbour blocks and the cylinder boxes replaced: the supersolution and
subsolution residuals recomputed whole for every candidate, both searches'
eps-outer candidate loops, the modulus check built on (N, 2) pair-index
arrays, the ball and cylinder masks built over the whole grid, and the
comparison check and L^m norm built on those masks and their rolled copies.  The same
float operations run in the same order, so every residual array, every
certificate, every mask and every report must agree bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hjholder import barriers, oscillation, scheme
from hjholder.barriers import (
    BumpFunction,
    SubsolutionBarrier,
    SupersolutionBarrier,
    VerificationGrid,
    _sub_residual_radial,
    _super_residual_radial,
    find_supersolution_constants,
    make_subsolution_barrier,
    two_case_oscillation_check,
)
from hjholder.core import EquationParams, GridFunction, ParabolicCylinder
from hjholder.errors import (BoundaryOrderingFailed, DomainError, EmptyIntersection,
                             SearchFailed)
from hjholder.oscillation import ModulusReport, holder_modulus_check, iterate_scales
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
    _, db, d2b = BumpFunction().eval(w)
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
    """The old search: (C, eps0), or None where it raised SearchFailed, and
    every candidate (C, eps) it tried."""
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
    return None, tried


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
        bar = SubsolutionBarrier(theta, R, eps, C_b)
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
                got = _super_residual_radial(bar, rho, t, eps)
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
            got = _sub_residual_radial(bar, params, rho, t)
            assert _same_bits(got, _ref_sub_residual_radial(bar, params, rho, t, d))


def _ref_screened_walk(params, eta, grid):
    """The C-outer walk with its innermost-radius screen, on the reference
    residual: (C, eps0), or None where no candidate passes, every build as
    (C, rows), and every residual it forms as (C, rows, halvings), where rows
    is 1 on the innermost radius and the radii count on the whole grid.  A C
    is built on the whole grid only when its row passes with fewer halvings
    than the best so far, and is tried there from the row's first pass."""
    d = params.d
    rho, t = np.meshgrid(grid.radii(d), grid.times(), indexing="ij")
    built, formed = [], []

    def first_pass(bar, rows, start, stop):
        built.append((bar.C, rows))
        for h in range(start, stop):
            formed.append((bar.C, rows, h))
            res = _ref_super_residual_radial(bar, rho[:rows], t[:rows], eta * 2.0**-h, d)
            if res.min() >= -barriers.RESIDUAL_TOL:
                return h
        return None

    found, best = None, barriers._EPS0_MAX_HALVINGS
    for j in range(barriers._C_MAX_DOUBLINGS):
        bar = SupersolutionBarrier(2.0**j, eta, params)
        h = first_pass(bar, 1, 0, best)
        if h is not None:
            h = first_pass(bar, len(rho), h, best)
        if h is not None:
            found, best = (bar.C, 2.0**-h), h
            if best == 0:
                break
    return found, built, formed


def _check_supersolution_search(params, eta, grid):
    """Run the search with every P(C) build logged and every residual it forms,
    on the innermost-radius row or on the whole grid, checked bit for bit
    against the per-candidate reference on the same rows.  The result must be
    the old loop's, the builds and residuals those of the screened walk, and
    every candidate the old loop rejected must still fail on the whole grid."""
    d = params.d
    rho, t = np.meshgrid(grid.radii(d), grid.times(), indexing="ij")
    build, subtract = barriers._super_candidate, barriers._super_residual
    built, formed = [], []  # (C, rows) of each build; (C, rows, halvings) of each residual

    def counted(terms, C, params_):
        built.append((C, len(terms[0])))
        return build(terms, C, params_)

    def checked(candidate, eps):
        C, rows = built[-1]
        res = subtract(candidate, eps)
        ref = _ref_super_residual_radial(SupersolutionBarrier(C, eta, params),
                                         rho[:rows], t[:rows], eps, d)
        assert _same_bits(res, ref), (C, rows, eps)
        formed.append((C, rows, round(-math.log2(eps / eta))))
        return res

    with pytest.MonkeyPatch.context() as m:
        m.setattr(barriers, "_super_candidate", counted)
        m.setattr(barriers, "_super_residual", checked)
        try:
            result = find_supersolution_constants(params, eta, grid)
        except SearchFailed:
            result = None
    ref_result, ref_tried = _ref_super_search(params, eta, grid)
    assert result == ref_result
    assert _ref_screened_walk(params, eta, grid) == (ref_result, built, formed)
    terms = barriers._super_terms(params, eta, rho, t)
    candidates = {}
    for C, eps in ref_tried if ref_result is None else ref_tried[:-1]:
        if C not in candidates:
            candidates[C] = build(terms, C, params)
        assert subtract(candidates[C], eps).min() < -barriers.RESIDUAL_TOL, (C, eps)
    return result, built


@pytest.mark.parametrize("eta", [0.1, 1.0])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
def test_supersolution_search_matches_reference(p, d, eta):
    """Same (C, eps0) as the old loop, every residual formed bit-equal, the
    builds of the screened walk, every rejected candidate still failing."""
    params = EquationParams(p=p, A=2.0, d=d)
    _check_supersolution_search(params, eta, VerificationGrid())


@pytest.mark.parametrize("eta", [0.01, 10.0])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("p, A, expected", [
    (2.0 + 1e-9, 50.0, (16.0, 2.0**-32)),
    (2.5, 1e4, (256.0, 2.0**-4)),
    (3.0, 1e8, (4096.0, 2.0**-3)),
    (2.0 + 1e-12, 2.0, None),  # no candidate passes: SearchFailed
])
def test_supersolution_search_on_a_coarse_grid(p, A, expected, d, eta):
    """Large A needs C > 1; p this close to 2 exhausts the budget on both sides."""
    grid = VerificationGrid(nx=9, nt=9, t_min=1e-6)
    result, _ = _check_supersolution_search(EquationParams(p=p, A=A, d=d), eta, grid)
    if d == 1:
        assert result == expected


def test_supersolution_search_stops_at_a_pass_with_eps0_one():
    """A C that passes at eps0 = 1 ends the walk up the C ladder.  Off the
    origin (nx even) with t >= 1/2, C = 128 passes at eps0 = 1."""
    params = EquationParams(p=2.5, A=100.0, d=1)
    grid = VerificationGrid(nx=8, nt=9, t_min=0.5)
    result, built = _check_supersolution_search(params, 1.0, grid)
    assert result == (128.0, 1.0)
    assert [C for C, _ in built][-1] == 128.0


@settings(max_examples=40, deadline=None)
@given(p=st.floats(2.0, 10.0, exclude_min=True), A=st.floats(1e-2, 1e8),
       d=st.sampled_from([1, 2]), eta=st.sampled_from([0.01, 0.1, 1.0, 10.0]),
       nx=st.integers(1, 10), nt=st.integers(1, 6),
       t_min=st.sampled_from([1e-6, 1e-3, 0.5]))
def test_supersolution_search_matches_reference_anywhere(p, A, d, eta, nx, nt, t_min):
    """Odd nx screens on rho = 0 and even nx off the origin; nx = 1 has one
    radius, so its row is the whole grid."""
    assume(d == 1 or nx >= 3)  # in 2-D no node of nx = 1 or 2 lies within |x| <= 2
    grid = VerificationGrid(nx=nx, nt=nt, t_min=t_min)
    _check_supersolution_search(EquationParams(p=p, A=A, d=d), eta, grid)


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
    """The arguments of every call to barriers.<name>, in order."""
    inner = getattr(barriers, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(barriers, name, counted)
    return calls


@pytest.mark.parametrize("eta", [0.1, 1.0])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
def test_supersolution_candidate_count(p, d, eta):
    """On the default grid each C of the ladder is screened on the innermost
    radius, rho = 0, where the residual is C times a function of t and eps.
    That row sets the certificate's eps0, so no C above the certificate's
    passes it with fewer halvings, and only the C up to the certificate's are
    built on the whole grid.  (perfbench/tracing.py still derives
    barriers.candidates_per_certificate from the eps0-outer loop's count.)"""
    grid = VerificationGrid()
    (C, eps0), built = _check_supersolution_search(EquationParams(p=p, A=2.0, d=d), eta, grid)
    assert round(-math.log2(eps0)) > 0
    rows = len(grid.radii(d))
    ladder = [2.0**j for j in range(barriers._C_MAX_DOUBLINGS)]
    assert [c for c, n in built if n == 1] == ladder
    assert [c for c, n in built if n == rows] == [c for c in ladder if c <= C]


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


def _index_grid(d, fn, spacing=1.0, shape=None):
    """Values fn(i_0, ..., i_{d-1}, n) on a grid with unit index steps."""
    shape = shape or _SHAPES[d]
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


def _three_slabs(d):
    # the leading axis spans three slabs of neighbour pairs and part of a fourth;
    # a step near its end puts the largest ratios in the last
    row = (9,) if d == 1 else (9, 5)
    rows = oscillation._SLAB_VALUES // math.prod(row)
    shape = (3 * rows + 5,) + row
    return _index_grid(d, lambda *idx: np.sin(0.7 * sum(idx[:-1])) + 0.3 * idx[-1]
                       + 5.0 * (idx[0] == shape[0] - 3), 0.1, shape)


GRIDS = {"constant": _constant, "ties": _ties, "steep_last_axis": _steep_last_axis,
         "steep_in_time": _steep_in_time, "smooth": _smooth, "one_nan": _one_nan,
         "three_slabs": _three_slabs}
_CHUNK = oscillation._PAIR_CHUNK


@pytest.mark.parametrize("n_random_pairs", [0, 1, 1000, _CHUNK - 1, _CHUNK, _CHUNK + 1])
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
    # not integers, and a bool is not taken for one
    {"n_random_pairs": 2.5}, {"n_random_pairs": True}, {"n_random_pairs": math.nan},
    {"n_random_pairs": "10"}, {"n_random_pairs": 10.0}, {"n_random_pairs": np.True_},
    {"seed": True}, {"seed": np.False_}, {"seed": 1.0}, {"seed": "1"},
])
def test_modulus_rejects_bad_inputs(kwargs):
    args = {"alpha": 0.5, "C": 1.0, "p": 3.0, "n_random_pairs": 10, **kwargs}
    with pytest.raises(DomainError):
        holder_modulus_check(_smooth(1), **args)


def test_modulus_takes_numpy_integers():
    u = _smooth(2)
    want = holder_modulus_check(u, 0.5, 1.0, 3.0, n_random_pairs=300, seed=4)
    got = holder_modulus_check(u, 0.5, 1.0, 3.0, n_random_pairs=np.int64(300), seed=np.uint8(4))
    assert repr(got) == repr(want)


def test_modulus_rejects_a_grid_without_pairs():
    u = GridFunction((0.0,), (1.0,), 0.0, 1.0, np.zeros((1, 1)))
    with pytest.raises(DomainError):
        holder_modulus_check(u, 0.5, 1.0, 3.0, n_random_pairs=10)


# ---------------------------------------------------------------------------
# Reference: ball and cylinder masks over the whole grid
# ---------------------------------------------------------------------------


def _ref_dist2(u, center):
    dist2 = np.zeros(u.n_space)
    for i in range(u.dim):
        coord = u.axis_coords(i) - center[i]
        shape = [1] * u.dim
        shape[i] = -1
        dist2 = dist2 + (coord**2).reshape(shape)
    return dist2


def _ref_node_mask(u, q):
    sp_mask = _ref_dist2(u, np.asarray(q.center_x)) < q.radius**2
    ts = u.times()
    tol = 1e-12 * (1.0 + abs(q.top_t) + abs(q.t_bottom))
    t_mask = (ts >= q.t_bottom - tol) & (ts <= q.top_t + tol)
    return sp_mask[..., None] & t_mask


def _ref_measure_oscillations(u, center, lam, beta, levels, r0=1.0):
    center = np.atleast_1d(np.asarray(center, dtype=float))
    cx, ct = center[:-1], float(center[-1])
    out = []
    for k in range(levels + 1):
        r = r0 * lam**k
        mask = _ref_node_mask(u, ParabolicCylinder(tuple(cx), ct, r, beta))
        n_nodes = int(mask.sum())
        if k == 0 and n_nodes == 0:
            raise EmptyIntersection("outer cylinder misses the grid")
        if n_nodes < 2:
            break
        vals = u.values[mask]
        out.append((r, float(vals.max() - vals.min())))
    return out


def _ref_two_case(u, params, R, r, theta, center=None, range_tol=1e-8):
    d = u.dim
    center = np.zeros(d) if center is None else np.atleast_1d(np.asarray(center, float))
    dist2 = _ref_dist2(u, center)
    ts = u.times()
    cover = (dist2 < (R + r) ** 2)[..., None] & (ts >= -1e-12) & (ts <= 1.0 + 1e-12)
    if not cover.any():
        raise EmptyIntersection("covering cylinder misses the grid")
    covered = u.values[cover]
    if covered.min() < -range_tol or covered.max() > 1.0 + range_tol:
        raise DomainError(
            f"values must lie in [0,1] on the covering cylinder; got "
            f"[{covered.min():g}, {covered.max():g}]"
        )
    i_bottom = int(np.argmin(np.abs(ts)))
    bottom_mask = dist2 < R**2
    if not bottom_mask.any():
        raise EmptyIntersection("B_R misses the spatial grid")
    bottom_min = float(u.values[..., i_bottom][bottom_mask].min())
    upper_t = (ts >= 0.5 - 1e-12) & (ts <= 1.0 + 1e-12)
    case1 = bottom_min <= theta
    if case1:
        region = bottom_mask[..., None] & upper_t
        threshold = 1.0 - theta
    else:
        region = (dist2 < (R / 2.0) ** 2)[..., None] & upper_t
        threshold = theta / 2.0
    if not region.any():
        raise EmptyIntersection("conclusion region misses the grid")
    vals = np.where(region, u.values, np.nan)
    if case1:
        flat = int(np.nanargmax(vals))
        witness = float(np.nanmax(vals))
        passed = witness <= threshold + 1e-12
        margin = threshold - witness
    else:
        flat = int(np.nanargmin(vals))
        witness = float(np.nanmin(vals))
        passed = witness >= threshold - 1e-12
        margin = witness - threshold
    idx = np.unravel_index(flat, u.values.shape)
    return barriers.TwoCaseReport(
        case=1 if case1 else 2,
        passed=bool(passed),
        threshold=float(threshold),
        witness_value=witness,
        witness_x=tuple(float(u.axis_coords(i)[idx[i]]) for i in range(d)),
        witness_t=float(ts[idx[-1]]),
        margin=float(margin),
        bottom_min=bottom_min,
        n_bottom_nodes=int(bottom_mask.sum()),
    )


# ---------------------------------------------------------------------------
# Cylinder boxes
# ---------------------------------------------------------------------------


@st.composite
def _grid_and_cylinder(draw):
    """A small grid and a cylinder whose centre lies inside, outside or on the
    grid's edge, whose radius runs from below one spacing to past the box,
    and whose time slab may lie partly or wholly off the grid."""
    d = draw(st.sampled_from([1, 2]))
    n_space = [draw(st.integers(1, 12)) for _ in range(d)]
    nt = draw(st.integers(1, 8))
    origin = [draw(st.floats(-2.0, 2.0)) for _ in range(d)]
    spacing = [draw(st.floats(0.01, 1.0)) for _ in range(d)]
    t0, dt = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.01, 1.0))
    center = []
    for lo, h, n in zip(origin, spacing, n_space):
        where = draw(st.sampled_from(["node", "edge", "anywhere"]))
        if where == "node":  # exactly on a node, so node offsets tie with radii k*h
            center.append(lo + h * draw(st.integers(0, n - 1)))
        elif where == "edge":
            center.append(lo + h * draw(st.sampled_from([0, n - 1])))
        else:
            center.append(draw(st.floats(lo - 3.0, lo + n * h + 3.0)))
    h_min = min(spacing)
    if draw(st.booleans()):
        radius = h_min * draw(st.integers(1, 20))  # ties with node offsets
    else:
        radius = draw(st.floats(0.1 * h_min, 2.0 * max(n * h for n, h in zip(n_space, spacing))
                                + 1.0))
    top_t = draw(st.floats(t0 - 3.0, t0 + nt * dt + 3.0))
    beta = draw(st.floats(0.25, 3.0))
    values = np.arange(math.prod(n_space) * nt, dtype=float).reshape(*n_space, nt)
    u = GridFunction(tuple(origin), tuple(spacing), t0, dt, values)
    return u, ParabolicCylinder(tuple(center), top_t, radius, beta)


@settings(max_examples=300, deadline=None)
@given(_grid_and_cylinder())
def test_node_mask_matches_the_full_grid_formula(case):
    u, q = case
    ref = _ref_node_mask(u, q)
    assert _same_bits(u.node_mask(q), ref)
    box, mask = u.cylinder_box(q)
    assert _same_bits(u.values[box][mask], u.values[ref])  # same nodes, same order
    ball_box, ball = u.ball_box(q.center_x, q.radius)
    full = np.zeros(u.n_space, dtype=bool)
    full[ball_box] = ball
    assert _same_bits(full, _ref_dist2(u, np.asarray(q.center_x)) < q.radius**2)


def _ref_comparison_check(lower, upper, on):
    mask = _ref_node_mask(lower, on)
    if not mask.any():
        raise EmptyIntersection("cylinder misses the grid")
    d = lower.dim
    inter = mask.copy()
    inter[..., 0] = False
    inter[..., 1:] &= mask[..., :-1]
    for axis in range(d):
        inter &= np.roll(mask, 1, axis=axis) & np.roll(mask, -1, axis=axis)
        sl = [slice(None)] * (d + 1)
        sl[axis] = 0
        inter[tuple(sl)] = False
        sl[axis] = -1
        inter[tuple(sl)] = False
    boundary = mask & ~inter
    excess = lower.values - upper.values
    b_excess = float(excess[boundary].max()) if boundary.any() else -math.inf
    if b_excess > scheme.BOUNDARY_TOL:
        raise BoundaryOrderingFailed(
            f"lower exceeds upper by {b_excess:g} on the parabolic boundary"
        )
    if inter.any():
        flat = np.where(inter, excess, -math.inf)
        k = int(np.argmax(flat))
        i_excess = float(flat.ravel()[k])
        worst = tuple(int(i) for i in np.unravel_index(k, excess.shape))
    else:
        i_excess = -math.inf
        worst = None
    return scheme.ComparisonReport(b_excess, i_excess, worst, int(boundary.sum()),
                                   int(inter.sum()))


def _ref_lm_norm(f, m, q):
    mask = _ref_node_mask(f, q)
    if not mask.any():
        raise EmptyIntersection("cylinder misses the grid")
    cell = float(np.prod(f.spacing_x)) * f.spacing_t
    return float((np.sum(np.abs(f.values[mask]) ** m) * cell) ** (1.0 / m))


def _result(fn, *args):
    """What fn returned, by repr, or the type of what it raised."""
    try:
        return repr(fn(*args))
    except (BoundaryOrderingFailed, EmptyIntersection) as exc:
        return type(exc).__name__


@settings(max_examples=300, deadline=None)
@given(_grid_and_cylinder(), st.integers(0, 2**32 - 1), st.booleans(),
       st.sampled_from([1.0, 2.0, 3.5]))
def test_comparison_and_lm_norm_match_the_full_grid_forms(case, seed, ordered, m):
    """Cylinders inside the grid, cut by its edge or off it; small integer
    values make ties, so the worst interior node must be the first in C order."""
    u, q = case
    rng = np.random.default_rng(seed)
    lower = u.with_values(rng.integers(0, 4, u.values.shape).astype(float))
    upper = u.with_values(rng.integers(0, 4, u.values.shape) + (3.0 if ordered else 0.0))
    assert (_result(scheme.comparison_check, lower, upper, q)
            == _result(_ref_comparison_check, lower, upper, q))
    f = u.with_values(rng.normal(size=u.values.shape))
    assert _result(scheme.lm_norm, f, m, q) == _result(_ref_lm_norm, f, m, q)


def _rough_grid(d, shape, half=1.0, t1=1.0):
    """Values in [0, 1] with structure at many scales, on [-half, half]^d x [0, t1]."""
    axes = [np.linspace(-half, half, n) for n in shape[:-1]] + [np.linspace(0.0, t1, shape[-1])]
    mesh = np.meshgrid(*axes, indexing="ij")
    x, t = mesh[:-1], mesh[-1]
    vals = 0.5 + 0.3 * np.sin(7.0 * sum(x) + 2.0 * t) * np.cos(3.0 * x[-1] - t)
    vals = vals + 0.1 * np.sin(40.0 * x[0]) * (0.2 + t)
    spacing = tuple(2.0 * half / (n - 1) for n in shape[:-1])
    return GridFunction((-half,) * d, spacing, 0.0, t1 / (shape[-1] - 1), vals)


_ROUGH = {1: (257, 33), 2: (65, 65, 17)}


@pytest.mark.parametrize("d", [1, 2])
def test_iterate_scales_report_matches_reference(d, monkeypatch):
    u = _rough_grid(d, _ROUGH[d], half=2.0)
    params = EquationParams(p=3.0, A=2.0, d=d)
    centers = [(0.0,) * d + (1.0,), (0.93,) * d + (0.4,), (-1.0,) * d + (1.0,)]
    verdicts = set()
    for kwargs in (dict(), dict(r0=0.5), dict(centers=centers, r0=0.3)):
        for lam, theta, alpha in ((0.6, 0.006, 0.01), (0.6, 0.25, 0.5)):
            got = iterate_scales(u, params, lam, theta, alpha, **kwargs)
            with monkeypatch.context() as m:
                m.setattr(oscillation, "measure_oscillations", _ref_measure_oscillations)
                ref = iterate_scales(u, params, lam, theta, alpha, **kwargs)
            assert repr(got) == repr(ref)
            verdicts |= {(c.passed, c.truncated) for c in got.centers}
    assert {(True, False), (False, False)} <= verdicts


@pytest.mark.parametrize("d", [1, 2])
def test_measure_oscillations_matches_reference(d):
    u = _rough_grid(d, _ROUGH[d])
    for center in [(0.0,) * d + (1.0,), (0.37,) * d + (0.6,), (1.0,) * d + (0.05,)]:
        for lam, beta, levels, r0 in ((0.5, 2.0, 12, 1.0), (0.9, 1.3, 40, 0.7)):
            got = oscillation.measure_oscillations(u, center, lam, beta, levels, r0)
            ref = _ref_measure_oscillations(u, center, lam, beta, levels, r0)
            assert repr(got) == repr(ref)


@pytest.mark.parametrize("d", [1, 2])
def test_two_case_report_matches_reference(d):
    params = EquationParams(p=3.0, A=2.0, d=d)
    rough = _rough_grid(d, _ROUGH[d], half=1.5)
    raised_bottom = rough.values.copy()
    raised_bottom[..., 0] = 0.95
    grids = [rough,
             rough.with_values(0.5 * rough.values),  # case 1 passes
             rough.with_values(raised_bottom),  # case 2, failing for large theta
             rough.with_values(1.3 * rough.values - 0.15)]  # leaves [0, 1]
    outcomes = set()
    for u in grids:
        for theta in (0.05, 0.3, 0.45):
            for R, r in ((0.5, 0.25), (1.0, 0.5), (0.07, 0.01), (0.004, 0.001)):
                for center in (None, (0.3,) * d, (-0.41,) * d, (1.5,) * d, (5.0,) * d):
                    got, ref = [_outcome(check, u, params, R, r, theta, center=center)
                                for check in (two_case_oscillation_check, _ref_two_case)]
                    assert got == ref
                    outcomes.add(got[:2])
    assert outcomes >= {("case 1", True), ("case 1", False), ("case 2", True),
                        ("case 2", False), ("raised", "EmptyIntersection"),
                        ("raised", "DomainError")}


def _outcome(check, *args, **kwargs):
    """What a check returned, by case, verdict and repr, or what it raised."""
    try:
        rep = check(*args, **kwargs)
    except (DomainError, EmptyIntersection) as exc:
        return "raised", type(exc).__name__, str(exc)
    return f"case {rep.case}", rep.passed, repr(rep)
