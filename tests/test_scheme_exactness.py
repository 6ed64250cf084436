"""The flat-window stencil against the np.roll / np.gradient formulas.

The reference below is a frozen, test-local copy of the roll/gradient
substep loop and residual check that the flat-window stencil replaced; its
m+/- radius is the sqrt form of hjholder.extremal._mid_rad (a tolerance test
compares with the np.hypot radius it had before), and its step is the
solver's dt = cfl/rate, changed in lock step with it.  The stencil performs the
same float operations in the same order, so every solution value and every
residual report must agree bit for bit, and every callable must be sampled
at the same times in the same order.

The same holds for problems solved together as rows of one solve_hj call:
each row must match its one-at-a-time solve bit for bit and sample its
callables as that solve does.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from hjholder import instances
from hjholder.core import EquationParams, GridFunction
from hjholder.errors import Blowup, CflViolation, DomainError
from hjholder.scheme import (
    BLOWUP_FACTOR,
    ExtremalDiffusion,
    HamiltonianSpec,
    ResidualReport,
    SolveConfig,
    TraceDiffusion,
    _divisor,
    discrete_residual,
    solve_hj,
)

# ---------------------------------------------------------------------------
# Reference: the roll/gradient implementation
# ---------------------------------------------------------------------------


def _ref_boundary_mask(shape):
    mask = np.zeros(shape, dtype=bool)
    for axis in range(len(shape)):
        sl = [slice(None)] * len(shape)
        sl[axis] = 0
        mask[tuple(sl)] = True
        sl[axis] = -1
        mask[tuple(sl)] = True
    return mask


def _ref_second_diffs(u, dx):
    d = u.ndim
    out = {}
    for i in range(d):
        out[(i, i)] = (np.roll(u, -1, axis=i) - 2.0 * u + np.roll(u, 1, axis=i)) / dx[i] ** 2
    for i in range(d):
        for j in range(i + 1, d):
            upp = np.roll(np.roll(u, -1, axis=i), -1, axis=j)
            upm = np.roll(np.roll(u, -1, axis=i), 1, axis=j)
            ump = np.roll(np.roll(u, 1, axis=i), -1, axis=j)
            umm = np.roll(np.roll(u, 1, axis=i), 1, axis=j)
            out[(i, j)] = (upp - upm - ump + umm) / (4.0 * dx[i] * dx[j])
    return out


def _sqrt_radius(x, y):
    return np.sqrt(x * x + y * y)


def _ref_m_field(hess, d, sign, radius):
    if d == 1:
        h = hess[(0, 0)]
        return np.maximum(h, 0.0) if sign > 0 else np.minimum(h, 0.0)
    mid = 0.5 * (hess[(0, 0)] + hess[(1, 1)])
    rad = radius(0.5 * (hess[(0, 0)] - hess[(1, 1)]), hess[(0, 1)])
    return np.maximum(mid + rad, 0.0) if sign > 0 else np.minimum(mid - rad, 0.0)


def _ref_field(field, coords, t):
    """A coefficient or forcing on the grid at time t; None is 0."""
    if callable(field):
        return np.asarray(field(*coords, t), dtype=float)
    return np.full(coords[0].shape, 0.0 if field is None else float(field))


def _ref_diffusion_field(spec, u, coords, t, dx, d, radius=_sqrt_radius):
    diff = spec.diffusion
    if diff is None:
        return 0.0, 0.0
    hess = _ref_second_diffs(u, dx)
    if isinstance(diff, ExtremalDiffusion):
        return diff.coeff * _ref_m_field(hess, d, diff.sign, radius), abs(diff.coeff)
    b = diff.matrix_at(coords, t, d)
    total = np.zeros(u.shape)
    for i in range(d):
        for j in range(d):
            total = total + b[i, j] * hess[(min(i, j), max(i, j))]
    return total, float(np.max(np.abs(b))) * d


def _ref_solve(spec, init, bc, cfg, radius=_sqrt_radius):
    d = cfg.dim
    dx = cfg.spacings()
    coords = cfg.coords()
    p = spec.params.p
    u = np.array(np.broadcast_to(init(*coords), tuple(cfg.nx)), dtype=float)
    bmask = _ref_boundary_mask(tuple(cfg.nx))
    bcoords = [c[bmask] for c in coords]
    data_bound = float(np.max(np.abs(u)))
    out = np.empty(tuple(cfg.nx) + (cfg.nt,))
    out[..., 0] = u
    times_out = cfg.out_times()
    t = cfg.t0
    for n in range(1, cfg.nt):
        t_target = times_out[n]
        while t < t_target - 1e-14 * (1.0 + abs(t_target)):
            a = _ref_field(spec.coefficient, coords, t)
            q_center = [np.gradient(u, dx[i], axis=i) for i in range(d)]
            qf = [(np.roll(u, -1, axis=i) - u) / dx[i] for i in range(d)]
            qb = [(u - np.roll(u, 1, axis=i)) / dx[i] for i in range(d)]
            qmax = 0.0
            for i in range(d):
                sl = [slice(None)] * d
                sl[i] = slice(None, -1)
                qmax = max(qmax, float(np.max(np.abs(qf[i][tuple(sl)]))))
                sl[i] = slice(1, None)
                qmax = max(qmax, float(np.max(np.abs(qb[i][tuple(sl)]))))
            alpha = p * float(np.max(a)) * qmax ** (p - 1.0) if qmax > 0 else 0.0
            alpha = max(alpha, cfg.lf_alpha_floor)
            gnorm2 = sum(qc**2 for qc in q_center)
            hamil = a * gnorm2 ** (p / 2.0)
            for i in range(d):
                hamil = hamil - 0.5 * alpha * (qf[i] - qb[i])
            diff_term, lam = _ref_diffusion_field(spec, u, coords, t, dx, d, radius)
            rhs = _ref_field(spec.forcing, coords, t) - spec.shift - hamil + diff_term
            rate = alpha * sum(1.0 / h for h in dx) + 2.0 * lam * sum(1.0 / h**2 for h in dx)
            dt_stab = cfg.cfl / rate if rate > 0 else math.inf
            dt = min(dt_stab, t_target - t)
            u = u + dt * rhs
            t_new = min(t + dt, t_target)
            bvals = np.asarray(bc(*bcoords, t_new), dtype=float)
            u[bmask] = np.broadcast_to(bvals, u[bmask].shape)
            data_bound = max(data_bound, float(np.max(np.abs(bvals))))
            assert float(np.max(np.abs(u))) <= BLOWUP_FACTOR * (1.0 + data_bound)
            t = t_new
        t = t_target
        out[..., n] = u
    return out


def _ref_residual(u, spec, side):
    d = u.dim
    axes = [u.axis_coords(i) for i in range(d)]
    coords = list(np.meshgrid(*axes, indexing="ij"))
    dx = list(u.spacing_x)
    ts = u.times()
    interior = ~_ref_boundary_mask(u.n_space)
    worst = -math.inf if side == "sub" else math.inf
    worst_idx = None
    for n in range(1, u.n_time):
        un = u.values[..., n]
        ut = (un - u.values[..., n - 1]) / u.spacing_t
        a = _ref_field(spec.coefficient, coords, ts[n])
        grads = [np.gradient(un, dx[i], axis=i) for i in range(d)]
        gnorm2 = sum(g**2 for g in grads)
        diff_term, _ = _ref_diffusion_field(spec, un, coords, ts[n], dx, d)
        res = ut + a * gnorm2 ** (spec.params.p / 2.0) - diff_term
        res = res - _ref_field(spec.forcing, coords, ts[n]) + spec.shift
        res_int = np.where(interior, res, -math.inf if side == "sub" else math.inf)
        k = int(np.argmax(res_int) if side == "sub" else np.argmin(res_int))
        val = float(res_int.ravel()[k])
        if (val > worst) if side == "sub" else (val < worst):
            worst = val
            worst_idx = np.unravel_index(k, u.n_space) + (n,)
    return ResidualReport(
        side=side,
        worst_value=worst,
        violation=max(0.0, worst) if side == "sub" else max(0.0, -worst),
        node_index=tuple(int(i) for i in worst_idx),
        coords=tuple(float(axes[i][worst_idx[i]]) for i in range(d)),
        time=float(ts[worst_idx[-1]]),
    )


# ---------------------------------------------------------------------------
# Problem matrix
# ---------------------------------------------------------------------------


class _Log:
    """Wraps the callables of one problem and records every sample time."""

    def __init__(self):
        self.calls = []

    def wrap(self, name, fn):
        def logged(*args):
            self.calls.append((name, float(args[-1]), np.shape(args[0])))
            return fn(*args)

        return logged


def _cfg(d, nx=(25, 21), **kw):
    if d == 1:
        return SolveConfig(xmin=(-1.0,), xmax=(1.2,), nx=(65,), t0=0.0, t1=0.3, nt=7, **kw)
    return SolveConfig(xmin=(-1.0, -0.8), xmax=(1.0, 1.1), nx=nx, t0=0.0, t1=0.2,
                       nt=5, **kw)


def _init(*c):
    v = 0.5 + 0.3 * np.sin(2.0 * c[0] + 0.3)
    if len(c) == 2:
        v = v + 0.2 * np.cos(1.5 * c[1]) * c[0]
    return v


def _trace_entries(d):
    if d == 1:
        return lambda x, t: np.array([[0.02 + 0.01 * np.sin(x) ** 2 * (1.0 + t)]])

    def b(x, y, t):
        b11 = 0.03 + 0.01 * np.sin(x) ** 2
        b22 = 0.02 + 0.01 * np.cos(y) ** 2
        b12 = 0.008 * np.sin(x + y + t)
        # unequal off-diagonals: the order of the trace sum shows in the bits
        return np.array([[b11, b12], [0.6 * b12, b22]])

    return b


def _spec(d, diffusion, coefficient, forcing, log):
    if diffusion == "none":
        diff = None
    elif diffusion == "m+":
        diff = ExtremalDiffusion(sign=1, coeff=0.04)
    elif diffusion == "m-":
        diff = ExtremalDiffusion(sign=-1, coeff=0.04)
    elif diffusion == "trace":
        diff = TraceDiffusion(np.array([[0.03]]) if d == 1
                              else np.array([[0.03, 0.01], [0.01, 0.02]]))
    else:
        diff = TraceDiffusion(log.wrap("B", _trace_entries(d)))
    coeff = 1.0 if coefficient == "constant" else log.wrap(
        "a", instances.rough_coefficient(7.0, 5.0))
    if forcing == "none":
        force = None
    elif forcing == "constant":
        force = 0.7
    else:
        force = log.wrap("f", instances.inverse_power_forcing(
            0.3, 0.4, (0.3, -0.2)[:d], cap_radius=0.05))
    return HamiltonianSpec(params=EquationParams(p=3.0, A=2.0, d=d), coefficient=coeff,
                           diffusion=diff, forcing=force, shift=0.1)


def _bc(log, jump=0.0):
    """Boundary data: the initial data drifting in time, plus `jump` times a
    sign pattern that sets the boundary apart from the interior."""
    def bc(*args):
        return _init(*args[:-1]) + 0.1 * args[-1] + jump * np.sign(args[0] + 0.05)

    return log.wrap("bc", bc)


def _check(d, diffusion, coefficient, forcing, jump=0.0, cfg=None, **cfg_kw):
    cfg = cfg or _cfg(d, **cfg_kw)
    new_log, ref_log = _Log(), _Log()
    got = solve_hj(_spec(d, diffusion, coefficient, forcing, new_log), _init,
                   _bc(new_log, jump), cfg)
    want = _ref_solve(_spec(d, diffusion, coefficient, forcing, ref_log), _init,
                      _bc(ref_log, jump), cfg)
    assert np.array_equal(got.values, want)
    assert got.values.tobytes() == want.tobytes()  # also the sign of every zero
    # the solver samples at t0 for its checks before the loop starts
    assert new_log.calls[len(new_log.calls) - len(ref_log.calls):] == ref_log.calls
    assert sum(name == "bc" for name, _, _ in ref_log.calls) >= 2 * (cfg.nt - 1)

    spec = _spec(d, diffusion, coefficient, forcing, _Log())
    for side in ("sub", "super"):
        rep = discrete_residual(got, spec, side)
        ref = _ref_residual(got, spec, side)
        assert rep == ref
        assert np.float64(rep.worst_value).tobytes() == np.float64(ref.worst_value).tobytes()


@pytest.mark.parametrize("forcing", ["none", "constant", "inverse_power"])
@pytest.mark.parametrize("coefficient", ["constant", "rough"])
@pytest.mark.parametrize("diffusion", ["none", "m+", "m-", "trace", "trace_callable"])
@pytest.mark.parametrize("d", [1, 2])
def test_stencil_matches_roll_reference(d, diffusion, coefficient, forcing):
    _check(d, diffusion, coefficient, forcing)


@pytest.mark.parametrize("diffusion", ["m+", "m-", "trace_callable"])
@pytest.mark.parametrize("nx", [(13, 30), (30, 9), (3, 17), (17, 3)])
def test_stencil_matches_reference_on_grid_shapes(nx, diffusion):
    # the flat windows run across grid lines; their seams sit elsewhere in
    # each shape, and a 3-node axis leaves one interior line
    cfg = _cfg(2, nx=nx)
    if nx == (3, 17):  # 7 substeps to t1: too few for two per interval at nt = 5
        cfg = replace(cfg, nt=3)
    _check(2, diffusion, "rough", "inverse_power", cfg=cfg)


@pytest.mark.parametrize("diffusion", ["m+", "trace"])
@pytest.mark.parametrize("nx", [(13, 11), (9, 14)])
def test_boundary_columns_never_leak(nx, diffusion):
    # boundary data set apart from the interior: a window position at a
    # boundary column, or a seam, read anywhere would change the bits
    _check(2, diffusion, "rough", "constant", jump=0.3, nx=nx)


@pytest.mark.parametrize("shape", [(9,), (7, 5), (3, 8), (8, 3), (5, 4, 6), (6, 3, 3)])
def test_residual_never_reads_boundary_columns(shape):
    # random interiors with boundary values a thousand times larger: a seam
    # or a boundary column inside the reduction would be the worst node
    d = len(shape)
    rng = np.random.default_rng(d)
    vals = rng.normal(size=shape + (4,))
    vals[_ref_boundary_mask(shape)] *= 1e3
    u = GridFunction((0.0,) * d, tuple(0.1 + 0.05 * i for i in range(d)), 0.0, 0.05, vals)
    diffusion = (ExtremalDiffusion(sign=1, coeff=0.04) if d == 2
                 else TraceDiffusion(0.01 * np.eye(d) + 0.005))
    spec = HamiltonianSpec(params=EquationParams(p=3.0, A=2.0, d=d), diffusion=diffusion,
                           forcing=0.3, shift=0.1)
    for side in ("sub", "super"):
        assert discrete_residual(u, spec, side) == _ref_residual(u, spec, side)


# ---------------------------------------------------------------------------
# Power-of-two divisors: applied as multiplies by their exact reciprocals
# ---------------------------------------------------------------------------


def _is_power_of_two(h):
    return math.frexp(h)[0] == 0.5


@pytest.mark.parametrize("c, op", [
    (2.0**-7, np.multiply), (2.0**-10, np.multiply), (2.0**1023, np.multiply),
    (0.05, np.divide), (3 / 64, np.divide),
    (2.0**-1074, np.divide),  # its reciprocal overflows a float
])
def test_divisor_gives_the_bits_of_a_divide(c, op):
    tiny = np.finfo(float).smallest_subnormal
    big = np.finfo(float).max
    x = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, tiny, -tiny, 3 * tiny,
                  2.0**-1022, 2.0**-1022 - tiny, -1e-310, 1.0, -1.5, 1e-300, 0.1,
                  big, -big, big / 3, 1e308, 2.0**1023])
    x = np.concatenate([x, np.random.default_rng(0).normal(scale=1e3, size=64)])
    got_op, operand = _divisor(c)
    assert got_op is op
    with np.errstate(all="ignore"):
        got = got_op(x, operand)
        want = x / c
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("forcing", ["none", "inverse_power"])
@pytest.mark.parametrize("diffusion", ["none", "m+", "trace_callable"])
def test_1d_power_of_two_spacings_match_reference(diffusion, forcing):
    cfg = SolveConfig(xmin=(-2.0,), xmax=(2.0,), nx=(65,), t0=0.0, t1=0.25, nt=5)
    assert all(map(_is_power_of_two, cfg.spacings() + [(cfg.t1 - cfg.t0) / (cfg.nt - 1)]))
    _check(1, diffusion, "rough", forcing, cfg=cfg)


@pytest.mark.parametrize("diffusion", ["m+", "m-", "trace", "trace_callable"])
def test_2d_power_of_two_spacings_match_reference(diffusion):
    # dx = 1/8 and 1/16, dt = 1/16; both trace matrices carry an off-diagonal term
    cfg = SolveConfig(xmin=(-1.0, -1.0), xmax=(1.0, 1.0), nx=(17, 33), t0=0.0, t1=0.25, nt=5)
    assert all(map(_is_power_of_two, cfg.spacings() + [(cfg.t1 - cfg.t0) / (cfg.nt - 1)]))
    _check(2, diffusion, "rough", "inverse_power", cfg=cfg)


@pytest.mark.parametrize("shape", [(9,), (7, 5), (5, 4, 6)])
def test_residual_with_power_of_two_spacings(shape):
    # every space and time divisor is a power of two; d = 3 takes the trace term
    d = len(shape)
    rng = np.random.default_rng(10 + d)
    vals = rng.normal(size=shape + (4,))
    u = GridFunction((0.0,) * d, tuple(2.0**-(3 + i) for i in range(d)), 0.0, 2.0**-5, vals)
    diffusion = (ExtremalDiffusion(sign=-1, coeff=0.04) if d == 2
                 else TraceDiffusion(0.01 * np.eye(d) + 0.005))
    spec = HamiltonianSpec(params=EquationParams(p=3.0, A=2.0, d=d), diffusion=diffusion,
                           forcing=0.3, shift=0.1)
    for side in ("sub", "super"):
        rep = discrete_residual(u, spec, side)
        ref = _ref_residual(u, spec, side)
        assert rep == ref
        assert np.float64(rep.worst_value).tobytes() == np.float64(ref.worst_value).tobytes()


@pytest.mark.parametrize("forcing", ["none", "constant", "inverse_power"])
@pytest.mark.parametrize("coefficient", ["constant", "rough"])
@pytest.mark.parametrize("diffusion", ["m+", "m-"])
def test_sqrt_radius_close_to_hypot_reference(diffusion, coefficient, forcing):
    # the radius was np.hypot(x, y); of these twelve solves only m- with a
    # constant coefficient and forcing moves, in 27 of 2625 values, by at
    # most 1.3e-16 relative
    cfg = _cfg(2)
    got = solve_hj(_spec(2, diffusion, coefficient, forcing, _Log()), _init, _bc(_Log()), cfg)
    old = _ref_solve(_spec(2, diffusion, coefficient, forcing, _Log()), _init, _bc(_Log()),
                     cfg, radius=np.hypot)
    assert np.max(np.abs(got.values - old) / np.abs(old)) <= 1e-14


# ---------------------------------------------------------------------------
# Declared time structure against opaque callables
# ---------------------------------------------------------------------------


def _factory_spec(d, coefficient, forcing, opaque):
    """The factory callables, or each hidden behind a plain lambda."""
    coeff = 1.0 if coefficient == "constant" else instances.rough_coefficient(7.0, 5.0)
    force = {"none": None, "constant": 0.7}.get(forcing)
    if forcing == "inverse_power":
        force = instances.inverse_power_forcing(0.3, 0.4, (0.3, -0.2)[:d], cap_radius=0.05)
    if opaque:
        coeff, force = ((lambda *a, fn=fn: fn(*a)) if callable(fn) else fn
                        for fn in (coeff, force))
    return HamiltonianSpec(params=EquationParams(p=3.0, A=2.0, d=d), coefficient=coeff,
                           diffusion=ExtremalDiffusion(sign=1, coeff=0.04), forcing=force,
                           shift=0.1)


@pytest.mark.parametrize("forcing", ["none", "constant", "inverse_power"])
@pytest.mark.parametrize("coefficient", ["constant", "rough"])
@pytest.mark.parametrize("d", [1, 2])
def test_declared_structure_matches_opaque_callables(d, coefficient, forcing):
    cfg = _cfg(d)
    fast_log, opaque_log, ref_log = _Log(), _Log(), _Log()
    fast_spec = _factory_spec(d, coefficient, forcing, opaque=False)
    opaque_spec = _factory_spec(d, coefficient, forcing, opaque=True)
    fast = solve_hj(fast_spec, _init, _bc(fast_log), cfg)
    opaque = solve_hj(opaque_spec, _init, _bc(opaque_log), cfg)
    assert np.array_equal(fast.values, opaque.values)
    assert fast.values.tobytes() == opaque.values.tobytes()
    # bc is still sampled once per substep, at the same times: the reference
    # loop calls it exactly once per substep
    want = _ref_solve(fast_spec, _init, _bc(ref_log), cfg)
    assert fast.values.tobytes() == want.tobytes()
    assert fast_log.calls == opaque_log.calls == ref_log.calls

    for side in ("sub", "super"):
        rep = discrete_residual(fast, fast_spec, side)
        assert rep == discrete_residual(fast, opaque_spec, side)
        assert rep == _ref_residual(fast, fast_spec, side)


def test_separable_space_factor_evaluated_once_per_solve():
    counts = {"a.space": 0, "a.time": 0, "f.space": 0}

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)

        return call

    rough = instances.rough_coefficient(7.0, 5.0)
    forcing = instances.inverse_power_forcing(0.3, 0.4, 0.3, cap_radius=0.05)
    coeff = instances.SeparableField(counted("a.space", rough.space),
                                     counted("a.time", rough.time), rough.base)
    force = instances.SeparableField(counted("f.space", forcing.space))
    spec = HamiltonianSpec(params=EquationParams(p=3.0, A=2.0, d=1), coefficient=coeff,
                           forcing=force, shift=0.1)
    log = _Log()
    cfg = _cfg(1)
    u = solve_hj(spec, _init, _bc(log), cfg)
    substeps = len(log.calls)
    # one time factor per substep, plus the coefficient range check at t0
    assert counts == {"a.space": 1, "a.time": substeps + 1, "f.space": 1}

    counts.update(dict.fromkeys(counts, 0))
    discrete_residual(u, spec, "sub")
    assert counts == {"a.space": 1, "a.time": cfg.nt - 1, "f.space": 1}

    plain = HamiltonianSpec(params=spec.params, coefficient=rough, forcing=forcing, shift=0.1)
    assert u.values.tobytes() == solve_hj(plain, _init, _bc(_Log()), cfg).values.tobytes()


# ---------------------------------------------------------------------------
# Rows solved together against one-at-a-time solves
# ---------------------------------------------------------------------------


def _row_init(k):
    """Initial data of row k: _init shifted in phase, so the rows differ."""
    return lambda *c: _init(*c) + 0.05 * k * np.cos(c[0] + 0.5 * k)


def _row_coefficient(kind, k, log):
    if kind == "constant":
        return 1.0 + 0.1 * k
    rough = instances.rough_coefficient(7.0 - k, 5.0 + k)
    if kind == "rough":
        return rough
    return log.wrap("a", lambda *a: rough(*a))  # an opaque callable, sampled per row


def _row_forcing(kind, d, log):
    if kind == "none":
        return None
    if kind == "constant":
        return 0.7
    power = instances.inverse_power_forcing(0.3, 0.4, (0.3, -0.2)[:d], cap_radius=0.05)
    if kind == "inverse_power":
        return power
    return log.wrap("f", lambda *a: power(*a))


def _row_specs(d, rows, logs, diffusion=None, first=0):
    """Specs of rows numbered from `first`: the number picks the coefficient."""
    return [HamiltonianSpec(params=EquationParams(p=p, A=2.0, d=d),
                            coefficient=_row_coefficient(coefficient, k, log),
                            diffusion=diffusion, forcing=_row_forcing(forcing, d, log),
                            shift=0.1)
            for k, ((p, coefficient, forcing), log) in enumerate(zip(rows, logs), first)]


def _check_rows(d, rows, cfg, diffusion=ExtremalDiffusion(sign=1, coeff=0.04)):
    """Solve the rows together and one at a time; every row must agree bit for
    bit and sample its callables at the same times in the same order.
    Returns each row's substep count."""
    together_logs = [_Log() for _ in rows]
    inits = [_row_init(k) for k in range(len(rows))]
    got = solve_hj(_row_specs(d, rows, together_logs, diffusion), inits,
                   [_bc(log) for log in together_logs], cfg)
    assert len(got) == len(rows)
    substeps = []
    for k, row in enumerate(rows):
        alone_log = _Log()
        (spec,) = _row_specs(d, [row], [alone_log], diffusion, first=k)
        want = solve_hj(spec, inits[k], _bc(alone_log), cfg)
        assert got[k].values.tobytes() == want.values.tobytes(), row
        assert together_logs[k].calls == alone_log.calls, row
        substeps.append(sum(name == "bc" for name, _, _ in alone_log.calls))
    return got, substeps


@pytest.mark.parametrize("d", [1, 2])
def test_rows_match_alone_across_exponents(d):
    # p = 4 puts 2.0 in the exponent column, where ndarray ** 2.0 squares
    # instead of calling power; p = 2 puts 1.0 there
    rows = [(4.0, "rough", "inverse_power"), (2.0, "rough", "inverse_power"),
            (3.0, "rough", "inverse_power"), (2.5, "rough", "inverse_power")][:6 - 2 * d]
    cfg = _cfg(d)
    got, substeps = _check_rows(d, rows, cfg)
    # each row finishes each output interval after its own number of substeps
    assert len(set(substeps)) > 1
    # and matches the frozen roll/gradient reference
    for k, row in enumerate(rows):
        (spec,) = _row_specs(d, [row], [_Log()], ExtremalDiffusion(sign=1, coeff=0.04), first=k)
        want = _ref_solve(spec, _row_init(k), _bc(_Log()), cfg)
        assert got[k].values.tobytes() == want.tobytes()


@pytest.mark.parametrize("diffusion", [ExtremalDiffusion(sign=-1, coeff=0.04),
                                       TraceDiffusion(_trace_entries(2))])
@pytest.mark.parametrize("nx", [(17, 12), (3, 14), (11, 3)])
def test_2d_rows_match_reference(nx, diffusion):
    rows = [(3.0, "rough", "inverse_power"), (2.5, "constant", "none"),
            (4.0, "opaque", "constant")]
    cfg = _cfg(2, nx=nx)
    got, _ = _check_rows(2, rows, cfg, diffusion=diffusion)
    for k, row in enumerate(rows):
        (spec,) = _row_specs(2, [row], [_Log()], diffusion, first=k)
        want = _ref_solve(spec, _row_init(k), _bc(_Log()), cfg)
        assert got[k].values.tobytes() == want.tobytes()


def test_rows_with_one_exponent():
    # rows that agree power by one number, whole rows at once; p = 2 and p = 4
    # make it 1.0 and 2.0, which ndarray ** number special-cases
    for d in (1, 2):
        for p in (3.0, 2.0, 4.0):
            _check_rows_with_reference(d, [(p, "rough", "inverse_power"), (p, "constant", "none"),
                                           (p, "opaque", "constant")], _cfg(d),
                                       ExtremalDiffusion(sign=1, coeff=0.04))


@pytest.mark.parametrize("forcings", [
    ("none", "none"), ("constant", "constant"), ("inverse_power", "inverse_power"),
    ("none", "constant", "inverse_power", "opaque"),
])
@pytest.mark.parametrize("coefficients", [
    ("rough", "rough"), ("constant", "constant"), ("rough", "opaque"),
    ("opaque", "constant", "rough"),
])
def test_separable_rows_beside_opaque_rows(coefficients, forcings):
    n = max(len(coefficients), len(forcings))
    rows = [(2.5 + 0.5 * k, coefficients[k % len(coefficients)], forcings[k % len(forcings)])
            for k in range(n)]
    _check_rows(1, rows, _cfg(1))


@pytest.mark.parametrize("diffusion", [
    None,
    ExtremalDiffusion(sign=-1, coeff=0.04),
    TraceDiffusion(np.array([[0.03]])),
    TraceDiffusion(_trace_entries(1)),
])
def test_rows_share_each_diffusion_kind(diffusion):
    _check_rows(1, [(3.0, "rough", "inverse_power"), (2.5, "opaque", "none")], _cfg(1),
                diffusion=diffusion)


def test_failing_row_leaves_the_others():
    rows = [(3.0, "rough", "inverse_power"), (3.0, "rough", "constant"),
            (2.5, "opaque", "none")]
    logs = [_Log() for _ in rows]
    specs = _row_specs(1, rows, logs)
    specs[1] = HamiltonianSpec(params=specs[1].params, coefficient=specs[1].coefficient,
                               diffusion=specs[1].diffusion, forcing=1e9, shift=0.1)
    inits = [_row_init(k) for k in range(len(rows))]
    cfg = _cfg(1)
    got = solve_hj(specs, inits, [_bc(log) for log in logs], cfg)
    with pytest.raises((Blowup, CflViolation)) as alone:
        solve_hj(specs[1], inits[1], _bc(_Log()), cfg)
    assert type(got[1]) is alone.type and str(got[1]) == str(alone.value)
    for k in (0, 2):
        alone_log = _Log()
        (spec,) = _row_specs(1, [rows[k]], [alone_log], first=k)
        want = solve_hj(spec, inits[k], _bc(alone_log), cfg)
        assert got[k].values.tobytes() == want.values.tobytes()
        assert logs[k].calls == alone_log.calls


def test_alpha_overflow_fails_only_its_row():
    # p = 300 on data of slope ~20: qmax ** 299 overflows a float; that row's
    # alpha is infinite, its stable step 0, and no warning comes of it
    rows = [(3.0, "rough", "inverse_power"), (300.0, "rough", "none"),
            (2.5, "constant", "constant")]
    specs = _row_specs(1, rows, [_Log() for _ in rows])
    inits = [_row_init(0), lambda x: 10.0 * x**2, _row_init(2)]
    cfg = _cfg(1)
    got = solve_hj(specs, inits, [_bc(_Log()) for _ in rows], cfg)
    with pytest.raises(CflViolation) as alone:
        solve_hj(specs[1], inits[1], _bc(_Log()), cfg)
    assert str(alone.value) == "stable step 0 below floor 1e-09 at t=0"
    assert type(got[1]) is CflViolation and str(got[1]) == str(alone.value)
    for k in (0, 2):
        (spec,) = _row_specs(1, [rows[k]], [_Log()], first=k)
        want = solve_hj(spec, inits[k], _bc(_Log()), cfg)
        assert got[k].values.tobytes() == want.values.tobytes()


def test_non_finite_initial_data_is_rejected_before_stepping():
    specs = _row_specs(1, [(3.0, "rough", "none")] * 2, [_Log(), _Log()])
    calls = []
    bcs = [_Log().wrap("bc", lambda *a: calls.append(a) or _init(*a[:-1]))] * 2
    with pytest.raises(DomainError, match="initial data of row 1 is not finite"):
        solve_hj(specs, [_init, lambda x: 1e308 * (x + 3.0) ** 2], bcs, _cfg(1))
    with pytest.raises(DomainError, match="row 0"):
        solve_hj(specs[0], np.full(65, np.nan), bcs[0], _cfg(1))
    assert calls == []


def test_nan_values_are_a_blowup():
    (spec,) = _row_specs(1, [(3.0, "rough", "none")], [_Log()])
    with pytest.raises(Blowup):
        solve_hj(spec, _init, lambda x, t: np.where(t > 0.0, np.nan, _init(x)), _cfg(1))


def test_rows_must_share_grid_diffusion_and_shift():
    cfg = _cfg(1)
    base = _row_specs(1, [(3.0, "rough", "none"), (2.5, "rough", "none")], [_Log(), _Log()])
    two = [_init, _init]
    bcs = [_bc(_Log()), _bc(_Log())]
    other_diffusion = HamiltonianSpec(params=base[1].params, diffusion=ExtremalDiffusion(1, 0.05),
                                      shift=0.1)
    other_shift = HamiltonianSpec(params=base[1].params, diffusion=base[0].diffusion, shift=0.2)
    other_dim = HamiltonianSpec(params=EquationParams(p=3.0, A=2.0, d=2),
                                diffusion=base[0].diffusion, shift=0.1)
    for second in (other_diffusion, other_shift, other_dim):
        with pytest.raises(DomainError):
            solve_hj([base[0], second], two, bcs, cfg)
    with pytest.raises(DomainError):
        solve_hj(base, [_init], bcs, cfg)
    with pytest.raises(DomainError):
        solve_hj([], [], [], cfg)
    # equal matrices in two TraceDiffusion objects are one shared term
    trace = [HamiltonianSpec(params=s.params, diffusion=TraceDiffusion(np.array([[0.03]])),
                             shift=0.1) for s in base]
    assert len(solve_hj(trace, two, bcs, cfg)) == 2
    trace[1] = HamiltonianSpec(params=base[1].params,
                               diffusion=TraceDiffusion(np.array([[0.04]])), shift=0.1)
    with pytest.raises(DomainError):
        solve_hj(trace, two, bcs, cfg)


# ---------------------------------------------------------------------------
# One workspace per solve: its buffers are reused from step to step and from
# block to block, and every value must still match the frozen reference
# ---------------------------------------------------------------------------


def _check_rows_with_reference(d, rows, cfg, diffusion):
    """_check_rows, then each row against the roll/gradient reference, with its
    residual reports."""
    got, substeps = _check_rows(d, rows, cfg, diffusion=diffusion)
    for k, row in enumerate(rows):
        (spec,) = _row_specs(d, [row], [_Log()], diffusion, first=k)
        want = _ref_solve(spec, _row_init(k), _bc(_Log()), cfg)
        assert got[k].values.tobytes() == want.tobytes(), row
        for side in ("sub", "super"):
            assert discrete_residual(got[k], spec, side) == _ref_residual(got[k], spec, side)
    return got, substeps


def test_two_2d_solves_in_one_process():
    # a second solve, on another grid, then the first again: nothing of one
    # solve's workspace may reach the next
    for nx in [(25, 21), (17, 30), (25, 21)]:
        _check(2, "m+", "rough", "inverse_power", nx=nx)
        _check(2, "trace_callable", "rough", "constant", nx=nx)


def test_rows_drop_out_partway_through_an_interval():
    # the rows reach each output time after different numbers of substeps, and
    # the middle row's boundary data turns nan at t = 0.12, inside the third
    # interval: the block shrinks to rows 0 and 2 and keeps stepping
    rows = [(2.5, "rough", "inverse_power"), (3.0, "opaque", "none"),
            (4.0, "rough", "constant")]
    cfg = _cfg(1)
    logs = [_Log() for _ in rows]
    specs = _row_specs(1, rows, logs)
    inits = [_row_init(k) for k in range(len(rows))]
    bcs = [_bc(log) for log in logs]
    healthy = bcs[1]
    bcs[1] = lambda *a: healthy(*a) + (np.nan if a[-1] >= 0.12 else 0.0)
    got = solve_hj(specs, inits, bcs, cfg)
    assert type(got[1]) is Blowup
    assert 0.10 < float(str(got[1]).rsplit("t=", 1)[1]) < 0.15  # inside the third interval
    substeps = []
    for k in (0, 2):
        (spec,) = _row_specs(1, [rows[k]], [_Log()], first=k)
        ref_log = _Log()
        want = _ref_solve(spec, inits[k], _bc(ref_log), cfg)
        assert got[k].values.tobytes() == want.tobytes()
        substeps.append(sum(name == "bc" for name, _, _ in ref_log.calls))
    assert substeps[0] != substeps[1]
    _check_rows_with_reference(1, rows[::2], cfg, ExtremalDiffusion(sign=1, coeff=0.04))


@pytest.mark.parametrize("d, exponents", [
    (1, (3.0, 2.0, 4.0, 3.0, 2.0)),
    (1, (4.0, 3.0, 2.0)),
    (2, (2.0, 3.0, 4.0)),
])
def test_rows_mix_fast_path_exponents_with_others(d, exponents):
    # p = 2 and p = 4 put 1.0 and 2.0 in the exponent column, and those rows
    # are redone from their values before the power; p = 3 rows are not
    rows = [(p, "rough", "inverse_power") for p in exponents]
    _check_rows_with_reference(d, rows, _cfg(d), ExtremalDiffusion(sign=-1, coeff=0.04))


def test_2d_trace_rows_with_an_off_diagonal_term():
    def entries(x, y, t):
        b11 = 0.03 + 0.01 * np.sin(x) ** 2
        b22 = 0.03 + 0.01 * np.cos(y) ** 2
        b12 = 0.012 * np.cos(2.0 * x - y + t)  # nonzero, and larger than the diagonal's spread
        return np.array([[b11, b12], [b12, b22]])

    rows = [(3.0, "rough", "inverse_power"), (2.0, "constant", "none"),
            (4.0, "opaque", "constant")]
    _check_rows_with_reference(2, rows, _cfg(2, nx=(15, 13)), TraceDiffusion(entries))


@pytest.mark.parametrize("entries", ["constant", "broadcast"])
def test_2d_trace_rows_with_constant_and_broadcast_entries(entries):
    # a constant B enters each row's product as a number, a (2, 2, nx, 1) B
    # through its broadcast to the grid; both carry an off-diagonal term
    cfg = _cfg(2, nx=(15, 13))
    if entries == "constant":
        b = np.array([[0.03, 0.012], [0.012, 0.025]])
    else:
        x = cfg.axes()[0][:, None]
        b12 = 0.012 * np.cos(2.0 * x + 0.5)
        b = np.array([[0.03 + 0.01 * np.sin(x + 0.3) ** 2, b12], [b12, np.full_like(x, 0.025)]])
        assert b.shape == (2, 2, 15, 1)
    rows = [(3.0, "rough", "inverse_power"), (2.0, "constant", "none"),
            (4.0, "opaque", "constant")]
    _check_rows_with_reference(2, rows, cfg, TraceDiffusion(b))
