"""The interior-slice stencil against the np.roll / np.gradient formulas.

The reference below is a frozen, test-local copy of the roll/gradient
substep loop and residual check that the interior stencil replaced.  The
stencil performs the same float operations in the same order, so every
solution value and every residual report must agree bit for bit, and every
callable must be sampled at the same times in the same order.

The same holds for problems solved together as rows of one solve_hj call:
each row must match its one-at-a-time solve bit for bit and sample its
callables as that solve does.
"""

import logging
import math

import numpy as np
import pytest

from hjholder import instances
from hjholder.core import EquationParams
from hjholder.errors import Blowup, CflViolation, DomainError
from hjholder.scheme import (
    BLOWUP_FACTOR,
    ExtremalDiffusion,
    HamiltonianSpec,
    ResidualReport,
    SolveConfig,
    TraceDiffusion,
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


def _ref_m_field(hess, d, sign):
    if d == 1:
        h = hess[(0, 0)]
        return np.maximum(h, 0.0) if sign > 0 else np.minimum(h, 0.0)
    mid = 0.5 * (hess[(0, 0)] + hess[(1, 1)])
    rad = np.hypot(0.5 * (hess[(0, 0)] - hess[(1, 1)]), hess[(0, 1)])
    return np.maximum(mid + rad, 0.0) if sign > 0 else np.minimum(mid - rad, 0.0)


def _ref_diffusion_field(spec, u, coords, t, dx, d):
    diff = spec.diffusion
    if diff is None:
        return 0.0, 0.0
    hess = _ref_second_diffs(u, dx)
    if isinstance(diff, ExtremalDiffusion):
        return diff.coeff * _ref_m_field(hess, d, diff.sign), abs(diff.coeff)
    b = diff.matrix_at(coords, t, d)
    total = np.zeros(u.shape)
    for i in range(d):
        for j in range(d):
            total = total + b[i, j] * hess[(min(i, j), max(i, j))]
    return total, float(np.max(np.abs(b))) * d


def _ref_solve(spec, init, bc, cfg):
    d = cfg.dim
    dx = cfg.spacings()
    dx_min = min(dx)
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
            a = spec.coeff_at(coords, t)
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
            if cfg.lf_alpha_cap is not None and alpha > cfg.lf_alpha_cap:
                alpha = cfg.lf_alpha_cap
            gnorm2 = sum(qc**2 for qc in q_center)
            hamil = a * gnorm2 ** (p / 2.0)
            for i in range(d):
                hamil = hamil - 0.5 * alpha * (qf[i] - qb[i])
            diff_term, lam = _ref_diffusion_field(spec, u, coords, t, dx, d)
            rhs = spec.forcing_at(coords, t) - spec.shift - hamil + diff_term
            dt_stab = math.inf
            if alpha > 0:
                dt_stab = dx_min / (2.0 * alpha * d)
            if lam > 0:
                dt_stab = min(dt_stab, dx_min**2 / (2.0 * d * lam))
            dt_stab *= cfg.cfl
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
        a = spec.coeff_at(coords, ts[n])
        grads = [np.gradient(un, dx[i], axis=i) for i in range(d)]
        gnorm2 = sum(g**2 for g in grads)
        diff_term, _ = _ref_diffusion_field(spec, un, coords, ts[n], dx, d)
        res = ut + a * gnorm2 ** (spec.params.p / 2.0) - diff_term
        res = res - spec.forcing_at(coords, ts[n]) + spec.shift
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


def _cfg(d, **kw):
    if d == 1:
        return SolveConfig(xmin=(-1.0,), xmax=(1.2,), nx=(65,), t0=0.0, t1=0.3, nt=7, **kw)
    return SolveConfig(xmin=(-1.0, -0.8), xmax=(1.0, 1.1), nx=(25, 21), t0=0.0, t1=0.2,
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


def _bc(log):
    return log.wrap("bc", lambda *args: _init(*args[:-1]) + 0.1 * args[-1])


def _check(d, diffusion, coefficient, forcing, **cfg_kw):
    cfg = _cfg(d, **cfg_kw)
    new_log, ref_log = _Log(), _Log()
    got = solve_hj(_spec(d, diffusion, coefficient, forcing, new_log), _init,
                   _bc(new_log), cfg)
    want = _ref_solve(_spec(d, diffusion, coefficient, forcing, ref_log), _init,
                      _bc(ref_log), cfg)
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


@pytest.mark.parametrize("d", [1, 2])
def test_stencil_matches_reference_under_lf_cap(d, caplog):
    with caplog.at_level(logging.WARNING, logger="hjholder.scheme"):
        _check(d, "m+", "rough", "inverse_power", lf_alpha_cap=0.3)
    assert any("LF dissipation capped" in r.getMessage() for r in caplog.records)


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


def test_rows_with_one_exponent():
    _check_rows(1, [(3.0, "rough", "inverse_power"), (3.0, "constant", "none"),
                    (3.0, "opaque", "constant")], _cfg(1))


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


def test_rows_under_lf_cap_warn_once_each(caplog):
    rows = [(4.0, "rough", "inverse_power"), (3.0, "rough", "none"), (2.5, "constant", "none")]
    cfg = _cfg(1, lf_alpha_cap=0.3)
    _check_rows(1, rows, cfg)

    def cap_warnings(rows, first=0):
        logs = [_Log() for _ in rows]
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="hjholder.scheme"):
            solve_hj(_row_specs(1, rows, logs, first=first), [_init] * len(rows),
                     [_bc(log) for log in logs], cfg)
        return sum("LF dissipation capped" in r.getMessage() for r in caplog.records)

    alone = [cap_warnings([row], first=k) for k, row in enumerate(rows)]
    assert cap_warnings(rows) == sum(alone) >= 2


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
