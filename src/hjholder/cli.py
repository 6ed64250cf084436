"""Command-line entry point wiring all modules together.

Exit codes: 0 when every requested check passed, 1 when a verification
failed (the report says where), 2 on invalid input or config.  CSV is the
canonical output; figures are standalone SVG files.  All randomness flows
through a seeded generator recorded in the output headers, so identical
config + seed gives byte-identical CSV.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import keyword
import math
import os
import sys

import numpy as np

from . import barriers, instances, oscillation, scaling, scheme, variational
from ._svg import line_plot_svg
from .core import (EquationParams, ParabolicCylinder, as_number, load_grid, save_grid,
                   shift_normalize)
from .errors import DomainError, HJHolderError, Infeasible

_F = "%.12g"


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, float):
        return _F % x
    return str(x)


def _write_csv(path, header_rows, columns, rows):
    lines = [f"# {k},{_fmt(v)}" for k, v in header_rows]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Config -> problem objects
# ---------------------------------------------------------------------------


def _value(value, annotation: str, where: str, key: str):
    """The JSON value at where.key read as the annotated type of a parameter;
    DomainError otherwise.  Numbers must be finite (whole for an int), and a
    tuple holds one number per space axis, where a bare number is one axis.
    An unannotated parameter takes a number."""
    annotation = "float" if annotation is inspect.Parameter.empty else annotation
    if value is None and annotation.endswith(" | None"):
        return None
    annotation, what = annotation.removesuffix(" | None"), f"{where}.{key}"
    if annotation in ("float", "int"):
        return as_number(value, what, integral=annotation == "int")
    if annotation == "tuple[float, ...]":
        return tuple(as_number(v, what) for v in (value if isinstance(value, list) else [value]))
    if annotation == "object" or isinstance(value, {"str": str, "dict": dict}[annotation]):
        return value  # an object is read by the block it goes into
    wanted = "a JSON object" if annotation == "dict" else "a string"
    raise DomainError(f"{where}: {key!r} must be {wanted}, got {value!r}")


@functools.cache  # its keys are the config consumers of this module, a fixed set
def _params(fn):
    return inspect.signature(fn).parameters


def _kwargs(fn, block: dict, where: str, fixed=(), typed: bool = True) -> dict:
    """The config block at `where` as keyword arguments of fn: each key names a
    parameter not in `fixed` (a keyword such as `lambda` names `lambda_`, which is
    no key itself), read as its type unless fn converts its own; one without a
    default is required."""
    params = _params(fn)
    kwargs = {}
    for key, value in block.items():
        name = key + "_" if keyword.iskeyword(key) else key
        if name not in params or name in fixed or keyword.iskeyword(key[:-1]):
            raise DomainError(f"{where}: unknown key {key!r}")
        kwargs[name] = _value(value, params[name].annotation, where, key) if typed else value
    missing = [name for name, param in params.items()
               if param.default is param.empty and name not in kwargs and name not in fixed]
    if missing:
        raise DomainError(f"{where} needs {', '.join(map(repr, missing))}")
    return kwargs


def _build(fn, block: dict, where: str, /, **context):
    """fn(**context, **block), the block read by _kwargs; the context holds
    values the program sets, and fn gets those it has parameters for."""
    context = {k: v for k, v in context.items() if k in _params(fn)}
    return fn(**context, **_kwargs(fn, block, where, context))


def _kind(factories: dict, block, where: str, key: str, /, **context):
    """The object that the block {"kind": name, ...} at where.key describes:
    factories[name] applied to its other keys.  The first kind in factories is
    the one an absent block or "kind" means."""
    block = dict(_value(block, "dict | None", where, key) or {})
    kind = block.pop("kind", next(iter(factories)))
    if not isinstance(kind, str) or kind not in factories:
        raise DomainError(f"{where}.{key}: unknown kind {kind!r} (one of {', '.join(factories)})")
    return _build(factories[kind], block, f"{where}.{key}", **context)


def _from_instances(name: str, signature_of, *args):
    """A factory calling instances.<name>(*args, **kw), with signature_of's keys;
    it looks the factory up at each call, so a wrapper put on the module
    attribute (as the benchmark's tracer does) sees the call."""
    return functools.wraps(signature_of)(lambda **kw: getattr(instances, name)(*args, **kw))


def _extremal_diffusion(coeff, sign: str = "plus") -> scheme.ExtremalDiffusion:
    signs = {"plus": 1, "minus": -1, "+": 1, "-": -1}
    if sign not in signs:
        raise DomainError(f"diffusion sign must be one of {', '.join(signs)}, got {sign!r}")
    return scheme.ExtremalDiffusion(signs[sign], coeff)


_COEFFICIENTS = {"constant": lambda value=scheme.HamiltonianSpec.coefficient: value,
                 "rough": _from_instances("rough_coefficient", instances.rough_coefficient)}
_DIFFUSIONS = {"none": lambda: None, "extremal": _extremal_diffusion,
               "trace": lambda scale=1.0, *, d: scheme.TraceDiffusion(scale * np.eye(d))}
_FORCINGS = {"none": lambda: None, "constant": lambda value=0.0: value,
             "inverse_power": _from_instances("inverse_power_forcing",
                                              instances.inverse_power_forcing)}
_INITIAL = {kind: _from_instances("initial_profile", fn, kind)
            for kind, fn in instances.INITIAL_PROFILES.items()}
_BOUNDARY = {kind: _from_instances("boundary_profile", fn, kind)
             for kind, fn in instances.BOUNDARY_PROFILES.items()}


def _spec(eq: dict | None, grid: scheme.SolveConfig, where: str) -> scheme.HamiltonianSpec:
    """The equation block at `where`: EquationParams' keys, `shift`, and the
    coefficient, diffusion and forcing blocks."""
    eq = dict(eq or {})
    fields = _params(EquationParams)
    given = {k: eq.pop(k) for k in list(eq) if k in fields}
    params = _build(EquationParams, {"d": grid.dim, **given}, where)  # d defaults to the grid's
    forcing = _value(eq.get("forcing"), "dict | None", where, "forcing") or {}
    if forcing.get("kind") == "inverse_power":  # the one default that the grid sets
        eq["forcing"] = {"cap_radius": min(grid.spacings()), **forcing}
    terms = {key: _kind(kinds, eq.pop(key, None), where, key, d=params.d) for key, kinds in
             (("coefficient", _COEFFICIENTS), ("diffusion", _DIFFUSIONS), ("forcing", _FORCINGS))}
    return _build(scheme.HamiltonianSpec, eq, where, params=params, **terms)


def _base(grid: dict, equation: dict | None = None, initial: dict | None = None,
          boundary: dict | None = None, seed: int | None = None, *, where: str):
    """(equation block, init, bc, solve_cfg) of a solve config, the equation block
    left to _spec; a solve draws no random numbers, so its seed is only checked."""
    grid = _kwargs(scheme.SolveConfig, grid, f"{where}.grid", typed=False)
    solve_cfg = scheme.SolveConfig(**grid)
    init = _kind(_INITIAL, initial, where, "initial")
    return equation, init, _kind(_BOUNDARY, boundary, where, "boundary", init=init), solve_cfg


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DomainError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise DomainError(f"config {path} must hold a JSON object, got {type(cfg).__name__}")
    return cfg


def solve_from_config(cfg: dict):
    """Build and run a solve described by a JSON config; returns (u, spec, solve_cfg)."""
    equation, init, bc, solve_cfg = _build(_base, cfg, "config", where="config")
    spec = _spec(equation, solve_cfg, "config.equation")
    return scheme.solve_hj(spec, init, bc, solve_cfg), spec, solve_cfg


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_legendre(args) -> int:
    lag = variational.legendre_closed(args.p, args.A)
    qs = np.linspace(-10.0, 10.0, 41)
    dev = 0.0
    brute_at = {}  # |q| -> brute-force value: the oracle and its window depend only on |q|
    for q in qs:
        r = abs(q)
        if r not in brute_at:
            with np.errstate(over="ignore"):  # an infinite window fails in the oracle
                radius = 2.0 * (max(r, 1e-3) / (args.p * args.A)) ** (1.0 / (args.p - 1.0))
            brute_at[r] = variational.legendre_brute(args.p, args.A, 0.0, q, radius, 200_001)
        dev = max(dev, abs(lag(q) - brute_at[r]))
    print(f"c_p = {lag.c_p:.12g}")
    print(f"p_prime = {lag.p_prime:.12g}")
    print(f"oracle_deviation = {dev:.3e} over {len(qs)} values |q| <= 10")
    ok = dev <= 1e-6
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_constants(args) -> int:
    params = EquationParams(p=args.p, A=args.A)
    fo = barriers.first_order_constants(params)
    m1, m2, m3 = fo.margins()
    print(f"T = {fo.T:.12g}")
    print(f"theta = {fo.theta:.12g}")
    print(f"eps = {fo.eps:.12g}")
    print(f"margin_upper_cost = {m1:.6g}")
    print(f"margin_lateral_cost = {m2:.6g}")
    print(f"margin_eps_budget = {m3:.6g}")
    print("PASS")  # first_order_constants raised SearchFailed unless every margin is >= 0
    return 0


def _cmd_barrier(args) -> int:
    grid = barriers.VerificationGrid(nx=args.nx, nt=args.nt)
    params = EquationParams(p=args.p, A=args.A, d=args.d)
    radii, times = grid.radii(args.d), grid.times()
    rho, t = np.meshgrid(radii, times, indexing="ij")
    if args.kind == "super":  # a supersolution wants residual >= 0, a subsolution <= 0
        C, eps0 = barriers.find_supersolution_constants(params, args.eta, grid)
        bar = barriers.SupersolutionBarrier(C, args.eta, params)
        res, sign = barriers._super_residual_radial(bar, rho, t, args.eta * eps0), 1.0
        print(f"C = {C:.12g}")
        print(f"eps0 = {eps0:.12g}")
    else:
        bar = barriers.make_subsolution_barrier(params, args.R, grid)
        res, sign = barriers._sub_residual_radial(bar, params, rho, t), -1.0
        print(f"C_b = {bar.C_b:.12g}")
        print(f"theta = {bar.theta:.12g}")
        print(f"eps = {bar.eps:.12g}")
    i, j = np.unravel_index(int(np.argmin(sign * res)), res.shape)
    worst = float(res[i, j])
    print(f"worst_residual = {worst:.6e} "
          f"(want {'>= -' if sign > 0 else '<= '}{barriers.RESIDUAL_TOL:g})")
    print(f"worst_node = (|x| = {radii[i]:.6g}, t = {times[j]:.6g})")
    ok = sign * worst >= -barriers.RESIDUAL_TOL
    print(f"grid = {len(radii)} radii x {len(times)} times on |x| <= {barriers.GRID_X_MAX}, "
          f"t in [{grid.t_min:g}, {barriers.GRID_T_MAX:g}] (no statement between nodes)")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    u, _, _ = solve_from_config(cfg)
    save_grid(u, args.out)
    print(f"wrote {args.out}: shape {u.values.shape}, "
          f"range [{u.values.min():.6g}, {u.values.max():.6g}]")
    return 0


def _fit_first_center(report, u):
    """fit_holder on the first centre's samples at radii above the grid floor."""
    return oscillation.fit_holder(report.centers[0].samples,
                                  min_radius=oscillation.GRID_FLOOR_SPACINGS * max(u.spacing_x))


def _cmd_oscillate(args) -> int:
    u = load_grid(args.infile)
    params = EquationParams(p=args.p, A=args.A, d=u.dim, m=args.m)
    if args.alpha is not None:
        alpha = args.alpha
    else:
        alpha = scaling.admissible_alpha(params, args.lam, args.theta).alpha
    report = oscillation.iterate_scales(
        u, params, args.lam, args.theta, alpha, r0=args.r0,
    )
    rows = [(*cit.center[:u.dim], lv.level, lv.r, lv.osc, lv.bound, lv.ok)
            for cit in report.centers for lv in cit.levels]
    header = [
        ("alpha", alpha),
        ("beta", report.beta),
        ("lambda", args.lam),
        ("theta", args.theta),
        ("implied_C", report.implied_constant if report.passed else float("nan")),
        ("note", report.note),
    ]
    centers = [f"center_{'xyz'[i] if i < 3 else i}" for i in range(u.dim)]  # one per space axis
    _write_csv(args.out, header, [*centers, "level", "r", "osc", "bound", "pass"], rows)
    try:
        est = _fit_first_center(report, u)
        print(f"alpha_hat = {est.alpha_hat:.6g}, c_hat = {est.c_hat:.6g}, "
              f"max_fit_residual = {est.max_fit_residual:.6g}")
    except HJHolderError as exc:
        print(f"fit skipped: {exc}")
    print(f"iterate_scales: {'PASS' if report.passed else 'FAIL'} at alpha = {alpha:.6g}")
    return 0 if report.passed else 1


def _cmd_modulus(args) -> int:
    u = load_grid(args.infile)
    rep = oscillation.holder_modulus_check(
        u, args.alpha, args.C, args.p, n_random_pairs=args.pairs, seed=args.seed
    )
    header = [("seed", args.seed), ("pairs", rep.n_pairs)]
    _write_csv(
        args.out,
        header,
        ["alpha", "time_exponent", "C", "max_ratio"],
        [(rep.alpha, rep.time_exp, rep.C, rep.max_ratio)],
    )
    print(f"max_ratio = {rep.max_ratio:.6g} at {rep.argmax_a} vs {rep.argmax_b}")
    ok = rep.max_ratio <= 1.0
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_scale(args) -> int:
    params = EquationParams(args.p, d=args.d, m=args.m)
    # every line is built before any is printed: a bad input exits 2 with no result
    lines, ok = [], True
    if args.m is not None:
        lines.append(f"delta(alpha=0) = {scaling.delta_exponent(params, 0.0):.12g}")
        lines.append(f"lm_scaling_exponent = {scaling.lm_scaling_exponent(params):.12g}")
        if args.p > 2.0:
            lo, hi, nonempty = scaling.beta_window(params)
            lines.append(f"beta_window = ({lo:.12g}, {hi:.12g}) nonempty = {nonempty}")
            ok = ok and nonempty
        if args.alpha is not None:
            lines.append(f"delta(alpha={args.alpha:g}) = "
                         f"{scaling.delta_exponent(params, args.alpha):.12g}")
    if args.alpha is not None:
        rep = scaling.calpha_scale(0.5, args.alpha, params)
        lines.append(f"diffusion_factor(r=1/2) = {rep.diff_coeff_factor:.12g}")
        lines.append(f"rhs_factor(r=1/2) = {rep.rhs_factor:.12g}")
    try:
        adm = scaling.admissible_alpha(params, args.lam, args.theta)
        lines.append(f"admissible_alpha = {adm.alpha:.12g} (binding: {adm.binding()})")
    except Infeasible as exc:
        lines.append(f"admissible_alpha: infeasible ({exc})")
        ok = False
    lines.append("PASS" if ok else "FAIL")
    print("\n".join(lines))
    return 0 if ok else 1


def _demo_solve(p, A, eps, init):
    params = EquationParams(p=p, A=A, d=1)
    diffusion = scheme.ExtremalDiffusion(1, eps) if eps > 0 else None
    spec = scheme.HamiltonianSpec(params, diffusion=diffusion)
    cfg = scheme.SolveConfig(xmin=(-1.0,), xmax=(1.0,), nx=(129,), t0=0.0, t1=1.0, nt=65)
    bc = instances.boundary_profile("frozen_initial", init=init)
    return scheme.solve_hj(spec, init, bc, cfg), params


def _cmd_demo(args) -> int:
    if args.A < 1.0:
        raise DomainError("demo needs A >= 1 so a == 1 satisfies both inequalities")
    os.makedirs(args.out_dir, exist_ok=True)
    theta, eps, R, r = 0.1, 1e-3, 0.5, 0.25

    dip_init = instances.initial_profile("dip", level=0.95, depth=0.9, width=0.15)
    u_dip, params = _demo_solve(args.p, args.A, eps, dip_init)
    q_cover = ParabolicCylinder((0.0,), 1.0, 1.0, 1.0)
    u_dip_n = shift_normalize(u_dip, q_cover)
    rep1 = barriers.two_case_oscillation_check(u_dip_n, params, R, r, theta)

    raised_init = instances.initial_profile("sinusoid", level=0.6, amplitude=0.2, k=3.0)
    u_up, _ = _demo_solve(args.p, args.A, eps, raised_init)
    rep2 = barriers.two_case_oscillation_check(u_up, params, R, r, theta)

    rows = []
    for name, rep in (("bottom_dip", rep1), ("raised_bottom", rep2)):
        rows.append(
            (name, rep.case, rep.passed, rep.threshold, rep.witness_value, rep.margin)
        )
    _write_csv(
        os.path.join(args.out_dir, "sees_points.csv"),
        [("p", args.p), ("A", args.A), ("theta", theta), ("eps", eps), ("R", R), ("r", r)],
        ["instance", "case", "pass", "threshold", "witness", "margin"],
        rows,
    )

    xs = u_dip.axis_coords(0)
    series = []
    for frac in (0.0, 0.25, 0.5, 1.0):
        n = int(round(frac * (u_dip.n_time - 1)))
        series.append((f"t = {u_dip.times()[n]:.2f}", xs, u_dip_n.values[:, n]))
    line_plot_svg(
        os.path.join(args.out_dir, "sees_points.svg"),
        series,
        title="A single low boundary point pulls the solution down everywhere",
        xlabel="x",
        ylabel="u",
    )
    print(f"dip instance: case {rep1.case}, pass = {rep1.passed}, margin = {rep1.margin:.4g}")
    print(f"raised instance: case {rep2.case}, pass = {rep2.passed}, margin = {rep2.margin:.4g}")
    print(f"wrote {args.out_dir}/sees_points.csv and sees_points.svg")
    ok = rep1.passed and rep2.passed and rep1.case == 1 and rep2.case == 2
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _override(eq: dict | None, p: object = None, A: object = None, k: object = None,
              omega: object = None, gamma: object = None, strength: object = None,
              x0: object = 1.3, m: object = None) -> dict:
    """The base equation block with one sweep instance's overrides, whose
    values are read with the block.  A is 2 when neither sets it; k or omega
    make the coefficient rough, and gamma the forcing inverse_power, centred
    at x0; a replaced block takes its kind's defaults for the keys not given."""
    new = {"p": p, "A": (eq or {}).get("A", 2.0) if A is None else A, "m": m}
    if k is not None or omega is not None:
        new["coefficient"] = _given(kind="rough", k=k, omega=omega)
    if gamma is not None:
        new["forcing"] = _given(kind="inverse_power", gamma=gamma, center=x0, strength=strength)
    return {**(eq or {}), **_given(**new)}


def _given(**kw) -> dict:
    return {key: value for key, value in kw.items() if value is not None}


def _sweep_row(inst: dict, spec, u, lambda_: float = 0.5, R: float = 0.25) -> dict:
    """One sweep CSV row; u is the solution, or the error that stopped the solve,
    which leaves passed = 0 and nan in the columns that need the solution.  A
    barrier or alpha search that fails leaves passed = 0 and nan alpha and
    theta too, and is the row's "failure" (None otherwise)."""
    nan = float("nan")
    passed, alpha, theta, alpha_hat, resid, failure = False, nan, nan, nan, nan, None
    try:
        bar = barriers.make_subsolution_barrier(spec.params, R)
        adm = scaling.admissible_alpha(spec.params, lambda_, bar.theta)
        theta, alpha = bar.theta, adm.alpha
    except DomainError:
        raise
    except HJHolderError as exc:
        failure = exc
    if failure is None and not isinstance(u, HJHolderError):
        report = oscillation.iterate_scales(u, spec.params, lambda_, theta, alpha)
        passed = report.passed
        try:
            est = _fit_first_center(report, u)
            alpha_hat, resid = est.alpha_hat, est.max_fit_residual
        except HJHolderError:
            pass
    return {
        "p": spec.params.p,
        "A": spec.params.A,
        **{key: float("nan") if inst.get(key) is None else inst[key]
           for key in ("k", "omega", "gamma", "m")},
        "alpha": alpha,
        "theta": theta,
        "passed": passed,
        "alpha_hat": alpha_hat,
        "fit_residual": resid,
        "failure": failure,
    }


def _sweep(base: dict, instances: object, oscillate: dict | None = None, seed: int = 0, *,
           out) -> int:
    """Run a sweep config.  Its instances override the base's equation block
    only, so they share the rest of it and are solved in one batched call."""
    if not isinstance(instances, list) or not instances:
        raise DomainError("sweep config needs a nonempty 'instances' list")
    equation, init, bc, solve_cfg = _build(_base, base, "config.base", where="config.base")
    specs = []
    for i, inst in enumerate(instances):
        if not isinstance(inst, dict):
            raise DomainError(f"sweep instances must be JSON objects, got {inst!r}")
        eq = _build(_override, inst, f"config.instances[{i}]", eq=equation)
        specs.append(_spec(eq, solve_cfg, f"config.instances[{i}].equation"))
    osc = _kwargs(_sweep_row, oscillate or {}, "config.oscillate", ("inst", "spec", "u"))
    n = len(specs)
    solutions = scheme.solve_hj(specs, [init] * n, [bc] * n, solve_cfg)
    results = [_sweep_row(inst, spec, u, **osc)
               for inst, spec, u in zip(instances, specs, solutions)]
    for i, (u, r) in enumerate(zip(solutions, results)):
        for failure in (u, r["failure"]):
            if isinstance(failure, HJHolderError):
                print(f"verification failed: instance {i}: {failure}", file=sys.stderr)
    cols = ["p", "A", "k", "omega", "gamma", "m", "alpha", "theta", "passed",
            "alpha_hat", "fit_residual"]
    rows = [tuple(r[c] for c in cols) for r in results]
    n_pass = sum(1 for r in results if r["passed"])
    _write_csv(out, [("seed", seed), ("instances", n), ("pass_rate", n_pass / n)], cols, rows)
    print(f"{n_pass}/{n} instances passed")
    return 0 if n_pass == n else 1


def _cmd_sweep(args) -> int:
    return _build(_sweep, _load_config(args.config), "config", out=args.out)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _finite(text: str) -> float:
    """The value of a number flag: nan and +-inf exit 2 like any other bad value."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="hjholder",
        description="Verify explicit barriers, constants and oscillation decay "
        "for coercive Hamilton-Jacobi equations at desk scale.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("legendre", help="closed-form Legendre transform vs brute force")
    sp.add_argument("--p", type=_finite, required=True)
    sp.add_argument("--A", type=_finite, required=True)
    sp.set_defaults(func=_cmd_legendre)

    sp = sub.add_parser("constants", help="constant systems from the proofs")
    csub = sp.add_subparsers(dest="which", required=True)
    fo = csub.add_parser("first-order", help="(T, theta, eps) for the first-order lemma")
    fo.add_argument("--p", type=_finite, required=True)
    fo.add_argument("--A", type=_finite, required=True)
    fo.set_defaults(func=_cmd_constants)

    sp = sub.add_parser("barrier", help="barrier residual certificates")
    bsub = sp.add_subparsers(dest="which", required=True)
    bv = bsub.add_parser("verify", help="residual scan for a barrier")
    bv.add_argument("--kind", choices=["super", "sub"], required=True)
    bv.add_argument("--p", type=_finite, required=True)
    bv.add_argument("--A", type=_finite, required=True)
    bv.add_argument("--d", type=int, default=1)
    bv.add_argument("--eta", type=_finite, default=1.0)
    bv.add_argument("--R", type=_finite, default=0.25)
    bv.add_argument("--nx", type=int, default=65)
    bv.add_argument("--nt", type=int, default=65)
    bv.set_defaults(func=_cmd_barrier)

    sp = sub.add_parser("solve", help="run the finite-difference solver from a JSON config")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("oscillate", help="measure oscillation decay on a stored solution")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--lambda", dest="lam", type=_finite, default=0.5)
    sp.add_argument("--theta", type=_finite, default=0.05)
    sp.add_argument("--alpha", type=_finite, default=None)
    sp.add_argument("--p", type=_finite, default=3.0)
    sp.add_argument("--A", type=_finite, default=1.0)
    sp.add_argument("--m", type=_finite, default=None)
    sp.add_argument("--r0", type=_finite, default=1.0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_oscillate)

    sp = sub.add_parser("modulus", help="two-point Holder modulus check")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--alpha", type=_finite, required=True)
    sp.add_argument("--C", type=_finite, required=True)
    sp.add_argument("--p", type=_finite, required=True)
    sp.add_argument("--pairs", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_modulus)

    sp = sub.add_parser("scale", help="scaling factors, delta, beta window, admissible alpha")
    sp.add_argument("--p", type=_finite, required=True)
    sp.add_argument("--m", type=_finite, default=None)
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--alpha", type=_finite, default=None)
    sp.add_argument("--lambda", dest="lam", type=_finite, default=0.5)
    sp.add_argument("--theta", type=_finite, default=0.1)
    sp.set_defaults(func=_cmd_scale)

    sp = sub.add_parser("demo", help="end-to-end demonstrations")
    dsub = sp.add_subparsers(dest="which", required=True)
    dp = dsub.add_parser("sees-points", help="a single low bottom point caps the solution")
    dp.add_argument("--p", type=_finite, default=3.0)
    dp.add_argument("--A", type=_finite, default=2.0)
    dp.add_argument("--out-dir", default="demo_out")
    dp.set_defaults(func=_cmd_demo)

    sp = sub.add_parser("sweep", help="run a parameter sweep from a JSON config")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_sweep)

    return ap


def run(argv) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed standard output shows here
        return code
    except BrokenPipeError:  # the reader of standard output went away, as `| head` does
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # so the flush at exit writes nowhere
        os.close(devnull)
        return 1
    except (DomainError, OSError, MemoryError) as exc:  # MemoryError: an input too large
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except HJHolderError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
