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
import json
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


def _section(cfg: dict, key: str, default=None) -> dict:
    """A JSON object inside a config; DomainError when it is something else."""
    value = cfg.get(key, {} if default is None else default)
    if not isinstance(value, dict):
        raise DomainError(f"config entry {key!r} must be a JSON object, got {value!r}")
    return value


def _equation_from_config(cfg: dict, dx_min: float):
    eq = _section(cfg, "equation")
    m = eq.get("m")
    params = EquationParams(
        p=as_number(eq.get("p", 3.0), "equation.p"),
        A=as_number(eq.get("A", 1.0), "equation.A"),
        eps=as_number(eq.get("eps", 0.0), "equation.eps"),
        d=as_number(eq.get("d", 1), "equation.d", integral=True),
        m=None if m is None else as_number(m, "equation.m"),
    )
    coeff_cfg = _section(eq, "coefficient", {"kind": "constant", "value": 1.0})
    kind = coeff_cfg.get("kind", "constant")
    if kind == "constant":
        coefficient = as_number(coeff_cfg.get("value", 1.0), "coefficient.value")
    elif kind == "rough":
        coefficient = instances.rough_coefficient(
            k=as_number(coeff_cfg.get("k", 10.0), "coefficient.k"),
            omega=as_number(coeff_cfg.get("omega", 7.0), "coefficient.omega"),
            base=as_number(coeff_cfg.get("base", 1.0), "coefficient.base"),
            amplitude=as_number(coeff_cfg.get("amplitude", 0.5), "coefficient.amplitude"),
        )
    else:
        raise DomainError(f"unknown coefficient kind {kind!r}")

    diff_cfg = _section(eq, "diffusion", {"kind": "none"})
    kind = diff_cfg.get("kind", "none")
    if kind == "none":
        diffusion = None
    elif kind == "extremal":
        sign = {"plus": 1, "minus": -1, "+": 1, "-": -1}.get(diff_cfg.get("sign", "plus"))
        if sign is None:
            raise DomainError(f"bad extremal sign {diff_cfg.get('sign')!r}")
        diffusion = scheme.ExtremalDiffusion(
            sign, as_number(diff_cfg.get("coeff", 0.0), "diffusion.coeff"))
    elif kind == "trace":
        scale = as_number(diff_cfg.get("scale", 1.0), "diffusion.scale")
        diffusion = scheme.TraceDiffusion(scale * np.eye(params.d))
    else:
        raise DomainError(f"unknown diffusion kind {kind!r}")

    f_cfg = _section(eq, "forcing", {"kind": "none"})
    kind = f_cfg.get("kind", "none")
    if kind == "none":
        forcing = None
    elif kind == "constant":
        forcing = as_number(f_cfg.get("value", 0.0), "forcing.value")
    elif kind == "inverse_power":
        forcing = instances.inverse_power_forcing(
            strength=as_number(f_cfg.get("strength", 0.5), "forcing.strength"),
            gamma=as_number(f_cfg.get("gamma", 0.4), "forcing.gamma"),
            center=[as_number(c, "forcing.center")
                    for c in np.atleast_1d(f_cfg.get("center", 0.0)).tolist()],
            cap_radius=as_number(f_cfg.get("cap_radius", dx_min), "forcing.cap_radius"),
        )
    else:
        raise DomainError(f"unknown forcing kind {kind!r}")

    return scheme.HamiltonianSpec(
        params=params,
        coefficient=coefficient,
        diffusion=diffusion,
        forcing=forcing,
        shift=as_number(eq.get("shift", 0.0), "equation.shift"),
    )


def _grid_from_config(cfg: dict) -> scheme.SolveConfig:
    if "grid" not in cfg:
        raise DomainError("config needs a 'grid' block")
    g = _section(cfg, "grid")
    missing = [key for key in ("xmin", "xmax", "nx") if key not in g]
    if missing:
        raise DomainError(f"grid block needs {', '.join(map(repr, missing))}")
    return scheme.SolveConfig(
        xmin=g["xmin"],
        xmax=g["xmax"],
        nx=g["nx"],
        t0=g.get("t0", 0.0),
        t1=g.get("t1", 1.0),
        nt=g.get("nt", 65),
        cfl=g.get("cfl", 0.8),
        lf_alpha_cap=g.get("lf_alpha_cap"),
        lf_alpha_floor=g.get("lf_alpha_floor", 0.0),
    )


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DomainError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise DomainError(f"config {path} must hold a JSON object, got {type(cfg).__name__}")
    return cfg


def _problem_from_config(cfg: dict):
    """(spec, init, bc, solve_cfg) of a solve described by a JSON config."""
    solve_cfg = _grid_from_config(cfg)
    spec = _equation_from_config(cfg, min(solve_cfg.spacings()))
    init_cfg = dict(_section(cfg, "initial", {"kind": "constant", "value": 0.5}))
    init = instances.initial_profile(init_cfg.pop("kind", None), **init_cfg)
    bc_cfg = dict(_section(cfg, "boundary", {"kind": "frozen_initial"}))
    bc = instances.boundary_profile(bc_cfg.pop("kind", None), init=init, **bc_cfg)
    return spec, init, bc, solve_cfg


def solve_from_config(cfg: dict):
    """Build and run a solve described by a JSON config; returns (u, spec, solve_cfg)."""
    spec, init, bc, solve_cfg = _problem_from_config(cfg)
    return scheme.solve_hj(spec, init, bc, solve_cfg), spec, solve_cfg


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_legendre(args) -> int:
    lag = variational.legendre_closed(args.p, args.A, args.shift)
    qs = np.linspace(-10.0, 10.0, 41)
    dev = 0.0
    brute_at = {}  # |q| -> brute-force value: the oracle and its window depend only on |q|
    for q in qs:
        r = abs(q)
        if r not in brute_at:
            with np.errstate(over="ignore"):  # an infinite window fails in the oracle
                radius = 2.0 * (max(r, 1e-3) / (args.p * args.A)) ** (1.0 / (args.p - 1.0))
            brute_at[r] = variational.legendre_brute(args.p, args.A, args.shift, q, radius,
                                                     200_001)
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
    ok = min(m1, m2, m3) >= 0.0
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_barrier(args) -> int:
    grid = barriers.VerificationGrid(nx=args.nx, nt=args.nt)
    params = EquationParams(p=args.p, A=args.A, d=args.d)
    if args.kind == "super":
        C, eps0 = barriers.find_supersolution_constants(params, args.eta, grid)
        bar = barriers.SupersolutionBarrier(C, args.eta, params)
        rho, t = np.meshgrid(grid.radii(args.d), grid.times(), indexing="ij")
        res = barriers._super_residual_radial(bar, rho, t, args.eta * eps0, args.d)
        k = int(np.argmin(res))
        worst = float(res.ravel()[k])
        i, j = np.unravel_index(k, res.shape)
        print(f"C = {C:.12g}")
        print(f"eps0 = {eps0:.12g}")
        print(f"worst_residual = {worst:.6e} (want >= -1e-10)")
        print(f"worst_node = (|x| = {grid.radii(args.d)[i]:.6g}, t = {grid.times()[j]:.6g})")
        ok = worst >= -barriers.RESIDUAL_TOL
    else:
        bar = barriers.make_subsolution_barrier(params, args.R, grid)
        rho, t = np.meshgrid(grid.radii(args.d), grid.times(), indexing="ij")
        res = barriers._sub_residual_radial(bar, params, rho, t, args.d)
        k = int(np.argmax(res))
        worst = float(res.ravel()[k])
        i, j = np.unravel_index(k, res.shape)
        print(f"C_b = {bar.C_b:.12g}")
        print(f"theta = {bar.theta:.12g}")
        print(f"eps = {bar.eps:.12g}")
        print(f"worst_residual = {worst:.6e} (want <= 1e-10)")
        print(f"worst_node = (|x| = {grid.radii(args.d)[i]:.6g}, t = {grid.times()[j]:.6g})")
        ok = worst <= barriers.RESIDUAL_TOL
    print(f"grid = {args.nx} radii x {args.nt} times on |x| <= {grid.x_max}, "
          f"t in [{grid.t_min:g}, {grid.t_max:g}] (no statement between nodes)")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    u, _, _ = solve_from_config(cfg)
    save_grid(u, args.out)
    print(f"wrote {args.out}: shape {u.values.shape}, "
          f"range [{u.values.min():.6g}, {u.values.max():.6g}]")
    return 0


def _cmd_oscillate(args) -> int:
    u = load_grid(args.infile)
    params = EquationParams(p=args.p, A=args.A, d=u.dim, m=args.m)
    if args.alpha is not None:
        alpha = args.alpha
    else:
        alpha = scaling.admissible_alpha(args.p, args.m, u.dim, args.lam, args.theta).alpha
    report = oscillation.iterate_scales(
        u, params, args.lam, args.theta, alpha, r0=args.r0,
    )
    rows = []
    for cit in report.centers:
        for lv in cit.levels:
            rows.append((cit.center[0], lv.level, lv.r, lv.osc, lv.bound, lv.ok))
    header = [
        ("alpha", alpha),
        ("beta", report.beta),
        ("lambda", args.lam),
        ("theta", args.theta),
        ("implied_C", report.implied_constant if report.passed else float("nan")),
        ("note", report.note),
    ]
    _write_csv(args.out, header, ["center_x", "level", "r", "osc", "bound", "pass"], rows)
    try:
        est = oscillation.fit_holder(report.centers[0].samples,
                                     min_radius=4 * max(u.spacing_x))
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
    ok = rep.max_ratio <= 1.0 + args.slack
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_scale(args) -> int:
    ok = True
    if args.m is not None:
        delta0 = scaling.delta_exponent(args.p, args.m, args.d, 0.0)
        print(f"delta(alpha=0) = {delta0:.12g}")
        print(f"lm_scaling_exponent = {scaling.lm_scaling_exponent(args.p, args.m, args.d):.12g}")
        if args.p > 2.0:
            lo, hi, nonempty = scaling.beta_window(args.p, args.m, args.d)
            print(f"beta_window = ({lo:.12g}, {hi:.12g}) nonempty = {nonempty}")
            ok = ok and nonempty
        if args.alpha is not None:
            print(f"delta(alpha={args.alpha:g}) = "
                  f"{scaling.delta_exponent(args.p, args.m, args.d, args.alpha):.12g}")
    if args.alpha is not None:
        rep = scaling.calpha_scale(0.5, args.alpha, args.p, EquationParams(args.p, 1.0, d=args.d, m=args.m))
        print(f"diffusion_factor(r=1/2) = {rep.diff_coeff_factor:.12g}")
        print(f"rhs_factor(r=1/2) = {rep.rhs_factor:.12g}")
    try:
        adm = scaling.admissible_alpha(args.p, args.m, args.d, args.lam, args.theta)
        print(f"admissible_alpha = {adm.alpha:.12g} (binding: {adm.binding()})")
    except Infeasible as exc:
        print(f"admissible_alpha: infeasible ({exc})")
        ok = False
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _demo_solve(p, A, eps, init, nx=129, nt=65, half_width=1.0):
    params = EquationParams(p=p, A=A, eps=eps, d=1)
    spec = scheme.HamiltonianSpec(
        params=params,
        coefficient=1.0,
        diffusion=scheme.ExtremalDiffusion(1, eps) if eps > 0 else None,
    )
    cfg = scheme.SolveConfig(
        xmin=(-half_width,), xmax=(half_width,), nx=(nx,), t0=0.0, t1=1.0, nt=nt
    )
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


def _sweep_instance_config(base_cfg: dict, inst: dict) -> dict:
    """The solve config of one sweep instance: base with its equation overrides."""
    if not isinstance(inst, dict):
        raise DomainError(f"sweep instances must be JSON objects, got {inst!r}")
    cfg = json.loads(json.dumps(base_cfg))  # deep copy
    eq = cfg["equation"] = _section(cfg, "equation")
    eq["p"] = inst.get("p", eq.get("p", 3.0))
    eq["A"] = inst.get("A", eq.get("A", 2.0))
    if "k" in inst or "omega" in inst:
        eq["coefficient"] = {
            "kind": "rough",
            "k": inst.get("k", 10.0),
            "omega": inst.get("omega", 7.0),
        }
    if inst.get("gamma") is not None:
        eq["forcing"] = {
            "kind": "inverse_power",
            "strength": inst.get("strength", 0.5),
            "gamma": inst["gamma"],
            "center": inst.get("x0", 1.3),
        }
    if inst.get("m") is not None:
        eq["m"] = inst["m"]
    return cfg


def _sweep_row(inst: dict, spec, u, osc_cfg: dict) -> dict:
    """One sweep CSV row; u is the solution, or the error that stopped the solve,
    which leaves passed = 0 and nan in the columns that need the solution."""
    lam = as_number(osc_cfg.get("lambda", 0.5), "oscillate.lambda")
    R = as_number(osc_cfg.get("R", 0.25), "oscillate.R")
    bar = barriers.make_subsolution_barrier(spec.params, R)
    adm = scaling.admissible_alpha(spec.params.p, spec.params.m, spec.params.d, lam, bar.theta)
    passed, alpha_hat, resid = False, float("nan"), float("nan")
    if not isinstance(u, HJHolderError):
        report = oscillation.iterate_scales(u, spec.params, lam, bar.theta, adm.alpha)
        passed = report.passed
        try:
            est = oscillation.fit_holder(report.centers[0].samples,
                                         min_radius=4 * max(u.spacing_x))
            alpha_hat, resid = est.alpha_hat, est.max_fit_residual
        except HJHolderError:
            pass
    return {
        "p": spec.params.p,
        "A": spec.params.A,
        "k": inst.get("k", float("nan")),
        "omega": inst.get("omega", float("nan")),
        "gamma": inst.get("gamma", float("nan")) or float("nan"),
        "m": inst.get("m", float("nan")) or float("nan"),
        "alpha": adm.alpha,
        "theta": bar.theta,
        "passed": passed,
        "alpha_hat": alpha_hat,
        "fit_residual": resid,
    }


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    base = _section(cfg, "base")
    inst_list = cfg.get("instances", [])
    if not isinstance(inst_list, list) or not inst_list:
        raise DomainError("sweep config needs a nonempty 'instances' list")
    osc_cfg = _section(cfg, "oscillate")
    # instances override equation fields only, so they share the base grid,
    # initial and boundary profiles, diffusion and shift: one batched solve
    problems = [_problem_from_config(_sweep_instance_config(base, inst)) for inst in inst_list]
    specs, inits, bcs, solve_cfgs = zip(*problems)
    solutions = scheme.solve_hj(specs, inits, bcs, solve_cfgs[0])
    for i, u in enumerate(solutions):
        if isinstance(u, HJHolderError):
            print(f"verification failed: instance {i}: {u}", file=sys.stderr)
    results = [_sweep_row(inst, spec, u, osc_cfg)
               for inst, spec, u in zip(inst_list, specs, solutions)]
    cols = ["p", "A", "k", "omega", "gamma", "m", "alpha", "theta", "passed",
            "alpha_hat", "fit_residual"]
    rows = [tuple(r[c] for c in cols) for r in results]
    n_pass = sum(1 for r in results if r["passed"])
    header = [("seed", cfg.get("seed", 0)), ("instances", len(results)),
              ("pass_rate", n_pass / len(results))]
    _write_csv(args.out, header, cols, rows)
    print(f"{n_pass}/{len(results)} instances passed")
    return 0 if n_pass == len(results) else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


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
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--A", type=float, required=True)
    sp.add_argument("--shift", type=float, default=0.0)
    sp.set_defaults(func=_cmd_legendre)

    sp = sub.add_parser("constants", help="constant systems from the proofs")
    csub = sp.add_subparsers(dest="which", required=True)
    fo = csub.add_parser("first-order", help="(T, theta, eps) for the first-order lemma")
    fo.add_argument("--p", type=float, required=True)
    fo.add_argument("--A", type=float, required=True)
    fo.set_defaults(func=_cmd_constants)

    sp = sub.add_parser("barrier", help="barrier residual certificates")
    bsub = sp.add_subparsers(dest="which", required=True)
    bv = bsub.add_parser("verify", help="residual scan for a barrier")
    bv.add_argument("--kind", choices=["super", "sub"], required=True)
    bv.add_argument("--p", type=float, required=True)
    bv.add_argument("--A", type=float, required=True)
    bv.add_argument("--d", type=int, default=1)
    bv.add_argument("--eta", type=float, default=1.0)
    bv.add_argument("--R", type=float, default=0.25)
    bv.add_argument("--nx", type=int, default=65)
    bv.add_argument("--nt", type=int, default=65)
    bv.set_defaults(func=_cmd_barrier)

    sp = sub.add_parser("solve", help="run the finite-difference solver from a JSON config")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("oscillate", help="measure oscillation decay on a stored solution")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--lambda", dest="lam", type=float, default=0.5)
    sp.add_argument("--theta", type=float, default=0.05)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--p", type=float, default=3.0)
    sp.add_argument("--A", type=float, default=1.0)
    sp.add_argument("--m", type=float, default=None)
    sp.add_argument("--r0", type=float, default=1.0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_oscillate)

    sp = sub.add_parser("modulus", help="two-point Holder modulus check")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--C", type=float, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--pairs", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--slack", type=float, default=0.0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_modulus)

    sp = sub.add_parser("scale", help="scaling factors, delta, beta window, admissible alpha")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--m", type=float, default=None)
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--lambda", dest="lam", type=float, default=0.5)
    sp.add_argument("--theta", type=float, default=0.1)
    sp.set_defaults(func=_cmd_scale)

    sp = sub.add_parser("demo", help="end-to-end demonstrations")
    dsub = sp.add_subparsers(dest="which", required=True)
    dp = dsub.add_parser("sees-points", help="a single low bottom point caps the solution")
    dp.add_argument("--p", type=float, default=3.0)
    dp.add_argument("--A", type=float, default=2.0)
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
        return args.func(args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HJHolderError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
