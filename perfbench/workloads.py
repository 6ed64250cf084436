"""Seeded inputs and timed passes of the three benchmark workloads.

Every input is made from the workload seed here; hjholder sees only the
generated config files, the grid files its own `solve` writes, and plain
arguments.  A pass is a list of operations, each a call into the package
through `hjholder.cli.run(argv)` or a public function.  Each operation
returns its exit code and a digest of its outputs, so a pass can be checked
against an earlier pass, an earlier commit or the stored reference.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
from typing import Callable, NamedTuple

import numpy as np

DEFAULT_SEED = 0
WORKLOADS = ("sweep_1d", "solve_2d", "certify")

# The README solve config: 1-D, 513 nodes x 97 output slices, rough
# coefficient a = 1 + sin(10x) sin(7t)/2, m+ diffusion 2e-5, forcing
# 0.4 |x - 1.3|^-0.4 and windowed initial data.
README_SOLVE = {
    "seed": 0,
    "equation": {
        "p": 3.0, "A": 2.0, "d": 1,
        "coefficient": {"kind": "rough", "k": 10.0, "omega": 7.0},
        "diffusion": {"kind": "extremal", "sign": "plus", "coeff": 2e-5},
        "forcing": {"kind": "inverse_power", "strength": 0.4, "gamma": 0.4, "center": 1.3},
        "shift": 0.0,
    },
    "grid": {"xmin": [-2.0], "xmax": [2.0], "nx": [513], "t0": 0.0, "t1": 1.5, "nt": 97, "cfl": 0.8},
    "initial": {"kind": "windowed", "level": 0.5, "amplitude": 0.3, "k": 1.5, "phase": 0.7},
    "boundary": {"kind": "frozen_initial"},
}


def _solve_2d_config() -> dict:
    """The 2-D analogue of the README config: 129^2 nodes x 33 slices on [-2, 2]^2."""
    cfg = copy.deepcopy(README_SOLVE)
    cfg["equation"]["d"] = 2
    cfg["equation"]["forcing"]["center"] = [1.3, 0.0]
    cfg["grid"] = {"xmin": [-2.0, -2.0], "xmax": [2.0, 2.0], "nx": [129, 129],
                   "t0": 0.0, "t1": 1.5, "nt": 33, "cfl": 0.8}
    return cfg


SOLVE_2D = _solve_2d_config()

SWEEP_DRAWN = 5
SWEEP_OSCILLATE = {"lambda": 0.5, "R": 0.25}
# Drawn instances that carry a singular forcing: rank of their p among the
# five -> (m, range of gamma), with gamma * m < 1.  Fixed ranks and narrow
# gamma ranges keep a sweep's substeps steady from seed to seed, because the
# substeps grow steeply with both p and gamma.
SWEEP_FORCED = {1: (2, (0.28, 0.32)), 3: (3, (0.13, 0.17))}

# certify: the checks run on the stored solutions and the certificate grid
OSCILLATE_ARGS = ["--lambda", "0.6", "--theta", "0.006", "--p", "3", "--A", "2"]
MODULUS_ARGS = ["--alpha", "0.01", "--C", "2.0", "--p", "3"]
BARRIER_P = (2.5, 3.0, 4.0)
BARRIER_ETA = (0.1, 1.0)
BARRIER_D = (1, 2)
BARRIER_A = 2.0
BARRIER_R = 0.25
MATRIX_COUNTS = {2: 1000, 3: 1000, 5: 200}
LEGENDRE_PA = ((2.0, 1.0), (3.0, 2.0), (1.5, 0.5), (4.0, 3.0))
EIG_TOL = 1e-9


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _stratified(rng, n, lo, hi):
    """One uniform draw from each of n equal strata of [lo, hi], in random order.

    Latin-hypercube draws keep the total solver work of a sweep nearly the
    same from seed to seed while every instance still varies.
    """
    u = (rng.permutation(n) + rng.random(n)) / n
    return [round(float(lo + (hi - lo) * v), 4) for v in u]


def sweep_instances(seed: int) -> list:
    """The README instance {p: 3, A: 2} plus five drawn inside the hypotheses.

    p in [2.5, 4], A in [2, 3] (so a = 1 + sin/2 stays in [1/A, A]),
    k in [3, 12] and omega in [2, 9].  The instances whose p has a rank in
    SWEEP_FORCED also carry a forcing exponent gamma and its m.
    """
    rng = _rng(seed, 1)
    n = SWEEP_DRAWN
    p = _stratified(rng, n, 2.5, 4.0)
    A = _stratified(rng, n, 2.0, 3.0)
    k = _stratified(rng, n, 3.0, 12.0)
    omega = _stratified(rng, n, 2.0, 9.0)
    rank = [int(r) for r in np.argsort(np.argsort(p))]
    out = [{"p": 3.0, "A": 2.0}]
    for i in range(n):
        inst = {"p": p[i], "A": A[i], "k": k[i], "omega": omega[i]}
        if rank[i] in SWEEP_FORCED:
            m, gamma_range = SWEEP_FORCED[rank[i]]
            inst["m"] = m
            inst["gamma"] = round(float(rng.uniform(*gamma_range)), 4)
        out.append(inst)
    return out


def sweep_config(seed: int) -> dict:
    return {"seed": seed, "base": copy.deepcopy(README_SOLVE),
            "instances": sweep_instances(seed), "oscillate": dict(SWEEP_OSCILLATE)}


def random_matrices(seed: int) -> dict:
    """Symmetric standard-normal matrices, MATRIX_COUNTS[d] of each size d."""
    rng = _rng(seed, 2)
    out = {}
    for d, n in MATRIX_COUNTS.items():
        x = rng.standard_normal((n, d, d))
        out[d] = 0.5 * (x + np.swapaxes(x, 1, 2))
    return out


def modulus_seeds(seed: int) -> tuple:
    rng = _rng(seed, 3)
    return tuple(int(s) for s in rng.integers(0, 2**31 - 1, size=2))


def generate(workload: str, seed: int) -> dict:
    """Everything a workload's inputs are made from, as plain data."""
    if workload == "sweep_1d":
        return {"sweep": sweep_config(seed)}
    if workload == "solve_2d":
        return {"solve_2d": copy.deepcopy(SOLVE_2D)}
    if workload == "certify":
        return {"solve_1d": copy.deepcopy(README_SOLVE), "solve_2d": copy.deepcopy(SOLVE_2D),
                "matrices": random_matrices(seed), "modulus_seeds": modulus_seeds(seed)}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


class Op(NamedTuple):
    """One call into the package.

    call() is the timed part and returns (exit code, result); outputs(result)
    gives the bytes that make the operation's digest and check(result) any
    extra correctness test, both outside the timed part.
    """

    name: str
    call: Callable
    outputs: Callable
    check: Callable | None = None


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _file_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _cli_call(hj, argv):
    """Run the CLI in-process; its stdout is the result, stderr is dropped."""

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = hj.cli.run(argv)
        return code, out.getvalue()

    return call


def _cli_files_op(name, hj, argv, files):
    """A CLI call whose outputs are the files it writes."""
    return Op(name, _cli_call(hj, argv), lambda _out: [_file_bytes(f) for f in files])


def _cli_stdout_op(name, hj, argv):
    """A CLI call whose output is what it prints."""
    return Op(name, _cli_call(hj, argv), lambda out: [out])


def readme_spec(hj, cfg: dict, dx_min: float):
    """The HamiltonianSpec of a README-style config, built from public constructors."""
    eq = cfg["equation"]
    coef = eq["coefficient"]
    forcing = eq["forcing"]
    return hj.HamiltonianSpec(
        params=hj.EquationParams(p=eq["p"], A=eq["A"], d=eq["d"]),
        coefficient=hj.instances.rough_coefficient(k=coef["k"], omega=coef["omega"]),
        diffusion=hj.ExtremalDiffusion(1, eq["diffusion"]["coeff"]),
        forcing=hj.instances.inverse_power_forcing(
            strength=forcing["strength"], gamma=forcing["gamma"],
            center=forcing["center"], cap_radius=dx_min),
        shift=eq["shift"],
    )


def _residual_op(name, hj, grid_file, cfg, side):
    """The worst node of discrete_residual; its values are the output."""

    def call():
        u = hj.load_grid(grid_file)
        return 0, hj.discrete_residual(u, readme_spec(hj, cfg, min(u.spacing_x)), side)

    def outputs(rep):
        return ["%r %.17g %.17g %r %r %.17g" % (rep.side, rep.worst_value, rep.violation,
                                                rep.node_index, rep.coords, rep.time)]

    return Op(name, call, outputs)


def _m_pm_op(name, hj, mats, expected):
    """m+ and m- of every matrix, checked against the eigvalsh oracle."""

    def call():
        return 0, np.array([[hj.extremal.m_plus(x), hj.extremal.m_minus(x)] for x in mats])

    def check(vals):
        return bool(np.all(np.abs(vals - expected) <= EIG_TOL * (1.0 + np.abs(expected))))

    return Op(name, call, lambda vals: [vals.tobytes()], check)


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)


def write_inputs(workload: str, seed: int) -> dict:
    """Generate the workload's inputs and write its config files here."""
    inputs = generate(workload, seed)
    for key in ("sweep", "solve_1d", "solve_2d"):
        if key in inputs:
            _write_json(f"{key}.json", inputs[key])
    return inputs


def setup_ops(workload: str, hj, inputs: dict) -> list:
    """Set-up calls into the package: certify produces its stored solutions."""
    if workload != "certify":
        return []
    return [_cli_files_op(f"setup.solve.{tag}", hj,
                          ["solve", "--config", f"solve_{tag}.json", "--out", f"u{tag}.hjg"],
                          [f"u{tag}.hjg"])
            for tag in ("1d", "2d")]


def pass_ops(workload: str, hj, inputs: dict) -> list:
    """The operations of one timed pass, in order."""
    if workload == "sweep_1d":
        return [_cli_files_op("sweep", hj, ["sweep", "--config", "sweep.json", "--out", "sweep.csv"],
                              ["sweep.csv"])]
    if workload == "solve_2d":
        return [_cli_files_op("solve", hj, ["solve", "--config", "solve_2d.json", "--out", "u.hjg"],
                              ["u.hjg"])]
    ops = []
    for tag, mseed in zip(("1d", "2d"), inputs["modulus_seeds"]):
        grid, cfg = f"u{tag}.hjg", inputs[f"solve_{tag}"]
        ops.append(_cli_files_op(f"oscillate.{tag}", hj,
                                 ["oscillate", "--in", grid, *OSCILLATE_ARGS, "--out", f"osc_{tag}.csv"],
                                 [f"osc_{tag}.csv"]))
        ops.append(_cli_files_op(f"modulus.{tag}", hj,
                                 ["modulus", "--in", grid, *MODULUS_ARGS, "--seed", str(mseed),
                                  "--out", f"mod_{tag}.csv"],
                                 [f"mod_{tag}.csv"]))
        for side in ("sub", "super"):
            ops.append(_residual_op(f"residual.{side}.{tag}", hj, grid, cfg, side))
    common = ["--A", str(BARRIER_A)]
    for p in BARRIER_P:
        for d in BARRIER_D:
            for eta in BARRIER_ETA:
                ops.append(_cli_stdout_op(
                    f"barrier.super.p{p:g}.eta{eta:g}.d{d}", hj,
                    ["barrier", "verify", "--kind", "super", "--p", str(p), *common,
                     "--eta", str(eta), "--d", str(d)]))
            ops.append(_cli_stdout_op(
                f"barrier.sub.p{p:g}.d{d}", hj,
                ["barrier", "verify", "--kind", "sub", "--p", str(p), *common,
                 "--R", str(BARRIER_R), "--d", str(d)]))
    for d, mats in inputs["matrices"].items():
        ev = np.linalg.eigvalsh(mats)
        expected = np.stack([np.maximum(ev[:, -1], 0.0), np.minimum(ev[:, 0], 0.0)], axis=1)
        ops.append(_m_pm_op(f"m_pm.d{d}", hj, mats, expected))
    for p, A in LEGENDRE_PA:
        ops.append(_cli_stdout_op(f"legendre.p{p:g}.A{A:g}", hj,
                                  ["legendre", "--p", str(p), "--A", str(A)]))
    return ops
