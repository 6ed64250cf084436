"""Compare this checkout's CLI output with a parent checkout's, case by case.

    BASE=<parent commit> python .github/parity.py PARENT_CHECKOUT

Each case runs `python -m hjholder.cli ARGV` from both trees, in a directory
of its own, and compares standard output with the exit code appended, and
every file the case writes.  A case that differs passes only when the diff of
CHANGES.md from $BASE (default HEAD^) to HEAD adds a line holding
`ci-output-changed: <case>` as a whole word, so a declaration covers only the
change that adds it.  A missing output file fails, declared or not.
"""
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

BASE = {"equation": {"p": 3.0, "A": 2.0, "coefficient": {"kind": "rough", "k": 10.0, "omega": 7.0},
                     "diffusion": {"kind": "trace", "scale": 0.01}},
        "initial": {"kind": "windowed", "level": 0.5, "amplitude": 0.3, "k": 1.5, "phase": 0.7},
        "boundary": {"kind": "frozen_initial"}}
GRID_1D = {"xmin": [-2.0], "xmax": [2.0], "nx": [257], "t1": 1.5, "nt": 49}
GRID_2D = {"xmin": [-1.0, -1.0], "xmax": [1.0, 1.0], "nx": [41, 33], "t1": 0.5, "nt": 9}
FORCING = {"kind": "inverse_power", "strength": 0.4, "gamma": 0.4, "center": [0.3, 0.0]}


def config(grid, **equation):
    """The base config on grid, with the given equation entries replaced."""
    return {"equation": {**BASE["equation"], **equation}, "grid": grid,
            "initial": BASE["initial"], "boundary": BASE["boundary"]}


def solve(cfg):
    return ["solve", "--config", cfg, "--out", "u.hjg"], ["u.hjg"]


# name: (argv, files it writes); a dict in argv is written to config.json.
# No workload runs the trace-diffusion step, in 1-D or on a 2-D grid, nor
# batches rows through it, where each row's B multiplies whole rows of the flat
# block.  Every workload grid has power-of-two spacings, which the stencil
# applies as multiplies; the m- solve keeps its divides (spacings 2/24 and
# 1.9/20).  p = 2 and p = 4 power by the exponents 1 and 2, which ndarray **
# number special-cases; the sweep puts them in one block beside others.
CASES = {
    "demo": (["demo", "sees-points", "--p", "3", "--A", "2", "--out-dir", "."],
             ["sees_points.csv", "sees_points.svg"]),
    "trace_2d": solve(config(GRID_2D, forcing=FORCING)),
    "trace_1d": solve(config(GRID_1D)),
    "m_minus_2d": solve(config({**GRID_2D, "xmin": [-1.0, -0.8], "xmax": [1.0, 1.1], "nx": [25, 21]},
                               p=3.5, diffusion={"kind": "extremal", "sign": "minus", "coeff": 0.01},
                               forcing=FORCING)),
    "trace_1d_p4": solve(config(GRID_1D, p=4.0, A=3.0)),
    "m_plus_2d_p2": solve(config(GRID_2D, p=2.0, diffusion={"kind": "extremal", "sign": "plus", "coeff": 0.01},
                                 forcing=FORCING)),
    # the defaults that follow the grid's axes: the forcing's centre is the
    # origin, and a sweep's x0 is 1.3 on axis 0 and 0 on the other.  The
    # sweep writes its CSV to standard output; the solve compares standard
    # output only, as a parent that exits 2 on it writes no grid to compare
    "inverse_power_2d_default_center": (solve(config(GRID_2D, forcing={
        "kind": "inverse_power", "strength": 0.4, "gamma": 0.4}))[0], []),
    "sweep_2d_default_x0": (["sweep", "--config", {"base": config(
        {"xmin": [-2.0, -2.0], "xmax": [2.0, 2.0], "nx": [33, 33], "t1": 1.5, "nt": 9}),
        "instances": [{"gamma": 0.3}, {"p": 2.5, "gamma": 0.4, "x0": [1.3, 0.0]}]}], []),
    "trace_sweep_1d": (["sweep", "--config", {"base": config(GRID_1D), "instances": [
        {"p": 3.0}, {"p": 2.7, "k": 5.0, "omega": 3.0}, {"p": 3.6, "k": 8.0, "omega": 6.0},
        {"p": 2.0}, {"p": 4.0, "A": 3.0}]}, "--out", "sweep.csv"], ["sweep.csv"]),
    # no workload runs `scale`: beta_window skipped at p <= 2, p(m-1) <= d and
    # no positive alpha; the last two exit 1
    "scale_d2": ("scale --p 3 --m 2 --d 2 --alpha 0.3".split(), []),
    "scale_d1": ("scale --p 2.5 --m 3 --alpha 0.1".split(), []),
    "scale_p_le_2": ("scale --p 1.5 --m 3 --d 2 --alpha 0.2".split(), []),
    "scale_pm_le_d": ("scale --p 3 --m 1.3 --d 2".split(), []),
    "scale_no_alpha": ("scale --p 3 --theta 1e-6".split(), []),
    "constants_first_order": ("constants first-order --p 3 --A 2".split(), []),
    "legendre_p1_2": ("legendre --p 1.2 --A 1".split(), []),
    "legendre_p2_5": ("legendre --p 2.5 --A 1e-3".split(), []),
    "legendre_p6": ("legendre --p 6 --A 0.7".split(), []),
    # legendre_brute scores a whole half-line, not a bracket, where p' is
    # near 1, where p = 50 flattens the scores below their rounding bound,
    # and where a coarse score overflows (exit 1); an infinite window exits 1
    "legendre_p1e6": ("legendre --p 1e6 --A 1".split(), []),
    "legendre_p50": ("legendre --p 50 --A 1e-5".split(), []),
    "legendre_window_overflow": ("legendre --p 3 --A 1e-300".split(), []),
    "legendre_inf_window": ("legendre --p 1.0000001 --A 1".split(), []),
    # linspace's sample rule at its extremes: every window |q| >= 0.5 of the
    # first is so narrow that its step underflows to 0, until |q| = 0 gives a
    # radius of 0; the first window of the second has a 2R that overflows.
    # Neither can be sampled (exit 1)
    "legendre_zero_step": ("legendre --p 1.5 --A 1e161".split(), []),
    "legendre_2r_overflow": ("legendre --p 2 --A 1e-307".split(), []),
    # the benchmark's barrier searches in 2-D, at its p = 3, A = 2
    "barrier_super_d2": ("barrier verify --kind super --p 3 --A 2 --eta 1 --d 2".split(), []),
    "barrier_sub_d2": ("barrier verify --kind sub --p 3 --A 2 --R 0.25 --d 2".split(), []),
}
# the benchmark runs 100,000 random pairs at two seeds and four legendre argvs;
# these pair counts sit on both sides of the 8,192-pair chunk edge and span 31
# chunks.  Both trees read this checkout's trace grids: ../../change/<case> is
# the same directory from either side.
for dim in ("1d", "2d"):
    for pairs in (1, 8191, 8193, 250001):
        for seed in (0, 11):
            CASES[f"modulus_{dim}_{pairs}_s{seed}"] = (
                ["modulus", "--in", f"../../change/trace_{dim}/u.hjg", "--alpha", "0.01", "--C", "2.0",
                 "--p", "3", "--pairs", str(pairs), "--seed", str(seed), "--out", "mod.csv"], ["mod.csv"])
    # the benchmark's oscillate arguments; the 2-D grid's time extent of 0.5
    # needs an outer radius below 1
    CASES[f"oscillate_{dim}"] = (
        ["oscillate", "--in", f"../../change/trace_{dim}/u.hjg", "--lambda", "0.6", "--theta", "0.006",
         "--p", "3", "--A", "2", *(["--r0", "0.5"] if dim == "2d" else []), "--out", "osc.csv"], ["osc.csv"])


def run(tree: Path, where: Path, argv: list) -> None:
    """Run the CLI of tree in the new directory where; standard output and
    the exit code go to where/stdout."""
    where.mkdir(parents=True)
    argv = list(argv)
    for i, arg in enumerate(argv):
        if isinstance(arg, dict):
            (where / "config.json").write_text(json.dumps(arg))
            argv[i] = "config.json"
    proc = subprocess.run([sys.executable, "-m", "hjholder.cli", *argv], cwd=where, stdout=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": str(tree / "src")})
    (where / "stdout").write_bytes(proc.stdout + b"exit %d\n" % proc.returncode)


def outputs_equal(parent: Path, change: Path, files: list):
    """Whether the two directories hold equal files; None if one is missing."""
    paths = [(parent / f, change / f) for f in ["stdout", *files]]
    if not all(p.is_file() and c.is_file() for p, c in paths):
        return None
    return all(p.read_bytes() == c.read_bytes() for p, c in paths)


def verdict(case: str, equal, added: list) -> tuple:
    """(passed, message) for a case whose outputs are equal, differ (False) or
    lack a file (None), given the lines the change adds to CHANGES.md."""
    if equal is None:
        return False, f"{case}: an output file is missing"
    if equal:
        return True, f"{case}: equal"
    declared = re.compile(rf"(?<!\w)ci-output-changed: {re.escape(case)}(?!\w)")
    if any(declared.search(line) for line in added):
        return True, f"{case}: differs from the parent's, declared in CHANGES.md"
    return False, f"{case}: differs from the parent's; undeclared (ci-output-changed: {case})"


def main(parent: Path) -> int:
    here = Path(__file__).resolve().parents[1]
    diff = subprocess.run(["git", "diff", os.environ.get("BASE", "HEAD^"), "HEAD", "--", "CHANGES.md"],
                          cwd=here, check=True, stdout=subprocess.PIPE, text=True).stdout
    added = [line for line in diff.splitlines() if line.startswith("+") and not line.startswith("+++ ")]
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for case, (argv, files) in CASES.items():
            sides = [Path(tmp, side, case) for side in ("parent", "change")]
            run(parent, sides[0], argv)
            run(here, sides[1], argv)
            passed, message = verdict(case, outputs_equal(*sides, files), added)
            print(message, flush=True)
            failed += not passed
    print(f"{len(CASES) - failed} of {len(CASES)} cases pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1]).resolve()))
