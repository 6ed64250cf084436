import argparse
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hjholder import cli, variational
from hjholder.cli import run
from hjholder.core import GridFunction, load_grid, save_grid


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def solve_config(tmp_path, **overrides):
    cfg = {
        "seed": 0,
        "equation": {
            "p": 3.0,
            "A": 2.0,
            "d": 1,
            "coefficient": {"kind": "rough", "k": 10.0, "omega": 7.0},
            "diffusion": {"kind": "extremal", "sign": "plus", "coeff": 2e-5},
        },
        "grid": {"xmin": [-2.0], "xmax": [2.0], "nx": [257], "t0": 0.0, "t1": 1.5, "nt": 49},
        "initial": {"kind": "windowed", "level": 0.5, "amplitude": 0.3, "k": 1.5, "phase": 0.7},
        "boundary": {"kind": "frozen_initial"},
    }
    cfg.update(overrides)
    return write_json(tmp_path / "solve.json", cfg)


class TestExitCodes:
    def test_legendre_pass(self, capsys):
        assert run(["legendre", "--p", "2", "--A", "1"]) == 0
        out = capsys.readouterr().out
        assert "c_p = 0.25" in out
        assert "PASS" in out

    def test_module_entry_point(self):
        rc, out = fresh_process(["legendre", "--p", "2", "--A", "1"], os.environ)
        assert rc == 0
        assert "PASS" in out

    def test_constants_pass(self, capsys):
        assert run(["constants", "first-order", "--p", "2", "--A", "1"]) == 0
        out = capsys.readouterr().out
        assert "T = 4" in out
        assert "theta = 0.03125" in out
        assert "eps = 0.00390625" in out

    def test_scale_pass(self, capsys):
        assert run(["scale", "--p", "3", "--m", "2", "--d", "2"]) == 0
        out = capsys.readouterr().out
        assert "delta(alpha=0) = 0.5" in out
        assert "beta_window = (0.333333333333, 0.5)" in out

    @pytest.mark.parametrize("equation, scale", [({"p": 300}, 10), ({}, 1e307)])
    def test_alpha_overflow_is_a_failed_verification(self, tmp_path, capsys, equation, scale):
        path = solve_config(tmp_path, equation=equation,
                            initial={"kind": "quadratic", "scale": scale},
                            grid={"xmin": [-2], "xmax": [2], "nx": [33], "t1": 0.1, "nt": 5})
        assert run(["solve", "--config", path, "--out", str(tmp_path / "u.hjg")]) == 1
        assert capsys.readouterr().err == (
            "verification failed: stable step 0 below floor 1e-09 at t=0\n")

    def test_non_finite_initial_data_is_bad_input(self, tmp_path, capsys):
        path = solve_config(tmp_path, initial={"kind": "quadratic", "scale": 1e308})
        assert run(["solve", "--config", path, "--out", str(tmp_path / "u.hjg")]) == 2
        assert capsys.readouterr().err == (
            "error: initial data of row 0 is not finite on the grid\n")

    @pytest.mark.parametrize("argv", [
        ["barrier", "verify", "--kind", "sub", "--p", "300", "--A", "2"],
        ["barrier", "verify", "--kind", "sub", "--p", "1e12", "--A", "1", "--nx", "9", "--nt", "9"],
        ["constants", "first-order", "--p", "150", "--A", "2"],
        ["constants", "first-order", "--p", "300", "--A", "2"],
    ])
    def test_far_superquadratic_constants_pass(self, argv, capsys):
        assert run(argv) == 0
        assert capsys.readouterr().out.endswith("PASS\n")

    def test_scale_with_alpha(self, capsys):
        assert run(["scale", "--p", "3", "--m", "2", "--alpha", "0.3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "delta(alpha=0.3) = 1.6" in out
        assert "diffusion_factor(r=1/2) = 0.757858283255" in out
        assert "rhs_factor(r=1/2) = 0.233258247884" in out

    @pytest.mark.parametrize("argv, line", [
        # m too close to 1 + d/p: the L^m theory has no admissible alpha
        (["--p", "3", "--m", "1.3", "--d", "2"],
         "admissible_alpha: infeasible (p(m-1) = 0.9000000000000001 must exceed d = 2 "
         "for the L^m theory)"),
        # theta so small that lambda^alpha >= 1 - theta caps alpha below the grid step
        (["--p", "3", "--theta", "1e-6"],
         "admissible_alpha: infeasible (no positive alpha satisfies "
         "'lambda^alpha >= 1-theta' (cap 1.4427e-06))"),
    ], ids=["lm_theory", "no_positive_alpha"])
    def test_scale_infeasible_is_failure(self, argv, line, capsys):
        assert run(["scale", *argv]) == 1
        out = capsys.readouterr().out.splitlines()
        assert line in out and out[-1] == "FAIL"

    @pytest.mark.parametrize("argv, message", [
        (["constants", "first-order", "--p", "1.001", "--A", "1"], "leave the float range"),
        (["legendre", "--p", "1.001", "--A", "1"], "cannot be sampled"),
        (["constants", "first-order", "--p", "1.0061299927457592", "--A", "0.023464062039672207"],
         "first-order constant system violated"),
        (["constants", "first-order", "--p", "1000", "--A", "2"], "leave the float range"),
        (["legendre", "--p", "1.5", "--A", "1e-300"],
         "the Legendre transform for p=1.5, A=1e-300 leaves the float range (p' = 3)"),
        (["legendre", "--p", "1e17", "--A", "1"],
         "the Legendre transform for p=1e+17, A=1.0 leaves the float range (p' = 1)"),
        (["constants", "first-order", "--p", "1e17", "--A", "1"],
         "first-order constants for p=1e+17, A=1.0 leave the float range (p' = 1)"),
        (["constants", "first-order", "--p", "1.5", "--A", "1e-300"],
         "first-order constants for p=1.5, A=1e-300 leave the float range (p' = 3)"),
        # the first window's width 2R overflows; the window at q = 0 underflows to 0
        (["legendre", "--p", "2", "--A", "1e-307"],
         "the search window |xi| <= 1e+308 cannot be sampled"),
        (["legendre", "--p", "1.5", "--A", "1e161"],
         "the Legendre search window for p=1.5, A=1e+161 leaves the float range"),
    ])
    def test_float_overflow_is_a_failed_verification(self, argv, message, capsys):
        # p' = 1001: 3^{p'} and the Legendre search window overflow a float;
        # at p' = 164 a computed margin rounds to the subnormal -5e-324; at
        # p = 1000 the first-order T is above 2**1023; A^{1-p'} = 1e600
        # overflows, and p' = 1e17 / (1e17 - 1) rounds to 1; for the constants
        # at A = 1e-300, A^{p'-1} underflows and theta would be 0
        assert run(argv) == 1
        captured = capsys.readouterr()
        err = captured.err
        assert err.startswith("verification failed: ")
        assert message in err
        assert "Traceback" not in err
        assert err.count("\n") == 1 and "PASS" not in captured.out

    def test_invalid_args_exit_2(self):
        assert run(["legendre", "--p", "2"]) == 2
        assert run(["nonsense"]) == 2
        assert run(["legendre", "--p", "2", "--A", "1", "--shift", "1"]) == 2
        assert run(["modulus", "--in", "u.hjg", "--alpha", "0.5", "--C", "1", "--p", "3",
                    "--slack", "0.1"]) == 2

    def test_invalid_config_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["solve", "--config", str(bad), "--out", str(tmp_path / "u.hjg")]) == 2

    def test_missing_grid_block_exit_2(self, tmp_path):
        path = write_json(tmp_path / "nogrid.json", {"equation": {"p": 3.0}})
        assert run(["solve", "--config", path, "--out", str(tmp_path / "u.hjg")]) == 2


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def fresh_process(argv, env):
    """Exit code and stdout of `python -m hjholder.cli argv` in a new process."""
    env = dict(env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "hjholder.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout


def test_closed_stdout_is_not_bad_input():
    """A reader that closed the pipe (as `| head` does) ends the run with exit 1,
    no error line and no traceback at exit."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # before the child starts, so its first write fails
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run([sys.executable, "-m", "hjholder.cli", "constants",
                               "first-order", "--p", "300", "--A", "2"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_legendre_overflow_writes_one_stderr_line():
    """A search window whose penalty overflows fails on its edge, and stderr
    holds that one line: no RuntimeWarning and no source line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "hjholder.cli", "legendre", "--p", "3",
                           "--A", "1e-300"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == ("verification failed: maximizer on the window edge; "
                           "|xi*|=1.52753e+150\n")


@pytest.mark.parametrize("A, eta, code, stderr", [
    ("2", "1e-300", 1, "verification failed: no supersolution certificate for p=3.0, "
     "A=2.0, eta=1e-300 within budget; p may be too close to 2 for this grid\n"),
    # s = eta t underflows to 0: s to a negative power divides by zero, 0 * inf is nan
    ("2", "5e-324", 1, "verification failed: no supersolution certificate for p=3.0, "
     "A=2.0, eta=5e-324 within budget; p may be too close to 2 for this grid\n"),
    # |DU|^p / A overflows where |DU| > 0, and the certificate still passes at rho = 0
    ("5e-324", "1", 0, ""),
], ids=["eta_1e-300", "eta_5e-324", "A_5e-324"])
def test_super_barrier_overflow_writes_one_stderr_line(A, eta, code, stderr):
    """Residual terms that overflow or divide by zero are inf or nan, and
    stderr holds at most the failure line: no RuntimeWarning and no source line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "hjholder.cli", "barrier", "verify", "--kind",
                           "super", "--p", "3", "--A", A, "--eta", eta],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code
    assert proc.stderr == stderr


def test_parser_reused_within_a_process(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "100")
    argvs = [
        ["legendre", "--p"],
        ["--help"],
        ["legendre", "--p", "3", "--A", "2"],
        ["barrier", "verify", "--kind", "sub", "--p", "3", "--A", "2", "--nx", "33", "--nt", "33"],
    ]
    in_process = []
    for argv in argvs:
        rc = run(argv)
        in_process.append((rc, capsys.readouterr().out))
    assert [rc for rc, _ in in_process] == [2, 0, 0, 0]
    assert cli._build_parser() is cli._build_parser()
    for argv, got in zip(argvs, in_process):
        assert got == fresh_process(argv, os.environ), argv


def _legendre_stdout_all_q(p, A, shift=0.0):
    """The `legendre` report with the brute-force oracle run at each of the 41 q."""
    lag = variational.legendre_closed(p, A, shift)
    qs = np.linspace(-10.0, 10.0, 41)
    dev = 0.0
    for q in qs:
        radius = 2.0 * (max(abs(q), 1e-3) / (p * A)) ** (1.0 / (p - 1.0))
        brute = variational.legendre_brute(p, A, shift, q, radius, 200_001)
        dev = max(dev, abs(lag(q) - brute))
    ok = dev <= 1e-6
    return (f"c_p = {lag.c_p:.12g}\np_prime = {lag.p_prime:.12g}\n"
            f"oracle_deviation = {dev:.3e} over {len(qs)} values |q| <= 10\n"
            + ("PASS" if ok else "FAIL") + "\n")


@pytest.mark.parametrize("p, A", [(2.0, 1.0), (3.0, 2.0), (1.5, 0.5), (4.0, 3.0)])
def test_legendre_oracle_once_per_abs_q(p, A, monkeypatch, capsys):
    expected = _legendre_stdout_all_q(p, A)
    brute = variational.legendre_brute
    seen = []

    def counted(*args, **kwargs):
        seen.append(abs(args[3]))
        return brute(*args, **kwargs)

    monkeypatch.setattr(variational, "legendre_brute", counted)
    assert run(["legendre", "--p", str(p), "--A", str(A)]) == 0
    assert capsys.readouterr().out == expected
    assert len(seen) == len(set(seen)) == 21


def _number_flags():
    """(subcommand words, flag) of every flag of the CLI that takes a number."""
    found = []

    def walk(parser, words):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(sub, [*words, name])
            elif action.type not in (None, int, str):
                found.append((words, action.option_strings[0]))

    walk(cli._build_parser(), [])
    return found


class TestBadInputExit2:
    """Missing or corrupt inputs exit 2 with one error line and no traceback."""

    def _expect_exit_2(self, argv, capsys):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        return err

    def _grid_file(self, tmp_path):
        path = str(tmp_path / "u.hjg")
        vals = np.linspace(0.0, 1.0, 9 * 5).reshape(9, 5)
        save_grid(GridFunction((-1.0,), (0.25,), 0.0, 0.25, vals), path)
        return path

    def test_missing_grid_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nonexistent.hjg")
        err = self._expect_exit_2(["oscillate", "--in", missing], capsys)
        assert "nonexistent.hjg" in err

    def test_truncated_grid_file(self, tmp_path, capsys):
        path = self._grid_file(tmp_path)
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[:-8])
        err = self._expect_exit_2(["oscillate", "--in", path], capsys)
        assert "8 bytes short" in err

    def test_grid_file_with_trailing_byte(self, tmp_path, capsys):
        path = self._grid_file(tmp_path)
        with open(path, "ab") as fh:
            fh.write(b"\0")
        err = self._expect_exit_2(["modulus", "--in", path, "--alpha", "0.5",
                                   "--C", "1", "--p", "3"], capsys)
        assert "1 bytes after the grid values" in err

    def test_grid_block_without_xmax(self, tmp_path, capsys):
        cfg = solve_config(tmp_path, grid={"xmin": [-1.0], "nx": [33], "nt": 5})
        err = self._expect_exit_2(["solve", "--config", cfg,
                                   "--out", str(tmp_path / "u.hjg")], capsys)
        assert "'xmax'" in err

    def test_m_that_is_not_a_number(self, tmp_path, capsys):
        cfg = solve_config(tmp_path, equation={"p": 3.0, "A": 2.0, "m": "two"})
        err = self._expect_exit_2(["solve", "--config", cfg,
                                   "--out", str(tmp_path / "u.hjg")], capsys)
        assert "'two'" in err

    def _csv_grid_file(self, tmp_path, edit):
        path = str(tmp_path / "u.csv")
        vals = np.linspace(0.0, 1.0, 3 * 2).reshape(3, 2)
        save_grid(GridFunction((-1.0,), (0.5,), 0.0, 0.5, vals), path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        with open(path, "w") as fh:
            fh.write("\n".join(edit(lines)) + "\n")
        return path

    def test_csv_grid_value_not_a_number(self, tmp_path, capsys):
        path = self._csv_grid_file(tmp_path, lambda lines: lines[:-1] + ["abc"])
        err = self._expect_exit_2(["oscillate", "--in", path], capsys)
        assert "'abc' is not a number" in err

    def test_csv_grid_value_count_differs_from_extent(self, tmp_path, capsys):
        path = self._csv_grid_file(tmp_path, lambda lines: lines[:-3])
        err = self._expect_exit_2(["oscillate", "--in", path], capsys)
        assert "3 grid values, but the extent (3, 2) needs 6" in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--C", "-1", "C must be finite and > 0"),
        ("--C", "0", "C must be finite and > 0"),
        ("--alpha", "0", "alpha must lie in (0, 1]"),
        ("--pairs", "-1", "n_random_pairs must be >= 0"),
        ("--pairs", str(2**61), f"n_random_pairs = {2**61}: more than 1152921504606846975"),
        ("--p", "1", "p must be > 1"),
        ("--seed", "-1", "seed must be a non-negative integer, got -1"),
    ])
    def test_modulus_bad_constants(self, tmp_path, capsys, flag, value, message):
        args = {"--alpha": "0.5", "--C": "1", "--p": "3", "--pairs": "100"}
        args[flag] = value
        argv = ["modulus", "--in", self._grid_file(tmp_path)]
        for key, val in args.items():
            argv += [key, val]
        err = self._expect_exit_2(argv, capsys)
        assert message in err

    @pytest.mark.parametrize("size_flags, message", [
        (["--nx", str(2**61)], "grid's nx^1 x nt nodes: more than 1152921504606846975 float64"),
        (["--nt", str(2**61)], "grid's nx^1 x nt nodes: more than 1152921504606846975 float64"),
    ])
    def test_barrier_grid_above_the_address_space(self, capsys, size_flags, message):
        err = self._expect_exit_2(["barrier", "verify", "--kind", "sub", "--p", "3", "--A", "1",
                                   *size_flags], capsys)
        assert message in err and err.count("\n") == 1

    @pytest.mark.parametrize("exc, line", [
        (MemoryError(), "error: out of memory\n"),
        (MemoryError("Unable to allocate 8.00 EiB"), "error: Unable to allocate 8.00 EiB\n"),
    ])
    def test_memory_error_exits_2(self, monkeypatch, capsys, exc, line):
        def exhausted(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli.barriers, "make_subsolution_barrier", exhausted)
        assert run(["barrier", "verify", "--kind", "sub", "--p", "3", "--A", "1"]) == 2
        assert capsys.readouterr().err == line

    @pytest.mark.parametrize("words, flag", _number_flags(),
                             ids=[" ".join([*w, f]) for w, f in _number_flags()])
    def test_number_flags_reject_non_finite(self, capsys, words, flag):
        """Every number flag rejects nan and +-inf (1e400 reads as inf) before
        the command runs, as argparse rejects a value that is not a number."""
        for value in ("nan", "inf", "-inf", "1e400", "two"):
            assert run([*words, f"{flag}={value}"]) == 2
            err = capsys.readouterr().err
            assert f"argument {flag}: expected a finite number, got {value!r}" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("key, value, message", [
        ("nx", [33.5], "grid nx must be a whole number, got 33.5"),
        ("nt", 5.7, "grid nt must be a whole number, got 5.7"),
        ("nt", "five", "grid nt must be a number, got 'five'"),
        ("xmin", ["a"], "grid xmin must be a number"),
    ])
    def test_grid_entry_not_a_count(self, tmp_path, capsys, key, value, message):
        grid = {"xmin": [-1.0], "xmax": [1.0], "nx": [33], "t0": 0.0, "t1": 0.1, "nt": 5}
        grid[key] = value
        cfg = solve_config(tmp_path, grid=grid)
        err = self._expect_exit_2(["solve", "--config", cfg,
                                   "--out", str(tmp_path / "u.hjg")], capsys)
        assert message in err

    @pytest.mark.parametrize("half, spacing", [(1e200, "6.25e+198"), (1e-200, "6.25e-202"),
                                               (1e-160, "6.25e-162")])
    def test_grid_spacing_whose_square_leaves_the_float_range(self, tmp_path, capsys, half, spacing):
        # h**2 overflows, h * h underflows to 0, or 1/(h * h) is inf
        grid = {"xmin": [-half], "xmax": [half], "nx": [33], "t0": 0.0, "t1": 0.1, "nt": 5}
        err = self._expect_exit_2(["solve", "--config", solve_config(tmp_path, grid=grid),
                                   "--out", str(tmp_path / "u.hjg")], capsys)
        assert f"grid spacing {spacing}: 1/spacing^2 is not a finite number > 0" in err

    def test_whole_float_grid_counts_accepted(self, tmp_path):
        outs = []
        for nx, nt in (([33], 5), ([33.0], 5.0)):
            grid = {"xmin": [-1.0], "xmax": [1.0], "nx": nx, "t0": 0.0, "t1": 0.1, "nt": nt}
            out = tmp_path / f"u_{len(outs)}.hjg"
            assert run(["solve", "--config", solve_config(tmp_path, grid=grid),
                        "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_config_that_is_a_list(self, tmp_path, capsys, command):
        cfg = write_json(tmp_path / "cfg.json", [1, 2])
        argv = [command, "--config", cfg, "--out", str(tmp_path / "out")]
        assert "must hold a JSON object, got list" in self._expect_exit_2(argv, capsys)

    @pytest.mark.parametrize("equation, message", [
        ([], "'equation' must be a JSON object"),
        ({"p": "x"}, "equation.p must be a number, got 'x'"),
        ({"p": 3.0, "A": 2.0, "forcing": {"kind": "constant", "value": [1]}},
         "forcing.value must be a number"),
        ({"p": 3.0, "A": 2.0, "coefficient": "rough"}, "'coefficient' must be a JSON object"),
        ({"p": 3.0, "A": 2.0, "diffusion": {"kind": "extremal", "coeff": -1}},
         "diffusion coeff must be >= 0, got -1"),
    ])
    def test_equation_of_the_wrong_shape(self, tmp_path, capsys, equation, message):
        cfg = solve_config(tmp_path, equation=equation)
        err = self._expect_exit_2(["solve", "--config", cfg,
                                   "--out", str(tmp_path / "u.hjg")], capsys)
        assert message in err

    @pytest.mark.parametrize("initial, message", [
        ({"kind": "windowed", "level": "x"}, "level must be a number, got 'x'"),
        ({"level": 0.5}, "unknown key 'level'"),
        ([0.5], "'initial' must be a JSON object"),
    ])
    def test_initial_profile_of_the_wrong_shape(self, tmp_path, capsys, initial, message):
        cfg = solve_config(tmp_path, initial=initial)
        err = self._expect_exit_2(["solve", "--config", cfg,
                                   "--out", str(tmp_path / "u.hjg")], capsys)
        assert message in err

    @pytest.mark.parametrize("instances, message", [
        ({"p": 3.0}, "nonempty 'instances' list"),
        ([], "nonempty 'instances' list"),
        ([3], "sweep instances must be JSON objects, got 3"),
        ([{"p": 3.0}, {"p": "x"}], "equation.p must be a number, got 'x'"),
        ([{"p": 3.0, "gamma": 0.3, "strength": "big"}], "forcing.strength must be a number"),
    ])
    def test_sweep_instances_of_the_wrong_shape(self, tmp_path, capsys, instances, message):
        cfg = json.loads(Path(TestSweep()._config(tmp_path)).read_text())
        cfg["instances"] = instances
        path = write_json(tmp_path / "sweep.json", cfg)
        err = self._expect_exit_2(["sweep", "--config", path,
                                   "--out", str(tmp_path / "sweep.csv")], capsys)
        assert message in err

    @pytest.mark.parametrize("flag, value, message", [
        # r**alpha >= 1 at every level once alpha <= 0, and theta >= 1 makes
        # the selection rule vacuous: neither may yield a passing certificate
        ("--alpha", "-1", "alpha must lie in (0, 1], got -1.0"),
        ("--alpha", "0", "alpha must lie in (0, 1], got 0.0"),
        ("--alpha", "1.5", "alpha must lie in (0, 1], got 1.5"),
        ("--lambda", "-1", "lambda must lie in (0,1), got -1.0"),
        ("--lambda", "0", "lambda must lie in (0,1), got 0.0"),
        ("--theta", "2", "theta must lie in (0,1), got 2.0"),
    ])
    def test_oscillate_exponents_out_of_range(self, tmp_path, capsys, flag, value, message):
        args = {"--alpha": "0.5", "--lambda": "0.5", "--theta": "0.5"}
        args[flag] = value
        argv = ["oscillate", "--in", self._grid_file(tmp_path)]
        for key, val in args.items():
            argv += [key, val]
        assert message in self._expect_exit_2(argv, capsys)

    @pytest.mark.parametrize("kind", ["super", "sub"])
    @pytest.mark.parametrize("extra, message", [
        (["--nx", "0"], "verification grid needs nx, nt >= 1, got 0, 65"),
        (["--nt", "0"], "verification grid needs nx, nt >= 1, got 65, 0"),
        (["--nx", "-5"], "verification grid needs nx, nt >= 1, got -5, 65"),
        (["--d", "2", "--nx", "2"], "no node of the verification grid (nx = 2)"),
    ])
    def test_barrier_verify_bad_grid(self, capsys, kind, extra, message):
        err = self._expect_exit_2(["barrier", "verify", "--kind", kind, "--p", "3",
                                   "--A", "1"] + extra, capsys)
        assert message in err

    @pytest.mark.parametrize("extra, message", [
        (["--p", "1.0001", "--A", "1e-300"], "R=0.25, p=1.0001, A=1e-300 overflow"),
        (["--p", "3", "--R", "1e308"], "R=1e+308, p=3.0, A=1.0 overflow"),
    ])
    def test_barrier_verify_sub_overflow(self, capsys, extra, message):
        err = self._expect_exit_2(["barrier", "verify", "--kind", "sub", "--A", "1",
                                   "--nx", "9", "--nt", "9"] + extra, capsys)
        assert message in err

    @pytest.mark.parametrize("r0", ["-1", "-1e-308", "-1e308", "0"])
    def test_oscillate_r0_not_positive(self, tmp_path, capsys, r0):
        err = self._expect_exit_2(["oscillate", "--in", self._grid_file(tmp_path),
                                   f"--r0={r0}"], capsys)
        assert f"r0 must be a finite number > 0, got {float(r0)}" in err

    def test_oscillate_r0_below_the_grid_resolution(self, tmp_path, capsys):
        err = self._expect_exit_2(["oscillate", "--in", self._grid_file(tmp_path),
                                   "--r0", "1e-308"], capsys)
        assert "r0 = 1e-308 is below the grid's resolution" in err

    def test_oscillate_depth_that_overflows(self, tmp_path, capsys):
        # beta is about p = 3000, and 1.5**3000 leaves the float range
        path = str(tmp_path / "u2d.hjg")
        save_grid(GridFunction((-2.0, -2.0), (0.25, 0.25), 0.0, 0.25, np.zeros((17, 17, 5))), path)
        assert run(["oscillate", "--in", path, "--lambda", "0.6", "--theta", "0.006",
                    "--p", "3000", "--A", "2", "--r0", "1.5"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: outer cylinder depth inf exceeds the time extent\n"

    def test_oscillate_r0_below_the_node_spacing(self, tmp_path, capsys, monkeypatch):
        # on the README solve (dx = 1/128) each default centre's outer cylinder of
        # radius 0.006 holds one node: no oscillation to measure, so a bad r0
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        config = re.search(r"### Solve config \(JSON\)\n+```json\n(.*?)```", readme, re.S)
        (tmp_path / "solve.json").write_text(config.group(1))
        monkeypatch.chdir(tmp_path)
        assert run(["solve", "--config", "solve.json", "--out", "u1d.hjg"]) == 0
        capsys.readouterr()
        err = self._expect_exit_2(["oscillate", "--in", "u1d.hjg", "--r0", "0.006"], capsys)
        assert "r0 = 0.006 is below the grid's resolution" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["origin", "spacing_x", "t0", "spacing_t"])
    @pytest.mark.parametrize("suffix", [".hjg", ".csv"])
    def test_grid_header_not_finite(self, tmp_path, capsys, suffix, field, value):
        # written by hand: save_grid takes a GridFunction, which rejects these
        header = {"origin": -1.0, "spacing_x": 0.25, "t0": 0.0, "spacing_t": 0.25}
        header[field] = float(value)
        vals = np.linspace(0.0, 1.0, 9 * 5)
        path = tmp_path / f"u{suffix}"
        if suffix == ".hjg":
            path.write_bytes(b"HJGRID1\n" + struct.pack("<q4d2q", 1, *header.values(), 9, 5)
                             + vals.astype("<f8").tobytes())
        else:
            lines = (["# hjgrid,1", "# d,1"] + [f"# {k},{v!r}" for k, v in header.items()]
                     + ["# extent,9,5"] + [repr(v) for v in vals.tolist()])
            path.write_text("\n".join(lines) + "\n")
        for argv in (["modulus", "--in", str(path), "--alpha", "0.5", "--C", "1", "--p", "3"],
                     ["oscillate", "--in", str(path)]):
            assert run(argv) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1 and field in err

    @pytest.mark.parametrize("extra", [[], ["--alpha", "0.3"]])
    def test_scale_delta_not_finite(self, capsys, extra):
        err = self._expect_exit_2(["scale", "--p", "3", "--m", "1e308"] + extra, capsys)
        assert "delta is not finite for p=3.0, m=1e+308" in err
        assert "PASS" not in capsys.readouterr().out

    @pytest.mark.parametrize("extra, message", [
        (["--alpha", "-0.2"], "alpha must be in (0, 1), got -0.2"),
        (["--lambda", "2"], "lambda must be in (0,1), got 2.0"),
        (["--theta", "1.5"], "theta must be in (0,1), got 1.5"),
    ], ids=["alpha", "lambda", "theta"])
    def test_scale_bad_input_prints_no_result(self, capsys, extra, message):
        # every input is checked before the first result line is printed
        assert run(["scale", "--p", "3", "--m", "2"] + extra) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"

    def test_grid_header_promising_more_than_the_file_holds(self, tmp_path, capsys):
        path = tmp_path / "huge.hjg"
        head = (b"HJGRID1\n" + np.array([1], dtype="<i8").tobytes()
                + np.array([-1.0, 0.5, 0.0, 0.1]).astype("<f8").tobytes()
                + np.array([2**20, 2**20], dtype="<i8").tobytes())
        path.write_bytes(head + bytes(100 - len(head)))
        err = self._expect_exit_2(["oscillate", "--in", str(path)], capsys)
        assert f"ends {8 * 2**40 - (100 - len(head))} bytes short" in err

    @pytest.mark.parametrize("extra", [["--m", "2"], ["--m", "2", "--alpha", "0.3"], []])
    @pytest.mark.parametrize("d", ["0", "-1"])
    def test_scale_dimension_below_one(self, capsys, extra, d):
        err = self._expect_exit_2(["scale", "--p", "3", "--d", d] + extra, capsys)
        assert f"got {d}" in err

    def test_m_given_as_a_string_exits_2(self, tmp_path, capsys):
        # a string where a number belongs is bad input, even one float() reads
        grid = {"xmin": [-1.0], "xmax": [1.0], "nx": [33], "t0": 0.0, "t1": 0.1, "nt": 5}
        cfg = solve_config(tmp_path, equation={"p": 3.0, "A": 2.0, "m": "2"}, grid=grid)
        out = tmp_path / "u.hjg"
        err = self._expect_exit_2(["solve", "--config", cfg, "--out", str(out)], capsys)
        assert "config.equation.m must be a number, got '2'" in err
        assert not out.exists()
        cfg = solve_config(tmp_path, equation={"p": 3.0, "A": 2.0, "m": 2}, grid=grid)
        assert run(["solve", "--config", cfg, "--out", str(out)]) == 0


class TestBarrierCommand:
    @pytest.mark.parametrize("kind", ["super", "sub"])
    def test_verify_pass(self, kind, capsys):
        rc = run(["barrier", "verify", "--kind", kind, "--p", "3", "--A", "1",
                  "--nx", "33", "--nt", "33"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "worst_residual" in out
        assert "no statement between nodes" in out

    def test_super_rejects_subquadratic(self):
        assert run(["barrier", "verify", "--kind", "super", "--p", "2", "--A", "1"]) == 2


class TestPipeline:
    def test_solve_oscillate_modulus(self, tmp_path, capsys):
        cfg = solve_config(tmp_path)
        out_grid = str(tmp_path / "u.hjg")
        assert run(["solve", "--config", cfg, "--out", out_grid]) == 0
        u = load_grid(out_grid)
        assert u.values.shape == (257, 49)

        osc_csv = str(tmp_path / "osc.csv")
        rc = run(["oscillate", "--in", out_grid, "--lambda", "0.6", "--theta", "0.0058",
                  "--p", "3", "--A", "2", "--out", osc_csv])
        assert rc == 0
        lines = Path(osc_csv).read_text().splitlines()
        assert any(line.startswith("# alpha,") for line in lines)
        header = [line for line in lines if not line.startswith("#")][0]
        assert header == "center_x,level,r,osc,bound,pass"

        mod_csv = str(tmp_path / "mod.csv")
        rc = run(["modulus", "--in", out_grid, "--alpha", "0.01", "--C", "2.0",
                  "--p", "3", "--pairs", "5000", "--out", mod_csv])
        assert rc == 0
        lines = Path(mod_csv).read_text().splitlines()
        assert lines[-2] == "alpha,time_exponent,C,max_ratio"

        # with a hopeless constant the check reports failure via exit code 1
        rc = run(["modulus", "--in", out_grid, "--alpha", "0.01", "--C", "1e-6",
                  "--p", "3", "--pairs", "5000"])
        assert rc == 1

    def test_csv_output_deterministic(self, tmp_path):
        cfg = solve_config(tmp_path)
        out_grid = str(tmp_path / "u.hjg")
        run(["solve", "--config", cfg, "--out", out_grid])
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        for path in (a, b):
            run(["modulus", "--in", out_grid, "--alpha", "0.01", "--C", "2.0",
                 "--p", "3", "--pairs", "5000", "--seed", "7", "--out", path])
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_grid_csv_format_accepted(self, tmp_path):
        cfg = solve_config(tmp_path, grid={"xmin": [-1.0], "xmax": [1.0], "nx": [65],
                                           "t0": 0.0, "t1": 0.5, "nt": 9})
        out_grid = str(tmp_path / "u.csv")
        assert run(["solve", "--config", cfg, "--out", out_grid]) == 0
        u = load_grid(out_grid)
        assert u.values.shape == (65, 9)


class TestDemo:
    def test_sees_points(self, tmp_path, capsys):
        out_dir = str(tmp_path / "demo")
        rc = run(["demo", "sees-points", "--p", "3", "--A", "2", "--out-dir", out_dir])
        out = capsys.readouterr().out
        assert rc == 0
        assert "case 1" in out and "case 2" in out
        assert os.path.exists(os.path.join(out_dir, "sees_points.csv"))
        svg = Path(os.path.join(out_dir, "sees_points.svg")).read_text()
        assert svg.startswith("<svg") and "polyline" in svg


class TestSweep:
    def _config(self, tmp_path):
        return write_json(
            tmp_path / "sweep.json",
            {
                "seed": 0,
                "base": {
                    "equation": {"d": 1, "diffusion": {"kind": "extremal", "sign": "plus", "coeff": 2e-5}},
                    "grid": {"xmin": [-2.0], "xmax": [2.0], "nx": [257], "t0": 0.0,
                             "t1": 1.5, "nt": 49},
                    "initial": {"kind": "windowed", "level": 0.5, "amplitude": 0.3,
                                "k": 1.5, "phase": 0.7},
                    "boundary": {"kind": "frozen_initial"},
                },
                "oscillate": {"lambda": 0.6, "R": 0.25},
                "instances": [
                    {"p": 3.0, "A": 2.0, "k": 10.0, "omega": 7.0},
                    {"p": 3.0, "A": 2.0, "k": 6.0, "omega": 5.0, "gamma": 0.4, "m": 2.0},
                ],
            },
        )

    def test_sweep_runs_and_aggregates(self, tmp_path, capsys):
        out_csv = str(tmp_path / "sweep.csv")
        rc = run(["sweep", "--config", self._config(tmp_path), "--out", out_csv])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2/2 instances passed" in out
        lines = Path(out_csv).read_text().splitlines()
        assert lines[0] == "# seed,0"
        assert any("pass_rate,1" in line for line in lines)

    def test_sweep_csv_deterministic(self, tmp_path):
        out_csv = str(tmp_path / "sweep_a.csv")
        ref_csv = str(tmp_path / "sweep_b.csv")
        assert run(["sweep", "--config", self._config(tmp_path), "--out", out_csv]) == 0
        assert run(["sweep", "--config", self._config(tmp_path), "--out", ref_csv]) == 0
        assert Path(out_csv).read_bytes() == Path(ref_csv).read_bytes()

    def test_failing_instance_keeps_its_row(self, tmp_path, capsys):
        cfg = json.loads(Path(self._config(tmp_path)).read_text())
        ok_csv, mixed_csv = str(tmp_path / "ok.csv"), str(tmp_path / "mixed.csv")
        assert run(["sweep", "--config", write_json(tmp_path / "ok.json", cfg),
                    "--out", ok_csv]) == 0
        # a huge forcing blows this instance up within the first output interval
        cfg["instances"].insert(1, {"p": 3, "gamma": 0.3, "strength": 1e9})
        capsys.readouterr()
        rc = run(["sweep", "--config", write_json(tmp_path / "mixed.json", cfg),
                  "--out", mixed_csv])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("verification failed: instance 1: values exceeded")
        assert "Traceback" not in captured.err
        assert "2/3 instances passed" in captured.out
        ok_rows = Path(ok_csv).read_text().splitlines()
        mixed_rows = Path(mixed_csv).read_text().splitlines()
        assert mixed_rows[:3] == ["# seed,0", "# instances,3", "# pass_rate,0.666666666667"]
        assert ok_rows[3] == mixed_rows[3]  # column names
        assert [ok_rows[4], ok_rows[5]] == [mixed_rows[4], mixed_rows[6]]
        failed = dict(zip(mixed_rows[3].split(","), mixed_rows[5].split(",")))
        assert (failed["gamma"], failed["passed"]) == ("0.3", "0")
        assert (failed["alpha_hat"], failed["fit_residual"]) == ("nan", "nan")
        assert failed["alpha"] not in ("nan", "") and failed["theta"] not in ("nan", "")

    def test_overflowing_instance_keeps_its_row(self, tmp_path, capsys):
        # p = 300: the LF alpha overflows at the first step, while the barrier's
        # theta cap, whose direct quotient underflows, comes from its log form;
        # the other rows are those of a sweep without it
        cfg = json.loads(Path(self._config(tmp_path)).read_text())
        ok_csv, mixed_csv = str(tmp_path / "ok.csv"), str(tmp_path / "mixed.csv")
        cfg["base"]["initial"] = {"kind": "quadratic", "scale": 3}
        cfg["base"]["grid"].update(nx=[65], nt=17)
        assert run(["sweep", "--config", write_json(tmp_path / "ok.json", cfg),
                    "--out", ok_csv]) == 0
        cfg["instances"].insert(1, {"p": 300})
        capsys.readouterr()
        rc = run(["sweep", "--config", write_json(tmp_path / "mixed.json", cfg),
                  "--out", mixed_csv])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.splitlines() == [
            "verification failed: instance 1: stable step 0 below floor 1e-09 at t=0"]
        ok_rows = Path(ok_csv).read_text().splitlines()
        mixed_rows = Path(mixed_csv).read_text().splitlines()
        assert ok_rows[3:] == mixed_rows[3:5] + mixed_rows[6:]
        assert mixed_rows[5] == "300,2,nan,nan,nan,nan,0.0655,0.0329491942636,0,nan,nan"

    def test_failed_alpha_search_keeps_its_row(self, tmp_path, capsys):
        # p(m-1) = 0.75 <= d: no admissible alpha for this instance, whose row
        # gets nan alpha and theta; the other rows are those of a sweep without it
        cfg = {"seed": 0, "base": {
            "equation": {"p": 3, "A": 2},
            "grid": {"xmin": [-2.0], "xmax": [2.0], "nx": [65], "t1": 1.5, "nt": 17},
            "initial": {"kind": "windowed", "level": 0.5, "amplitude": 0.3, "k": 1.5,
                        "phase": 0.7},
            "boundary": {"kind": "frozen_initial"}},
            "instances": [{"p": 3}, {"p": 2.5}]}
        ok_csv, mixed_csv = str(tmp_path / "ok.csv"), str(tmp_path / "mixed.csv")
        assert run(["sweep", "--config", write_json(tmp_path / "ok.json", cfg),
                    "--out", ok_csv]) == 0
        cfg["instances"].insert(1, {"p": 1.5, "m": 1.5})
        capsys.readouterr()
        rc = run(["sweep", "--config", write_json(tmp_path / "mixed.json", cfg),
                  "--out", mixed_csv])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == ("verification failed: instance 1: p(m-1) = 0.75 must exceed "
                                "d = 1 for the L^m theory\n")
        ok_rows = Path(ok_csv).read_text().splitlines()
        mixed_rows = Path(mixed_csv).read_text().splitlines()
        assert mixed_rows[5] == "1.5,2,nan,nan,nan,1.5,nan,nan,0,nan,nan"
        assert ok_rows[3:] == mixed_rows[3:5] + mixed_rows[6:]

    def test_sweep_matches_one_solve_per_instance(self, tmp_path, monkeypatch):
        cfg = json.loads(Path(self._config(tmp_path)).read_text())
        cfg["instances"].append({"p": 4.0, "A": 3.0, "k": 4.0, "omega": 2.0})
        together, solve_hj = [], cli.scheme.solve_hj
        monkeypatch.setattr(cli.scheme, "solve_hj",
                            lambda *args: together.extend(solve_hj(*args)) or together)
        assert run(["sweep", "--config", write_json(tmp_path / "sweep.json", cfg),
                    "--out", str(tmp_path / "sweep.csv")]) == 0
        monkeypatch.undo()
        alone = [cli.solve_from_config(dict(cfg["base"], equation=cli._override(
            cfg["base"]["equation"], **inst, d=1)))[0] for inst in cfg["instances"]]
        assert len(together) == len(alone) == 3
        assert [u.values.tobytes() for u in together] == [u.values.tobytes() for u in alone]
