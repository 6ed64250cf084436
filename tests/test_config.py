"""The config reader and the exit-code contract.

Each block of a solve or sweep config feeds one callable; its keys are that
callable's keyword arguments and its defaults are the callable's own.  An
unknown key, a value of the wrong type and a non-finite number exit 2 with
one `error:` line naming the block and the key.  The property tests fuzz
configs and grid files in-process through `cli.run` and check that every
input gives exit code 0, 1 or 2 and lets no exception escape.
"""

import contextlib
import io
import json
import math
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hjholder import cli, instances, scheme
from hjholder.core import EquationParams, GridFunction, as_number, save_grid
from hjholder.errors import DomainError

GRID = {"xmin": [-1.0], "xmax": [1.0], "nx": [9], "t0": 0.0, "t1": 0.1, "nt": 3}
GRID_2D = {"xmin": [-2.0, -2.0], "xmax": [2.0, 2.0], "nx": [17, 17], "t1": 1.5, "nt": 5}


def _run(argv):
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _run_config(command, cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return _run([command, "--config", path, "--out", os.path.join(tmp, "out")])


def _sweep(**blocks):
    cfg = {"base": {"grid": dict(GRID)}, "instances": [{"p": 3.0}]}
    cfg.update(blocks)
    return cfg


# ---------------------------------------------------------------------------
# Probes: inputs that exit 2 with one error line naming the block and key
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cfg, message", [
    ({"grid": {**GRID, "nX": [9]}}, "config.grid: unknown key 'nX'"),
    ({"grid": GRID, "initial": {"kind": "constant", "valu": 1.0}},
     "config.initial: unknown key 'valu'"),
    ({"grid": GRID, "initial": {"kind": "windowed", "level": 0.5, "extra": 1}},
     "config.initial: unknown key 'extra'"),
    ({"grid": GRID, "equation": {"coefficient": {"kind": "rough", "kk": 3.0}}},
     "config.equation.coefficient: unknown key 'kk'"),
    ({"grid": GRID, "equation": {"forcing": {"kind": "inverse_power", "center": [0.1, 0.2]}}},
     "forcing center [0.1, 0.2] needs 1 entries"),
    ({"grid": GRID, "equation": {"diffusion": {"kind": "extremal"}}},
     "config.equation.diffusion needs 'coeff'"),
    ({"grid": GRID, "equation": {"diffusion": {"kind": "extremal", "coeff": 0.1,
                                               "sign": ["plus"]}}},
     "config.equation.diffusion: 'sign' must be a string, got ['plus']"),
    ({"grid": GRID, "equation": {"diffusion": {"kind": "extremal", "coeff": 0.1,
                                               "sign": "up"}}},
     "diffusion sign must be one of plus, minus, +, -, got 'up'"),
    ({"grid": GRID, "equation": {"pp": 3.0}}, "config.equation: unknown key 'pp'"),
    ({"grid": GRID, "equation": {"coefficient": {"kind": "wavy"}}},
     "config.equation.coefficient: unknown kind 'wavy' (one of constant, rough)"),
    ({"grid": GRID, "boundry": {"kind": "constant"}}, "config: unknown key 'boundry'"),
    ({"grid": {**GRID, "t1": math.inf}}, "grid t1 must be a finite number, got inf"),
    ({"grid": {**GRID, "xmax": [math.inf]}}, "grid xmax must be a finite number, got inf"),
    ({"grid": {**GRID, "t0": -math.inf}}, "grid t0 must be a finite number, got -inf"),
    ({"grid": {**GRID, "xmin": [[-1.0], [-1.0, 0.0]]}}, "grid xmin must be a number"),
    ({"grid": {**GRID, "nt": 10**400}}, "grid nt must be a number"),
    ({"grid": {**GRID, "lf_alpha_floor": math.nan}},
     "grid lf_alpha_floor must be a finite number, got nan"),
    ({"grid": GRID, "equation": {"p": math.inf}},
     "config.equation.p must be a finite number, got inf"),
    ({"grid": GRID, "equation": {"A": math.inf}},
     "config.equation.A must be a finite number, got inf"),
    ({"grid": GRID, "equation": {"eps": 0.01}}, "config.equation: unknown key 'eps'"),
    ({"grid": GRID, "equation": {"shift": math.nan}},
     "config.equation.shift must be a finite number, got nan"),
    ({"grid": {**GRID, "lf_alpha_cap": 0.3}}, "config.grid: unknown key 'lf_alpha_cap'"),
    # node counts above the address space, rejected before any array is made
    ({"grid": {**GRID, "nx": [2**61]}},
     "the grid's prod(nx) x nt nodes: more than 1152921504606846975 float64 values, "
     "the most an array can hold"),
    ({"grid": {**GRID, "xmin": [-1.0, -1.0], "xmax": [1.0, 1.0], "nx": [3 * 10**9, 3 * 10**9]}},
     "the grid's prod(nx) x nt nodes: more than 1152921504606846975 float64 values"),
    # float() reads these, but a string or a bool where a number belongs is bad input
    ({"grid": GRID, "equation": {"p": "3"}}, "config.equation.p must be a number, got '3'"),
    ({"grid": GRID, "equation": {"coefficient": {"kind": "rough", "k": True}}},
     "config.equation.coefficient.k must be a number, got True"),
    ({"grid": {**GRID, "nx": ["9"]}}, "grid nx must be a number, got '9'"),
    ({"grid": {**GRID, "t1": True}}, "grid t1 must be a number, got True"),
    # a centre given with one entry on a 2-D grid
    ({"grid": GRID_2D, "equation": {"forcing": {"kind": "inverse_power", "center": 0.0}}},
     "forcing center [0.0] needs 2 entries"),
])
def test_rejected_solve_config(cfg, message):
    code, _, err = _run_config("solve", cfg)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("cfg, message", [
    (_sweep(instances=[{"p": 3.0, "gama": 0.3}]), "config.instances[0]: unknown key 'gama'"),
    (_sweep(oscillate={"lambda": 0.5, "r": 0.25}), "config.oscillate: unknown key 'r'"),
    (_sweep(oscillate={"lambda": math.inf}), "config.oscillate.lambda must be a finite number"),
    (_sweep(oscillate={"lambda_": 0.5}), "config.oscillate: unknown key 'lambda_'"),
    (_sweep(base={"grid": GRID, "equation": {"kind": 1}}),
     "config.instances[0].equation: unknown key 'kind'"),
    (_sweep(seeds=1), "config: unknown key 'seeds'"),
    (_sweep(seed=1.5), "config.seed must be a whole number, got 1.5"),
    (_sweep(instances=[{"p": 3.0, "x0": "left", "gamma": 0.3}]),
     "config.instances[0].equation.forcing.center must be a number, got 'left'"),
    # the barrier and alpha searches of a row raise these, which stop the sweep
    (_sweep(oscillate={"R": -1}), "R must be > 0, got -1.0"),
    (_sweep(oscillate={"lambda": 1.5}), "lambda must be in (0,1), got 1.5"),
    # float() reads these, but a string or a bool where a number belongs is bad input
    (_sweep(seed=True), "config.seed must be a number, got True"),
    (_sweep(instances=[{"p": "3"}]), "config.instances[0].equation.p must be a number, got '3'"),
    (_sweep(instances=[{"p": 3.0, "k": True}]),
     "config.instances[0].equation.coefficient.k must be a number, got True"),
    (_sweep(instances=[{"p": 3.0, "A": "2"}]),
     "config.instances[0].equation.A must be a number, got '2'"),
    # an x0 given with one entry on a 2-D grid
    (_sweep(base={"grid": GRID_2D}, instances=[{"gamma": 0.3, "x0": 1.3}]),
     "forcing center [1.3] needs 2 entries"),
])
def test_rejected_sweep_config(cfg, message):
    code, _, err = _run_config("sweep", cfg)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("value", ["3", b"3", True, np.bool_(False), "inf"])
def test_as_number_takes_no_string_or_bool(value):
    with pytest.raises(DomainError, match="x must be a number"):
        as_number(value, "x")


def test_defaults_live_in_the_consumers():
    """A config that leaves out every optional key gets the callables' defaults."""
    u, spec, grid = cli.solve_from_config({"grid": {"xmin": -1.0, "xmax": 1.0, "nx": 9}})
    assert grid == scheme.SolveConfig(xmin=(-1.0,), xmax=(1.0,), nx=(9,))
    assert (grid.t0, grid.t1, grid.nt, grid.cfl, grid.lf_alpha_floor) == (0.0, 1.0, 65, 0.8, 0.0)
    assert spec == scheme.HamiltonianSpec(EquationParams())
    assert spec.params == EquationParams(p=3.0, A=1.0, d=1, m=None)
    assert np.array_equal(u.values, np.full((9, 65), 0.5))  # constant 0.5, frozen on the faces


def test_d_defaults_to_the_grid_axis_count():
    """A 2-D grid without equation.d solves in 2-D, and an explicit d equal to
    the grid's gives the same solution; a d that disagrees exits 2."""
    grid = {"xmin": [-1, -1], "xmax": [1, 1], "nx": [9, 9], "t1": 0.1, "nt": 3}
    outs = []
    for eq in ({}, {"d": 2}):
        u, spec, _ = cli.solve_from_config({"grid": grid, "equation": eq})
        assert spec.params.d == 2
        outs.append(u.values.tobytes())
    assert outs[0] == outs[1]
    assert _run_config("solve", {"grid": grid})[0] == 0
    for d in (1, 3):
        code, _, err = _run_config("solve", {"grid": grid, "equation": {"d": d}})
        assert code == 2
        assert f"config dim 2 != params dim {d}" in err


def test_explicit_defaults_give_the_same_objects():
    explicit = {
        "seed": 0,
        "equation": {"p": 3.0, "A": 1.0, "d": 1, "shift": 0.0,
                     "coefficient": {"kind": "rough", "k": 10.0, "omega": 7.0, "base": 1.0,
                                     "amplitude": 0.5},
                     "diffusion": {"kind": "extremal", "sign": "plus", "coeff": 0.0},
                     "forcing": {"kind": "inverse_power", "strength": 0.5, "gamma": 0.4,
                                 "center": 0.0, "cap_radius": 0.25}},
        "grid": {**GRID, "cfl": 0.8, "lf_alpha_floor": 0.0},
        "initial": {"kind": "sinusoid", "level": 0.5, "amplitude": 0.4, "k": 2.0, "phase": 0.0},
        "boundary": {"kind": "frozen_initial"},
    }
    implicit = {
        "equation": {"coefficient": {"kind": "rough"},
                     "diffusion": {"kind": "extremal", "coeff": 0.0},
                     "forcing": {"kind": "inverse_power"}},
        "grid": GRID,
        "initial": {"kind": "sinusoid"},
    }
    outs = []
    for cfg in (explicit, implicit):
        u, spec, _ = cli.solve_from_config(cfg)
        assert spec.params == EquationParams()
        assert spec.diffusion == scheme.ExtremalDiffusion(1, 0.0)
        outs.append(u.values.tobytes())
    assert outs[0] == outs[1]  # cap_radius defaults to the grid spacing, 0.25


def test_sweep_override_defaults():
    base = {"equation": {"p": 2.5, "coefficient": {"kind": "constant", "value": 1.5}}}
    eq = cli._override(base["equation"], gamma=0.3, d=1)
    assert eq == {"p": 2.5, "A": 2.0, "coefficient": {"kind": "constant", "value": 1.5},
                  "forcing": {"kind": "inverse_power", "gamma": 0.3, "center": [1.3]}}
    assert cli._override(None, gamma=0.3, d=2)["forcing"]["center"] == [1.3, 0.0]
    eq = cli._override({"A": 3.0}, p=4.0, k=5.0, gamma=0.2, strength=0.7, x0=-1.0, m=3, d=1)
    assert eq == {"p": 4.0, "A": 3.0, "m": 3, "coefficient": {"kind": "rough", "k": 5.0},
                  "forcing": {"kind": "inverse_power", "gamma": 0.2, "center": -1.0,
                              "strength": 0.7}}
    assert cli._override(None, A=1.5, d=1) == {"A": 1.5}


@pytest.mark.parametrize("grid, origin, x0", [
    ({**GRID_2D, "xmin": [-2.0], "xmax": [2.0], "nx": [33]}, [0.0], [1.3]),
    (GRID_2D, [0.0, 0.0], [1.3, 0.0])])
def test_centre_defaults_fill_the_grid_axes(tmp_path, grid, origin, x0):
    """An inverse_power forcing without a centre is centred at the origin, and a
    sweep instance without x0 at (1.3, 0, ...), on a grid of any axis count:
    the same bits as those centres given."""
    forcing = {"kind": "inverse_power", "gamma": 0.4}
    outs = [cli.solve_from_config({"grid": grid, "equation": {"forcing": f}})[0].values.tobytes()
            for f in (forcing, {**forcing, "center": origin})]
    assert outs[0] == outs[1]
    runs = []
    for i, inst in enumerate(({"gamma": 0.3}, {"gamma": 0.3, "x0": x0})):
        path, out = tmp_path / f"sweep{i}.json", tmp_path / f"sweep{i}.csv"
        path.write_text(json.dumps({"base": {"grid": grid}, "instances": [inst]}))
        code, stdout, _ = _run(["sweep", "--config", str(path), "--out", str(out)])
        runs.append((code, stdout, out.read_text()))
    assert runs[0] == runs[1] and runs[0][0] == 0


def test_profiles_are_looked_up_at_call_time(monkeypatch):
    """A wrapper put on an instances factory sees the calls a config makes."""
    seen = []
    for name in ("initial_profile", "boundary_profile", "rough_coefficient",
                 "inverse_power_forcing"):
        original = getattr(instances, name)

        def wrapped(*args, original=original, name=name, **kw):
            seen.append(name)
            return original(*args, **kw)

        monkeypatch.setattr(instances, name, wrapped)
    cli.solve_from_config({"grid": GRID, "equation": {
        "coefficient": {"kind": "rough"}, "forcing": {"kind": "inverse_power"}}})
    assert sorted(seen) == ["boundary_profile", "initial_profile", "inverse_power_forcing",
                            "rough_coefficient"]


@pytest.mark.parametrize("d, radii", [(1, 33), (2, 338)])
def test_barrier_verify_reports_the_radii_it_checks(d, radii):
    code, out, _ = _run(["barrier", "verify", "--kind", "sub", "--p", "3", "--A", "2",
                         "--d", str(d)])
    assert code == 0
    assert f"grid = {radii} radii x 65 times on |x| <= 2.0" in out


def test_oscillate_csv_has_one_center_column_per_axis(tmp_path):
    x, y = np.meshgrid(np.linspace(-2, 2, 33), np.linspace(-2, 2, 33), indexing="ij")
    vals = np.stack([0.1 * np.sin(x + y + t) for t in np.linspace(0.0, 1.0, 9)], axis=-1)
    path = str(tmp_path / "u.hjg")
    save_grid(GridFunction((-2.0, -2.0), (0.125, 0.125), 0.0, 0.125, vals), path)
    csv = tmp_path / "osc.csv"
    code, _, _ = _run(["oscillate", "--in", path, "--alpha", "0.01", "--out", str(csv)])
    assert code in (0, 1)
    lines = [line for line in csv.read_text().splitlines() if not line.startswith("#")]
    assert lines[0] == "center_x,center_y,level,r,osc,bound,pass"
    centers = {tuple(line.split(",")[:2]) for line in lines[1:]}
    assert len(centers) == 25  # a 5 x 5 family of centres, each row naming its own
    x1 = np.linspace(-2, 2, 33)
    save_grid(GridFunction((-2.0,), (0.125,), 0.0, 0.125,
                           np.stack([0.1 * np.sin(x1 + t) for t in np.linspace(0, 1, 9)], -1)),
              path)
    code, _, _ = _run(["oscillate", "--in", path, "--alpha", "0.01", "--out", str(csv)])
    lines = [line for line in csv.read_text().splitlines() if not line.startswith("#")]
    assert lines[0] == "center_x,level,r,osc,bound,pass"


# ---------------------------------------------------------------------------
# Fuzzing: exit code 0, 1 or 2 for any config or grid file
# ---------------------------------------------------------------------------

NUMBERS = st.sampled_from([-1, 0, 1, 2, 3, -1.0, 0.5, 1.5, 2.5, 1e-300, math.inf, -math.inf,
                           math.nan])
JUNK = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=4)


def _mostly(good, odds=24):
    """Values of `good`, and one time in `odds` junk, so most examples get deep."""
    return st.integers(1, odds).flatmap(lambda i: JUNK if i == odds else good)


def _block(required: dict, optional: dict = None, kinds=None):
    """A config block: the required keys, some optional ones, at times a kind
    or an unknown key, and one time in eight something that is not a block."""
    entries = st.fixed_dictionaries({key: _mostly(v) for key, v in required.items()},
                                    optional={key: _mostly(v) for key, v in
                                              (optional or {}).items()})
    if kinds is not None:
        entries = st.builds(lambda b, kind: {**b, "kind": kind}, entries,
                            _mostly(st.sampled_from(kinds)))
    unknown = _mostly(st.just({}), 12).map(lambda extra: {} if extra == {} else {"nX": extra})
    return _mostly(st.builds(lambda b, extra: {**b, **extra}, entries, unknown), 12)


SMALL = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0])
AXES = st.lists(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0]), min_size=1, max_size=2)
GRID_BLOCK = st.integers(1, 2).flatmap(lambda d: _block(
    {"xmin": st.sampled_from([[-1.0] * d] * 4 + [[-2.0] * d, -1.0]),
     "xmax": st.sampled_from([[1.0] * d] * 4 + [[2.0] * d, [-1.0] * d]),
     "nx": st.lists(st.sampled_from([5, 9, 3, 2]), min_size=d, max_size=d)},
    {"t0": st.sampled_from([0.0, 0.1]), "t1": st.sampled_from([0.1, 0.3]),
     "nt": st.integers(1, 4), "cfl": st.sampled_from([0.5, 0.9, 1.5]),
     "lf_alpha_floor": SMALL}))
EQUATION = _block({}, {
    "p": st.sampled_from([1.5, 2.0, 3.0, 1.0, 300.0]), "A": st.sampled_from([1.0, 2.0, 0.0]),
    "d": st.sampled_from([1, 2, 0]), "m": st.sampled_from([1.5, 2.0]) | st.none(),
    "shift": SMALL,
    "coefficient": _block({}, {"value": SMALL, "k": SMALL, "omega": SMALL, "base": SMALL,
                               "amplitude": SMALL}, ["constant", "rough", "wavy"]),
    "diffusion": _block({}, {"coeff": st.sampled_from([0.0, 0.01, -1.0]),
                             "sign": st.sampled_from(["plus", "minus", "+", "up"]),
                             "scale": st.sampled_from([0.0, 0.01, -1.0])},
                        ["none", "extremal", "trace"]),
    "forcing": _block({}, {"value": SMALL, "strength": SMALL, "gamma": SMALL,
                           "center": AXES | SMALL, "cap_radius": SMALL},
                      ["none", "constant", "inverse_power"]),
})
INITIAL = _block({}, {"value": SMALL, "level": SMALL, "amplitude": SMALL, "k": SMALL,
                      "phase": SMALL, "scale": SMALL | st.just(1e308), "depth": SMALL,
                      "center": SMALL,
                      "width": st.sampled_from([0.2, 1.0, 0.0]), "half_width": SMALL},
                 list(instances.INITIAL_PROFILES))
BOUNDARY = _block({}, {"value": SMALL}, list(instances.BOUNDARY_PROFILES))
SEED = _mostly(st.integers(0, 3))
SOLVE = st.fixed_dictionaries({"grid": GRID_BLOCK}, optional={
    "equation": EQUATION, "initial": INITIAL, "boundary": BOUNDARY, "seed": SEED})
INSTANCE = _block({}, {"p": st.sampled_from([2.5, 3.0, 300.0]), "A": st.sampled_from([1.5, 2.0]),
                       "k": SMALL, "omega": SMALL, "gamma": st.sampled_from([0.2, 0.4]),
                       "strength": SMALL, "x0": SMALL, "m": st.sampled_from([2, 3])})
SWEEP = st.fixed_dictionaries({"base": SOLVE,
                               "instances": _mostly(st.lists(INSTANCE, min_size=1, max_size=2))},
                              optional={"oscillate": _block({}, {"lambda": st.sampled_from(
                                  [0.5, 0.6]), "R": st.sampled_from([0.25, 0.5])}),
                                        "seed": SEED})

FUZZ = settings(max_examples=120, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


def _no_escape(argv):
    with np.errstate(all="ignore"):
        code, _, err = _run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    return code


@FUZZ
@given(_mostly(SOLVE))
def test_fuzz_solve_config(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        _no_escape(["solve", "--config", path, "--out", os.path.join(tmp, "u.hjg")])


@FUZZ
@given(SWEEP)
def test_fuzz_sweep_config(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        _no_escape(["sweep", "--config", path, "--out", os.path.join(tmp, "s.csv")])


def _hjg(d, origin, spacing, t0, dt, extent, n_values):
    return (b"HJGRID1\n" + struct.pack("<q", d) + struct.pack(f"<{len(origin)}d", *origin)
            + struct.pack(f"<{len(spacing)}d", *spacing) + struct.pack("<dd", t0, dt)
            + struct.pack(f"<{len(extent)}q", *extent)
            + np.linspace(0.0, 1.0, n_values).astype("<f8").tobytes())


FLOATS = st.sampled_from([0.25, 0.5, -1.0, 0.0, math.inf, math.nan])
# headers that agree with their values (at times with odd spacings), and raw ones
HJG = st.builds(lambda d, n, nt, x0, dx, dt: _hjg(d, [x0] * d, [dx] * d, 0.0, dt,
                                                  [n] * d + [nt], n**d * nt),
                st.sampled_from([1, 2]), st.integers(3, 9), st.integers(2, 5), FLOATS, FLOATS,
                FLOATS)
RAW_HJG = st.builds(_hjg, st.integers(-1, 3), st.lists(FLOATS, max_size=3),
                    st.lists(FLOATS, max_size=3), FLOATS, FLOATS,
                    st.lists(st.integers(-1, 9), max_size=4), st.integers(0, 200))
CSV = st.builds(lambda n, x0, dx, extent, values: "\n".join(
    ["# hjgrid,1", f"# origin,{x0}", f"# spacing_x,{dx}", "# t0,0", f"# spacing_t,{dx}",
     f"# extent,{extent}", *values]).encode(),
    st.integers(2, 9), FLOATS, FLOATS, st.sampled_from(["9,5", "5,9", "3,3,5", "-1", "x"]),
    st.lists(st.sampled_from(["0.5", "0.25", "nan", "1e999", "x", ""]), min_size=40,
             max_size=50))
MUTATED = st.builds(lambda data, cut, junk: data[:cut] + junk, HJG, st.integers(0, 200),
                    st.binary(max_size=9))


@FUZZ
@given(HJG | CSV | MUTATED | RAW_HJG | st.binary(max_size=64),
       st.sampled_from([".hjg", ".csv"]))
def test_fuzz_grid_file(data, suffix):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "u" + suffix)
        with open(path, "wb") as fh:
            fh.write(data)
        _no_escape(["oscillate", "--in", path, "--alpha", "0.05", "--r0", "0.5"])
        _no_escape(["modulus", "--in", path, "--alpha", "0.5", "--C", "1", "--p", "3",
                    "--pairs", "20"])


def test_outer_cylinder_with_one_node_is_a_bad_r0(tmp_path):
    """One node in a default centre's outer cylinder leaves no oscillation to
    measure: an r0 below the grid's resolution, not an IndexError in
    iterate_scales."""
    path = str(tmp_path / "u.hjg")
    save_grid(GridFunction((0.25,), (0.5,), 0.0, 0.25, np.zeros((3, 2))), path)
    code, out, err = _run(["oscillate", "--in", path, "--alpha", "0.05", "--r0", "0.5"])
    assert code == 2
    assert (out, err) == ("", "error: r0 = 0.5 is below the grid's resolution\n")
