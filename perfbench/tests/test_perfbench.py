"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _plain(obj):
    """Generated inputs as comparable plain data (arrays become lists)."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic(workload):
    assert _plain(workloads.generate(workload, 7)) == _plain(workloads.generate(workload, 7))


def test_seed_changes_the_drawn_inputs():
    assert workloads.sweep_instances(7) != workloads.sweep_instances(8)
    assert workloads.modulus_seeds(7) != workloads.modulus_seeds(8)
    a, b = workloads.random_matrices(7), workloads.random_matrices(8)
    assert not np.array_equal(a[3], b[3])


@pytest.mark.parametrize("seed", range(40))
def test_sweep_instances_stay_inside_the_hypotheses(seed):
    insts = workloads.sweep_instances(seed)
    assert insts[0] == {"p": 3.0, "A": 2.0}
    assert len(insts) == 1 + workloads.SWEEP_DRAWN
    for inst in insts[1:]:
        assert 2.5 <= inst["p"] <= 4.0 and 2.0 <= inst["A"] <= 3.0
        assert 3.0 <= inst["k"] <= 12.0 and 2.0 <= inst["omega"] <= 9.0
        if "m" in inst:
            assert inst["m"] in (2, 3) and 0.0 < inst["gamma"] * inst["m"] < 1.0
    assert sorted(inst["m"] for inst in insts if "m" in inst) == [2, 3]


@pytest.fixture(scope="module")
def hj():
    return worker.import_package(ROOT)


@pytest.fixture(scope="module")
def results(hj, tmp_path_factory):
    """One untraced and one traced pass of every workload at seed 3."""
    cwd = os.getcwd()
    out = {}
    try:
        for name in workloads.WORKLOADS:
            opts = {"workload": name, "seed": 3, "trace": True, "budget_s": 0.0,
                    "workdir": str(tmp_path_factory.mktemp(name))}
            out[name] = worker.work(opts, hj)
    finally:
        os.chdir(cwd)
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_passes_agree(results, workload):
    plain, traced = results[workload]["passes"]
    assert not plain["traced"] and traced["traced"]
    assert all(op["ok"] for op in plain["ops"] + traced["ops"])
    assert [(op["name"], op["digest"]) for op in plain["ops"]] == \
        [(op["name"], op["digest"]) for op in traced["ops"]]
    assert plain["substeps"] == traced["substeps"] == traced["layers"]["scheme.substeps"]
    assert (plain["substeps"] > 0) == (workload != "certify")


def test_tracing_leaves_the_package_unwrapped(results, hj):
    import hjholder.instances
    import hjholder.scheme

    assert hj.cli.run.__module__ == "hjholder.cli"
    assert hj.scheme.solve_hj.__module__ == "hjholder.scheme"
    assert hj.load_grid.__module__ == "hjholder.core"
    assert hjholder.instances.boundary_profile.__qualname__ == "boundary_profile"
    assert hj.GridFunction.node_mask.__qualname__ == "GridFunction.node_mask"


def test_every_named_metric_is_emitted_with_its_unit(results):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layers == tracing.PER_LAYER_UNITS
    for res in results.values():
        assert set(run.end_to_end([res])) == set(e2e)
        assert set(run.per_layer([res])) == set(layers)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_layer_shares_match_the_design(results):
    for name in ("sweep_1d", "solve_2d"):
        assert run.per_layer([results[name]])["scheme.solve_hj.share"] >= 0.9
    certify = run.per_layer([results["certify"]])
    assert certify["scheme.solve_hj.s"] == 0.0
    assert max(certify[f"share.{layer}"] for layer in tracing.LAYERS) < 0.5


def _ex(name, digest, ok=True):
    return {"name": name, "digest": digest, "ok": ok}


def test_check_ops_counts_changed_and_unsteady_outputs():
    runs = [_ex("a", "1"), _ex("b", "2"), _ex("a", "1"), _ex("b", "3"), _ex("c", None, ok=False)]
    attempted, failed, first, notes = run.check_ops("w", runs, None, [])
    assert (attempted, failed) == (5, 2) and first == {"a": "1", "b": "2"}
    ref = {"a": "9", "b": "2"}
    assert run.check_ops("w", runs[:2], ref, [])[1] == 1
    assert run.check_ops("w", runs[:2], ref, ["w/a"])[1] == 0
    assert run.check_ops("w", runs[:2], ref, ["other/*"])[1] == 1


def _run_bench(cwd, env=None):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify",
                           "--seconds", "1"], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run_bench(tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_refuses_to_run_with_threads_set():
    proc = _run_bench(ROOT, env={**os.environ, "HJ_HOLDER_THREADS": "2"})
    assert proc.returncode == 2
    assert "HJ_HOLDER_THREADS" in proc.stderr and proc.stdout == ""
