"""One benchmark process: set up a workload, then run timed passes of it.

run.py starts this script once per worker with one JSON argument and reads
the JSON result file it writes.  Set-up time runs from the first line of
this file, so it covers importing numpy and hjholder and building the
inputs (for certify, producing the stored solutions too).
"""

import time

T_START = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def import_package(root: str):
    """Import hjholder from the checkout's src/, never from anywhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import hjholder
    import hjholder.cli  # noqa: F401  (binds the submodules used below)

    where = os.path.realpath(hjholder.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"hjholder imported from {where}, not from {src}")
    return hjholder


def platform_fingerprint() -> dict:
    """What decides the bits of floating-point results on this host."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        simd = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    except ImportError:
        simd = ["unknown"]
    return {"numpy": np.__version__, "python": platform.python_version(),
            "machine": platform.machine(), "simd": simd}


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, AttributeError):
        info = {}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        info[var] = os.environ.get(var)
    return info


def run_op(op, tracer) -> dict:
    """Time one operation; its digest and checks run after the clock stops."""
    s0 = tracer.substeps
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        code, result = op.call()
    except Exception:  # an operation that raises is a failed operation
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        traceback.print_exc(file=sys.stderr)
        return {"name": op.name, "ok": False, "digest": None, "wall_s": wall, "cpu_s": cpu}
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    ok, dig = code == 0, None
    if ok:
        try:
            ok = op.check is None or op.check(result)
            dig = workloads.digest(*op.outputs(result), f"substeps={tracer.substeps - s0}")
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
    if not ok:
        print(f"operation {op.name} failed (exit code {code})", file=sys.stderr)
    return {"name": op.name, "ok": ok, "digest": dig, "wall_s": wall, "cpu_s": cpu}


def run_pass(ops, tracer, pass_id, traced) -> dict:
    tracer.begin_pass(pass_id, traced)
    try:
        results = [run_op(op, tracer) for op in ops]
    finally:
        tracer.end_pass()
    wall = sum(r["wall_s"] for r in results)
    out = {"pass_id": pass_id, "traced": traced, "wall_s": wall,
           "cpu_s": sum(r["cpu_s"] for r in results), "ops": results,
           "substeps": tracer.pass_substeps}
    if traced:
        out["layers"] = tracer.pass_metrics(wall)
    return out


def work(opts: dict, hj) -> dict:
    """Set up in opts["workdir"], then run passes for opts["budget_s"] seconds.

    With opts["trace"], passes alternate untraced and traced, starting
    untraced, and at least one of each runs.
    """
    layers = {layer: importlib.import_module(f"hjholder.{layer}") for layer in tracing.LAYERS}
    tracer = tracing.Tracer(hj, layers, getattr(hj.barriers, "_C_MAX_DOUBLINGS", None))
    os.makedirs(opts["workdir"], exist_ok=True)
    os.chdir(opts["workdir"])
    inputs = workloads.write_inputs(opts["workload"], opts["seed"])
    setup = run_pass(workloads.setup_ops(opts["workload"], hj, inputs), tracer, -1, False)
    ops = workloads.pass_ops(opts["workload"], hj, inputs)
    setup_s = time.perf_counter() - T_START

    passes = []
    begin = time.perf_counter()
    while (len(passes) < (2 if opts["trace"] else 1)
           or time.perf_counter() - begin < opts["budget_s"]):
        traced = bool(opts["trace"]) and len(passes) % 2 == 1
        passes.append(run_pass(ops, tracer, len(passes), traced))
    if opts["trace"] and opts.get("spans"):
        tracer.write_spans(opts["spans"])
    return {
        "setup_s": setup_s,
        "setup_ops": setup["ops"],
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fingerprint": platform_fingerprint(),
        "blas": blas_info(),
        "hjholder": os.path.dirname(hj.__file__),
    }


def main(argv) -> int:
    opts = json.loads(argv[1])
    hj = import_package(opts["root"])
    result = work(opts, hj)
    with open(opts["out"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
