"""Benchmark of hjholder: three workloads through the CLI and the public API.

    python3 perfbench/run.py --workload sweep_1d|solve_2d|certify|all \
        [--seed N] [--seconds S] [--trace 0|1] [--record FILE] [--check FILE]

Run it from the root of a checkout; hjholder is imported from that
checkout's src/ and nothing is installed.  Each run starts WORKERS fresh
processes one after another.  Each sets up the workload, which is timed as
`setup_s`, then runs timed passes for its share of --seconds.  The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (medians over the traced passes).  Scratch
files, run records and spans go to .perfbench_run/ in the checkout.

Every operation is checked: its exit code, any oracle it has, and a sha256
digest of its outputs.  All runs of an operation must give one digest.  At
the default seed, on a host with the reference's numpy and SIMD targets, the
digests must also match perfbench/reference.json.  --check FILE compares
with digests that --record FILE wrote, for example from the parent commit.
A digest that differs from the reference or the --check file does not fail
the operation when CHANGES.md has a line `perfbench-output-changed: PATTERN`
whose glob PATTERN matches `<workload>/<operation>`.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
REFERENCE = os.path.join(HERE, "reference.json")
WORKERS = 5
DEADLINE_S = 170.0

sys.path.insert(0, HERE)
from tracing import PER_LAYER_UNITS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
EXCUSE = re.compile(r"perfbench-output-changed:\s*(\S+)")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_sha(root: str) -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    head = _read(os.path.join(root, ".git", "HEAD"))
    if head is None:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(os.path.join(root, ".git", ref))
    if sha:
        return sha
    for line in (_read(os.path.join(root, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine_record() -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, index, "level"))
        kind = _read(os.path.join(base, index, "type"))
        size = _read(os.path.join(base, index, "size"))
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else (kind or '')[:1].lower()}"] = size
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "caches": caches}


# ---------------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------------


def run_workers(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> list:
    os.makedirs(RUN_DIR, exist_ok=True)
    tag = f"{workload}-s{seed}-t{int(trace)}"
    results = []
    remaining = seconds
    for w in range(WORKERS):
        workdir = os.path.join(RUN_DIR, f"{tag}-{os.getpid()}-w{w}")
        out = workdir + ".json"
        opts = {"root": ROOT, "workload": workload, "seed": seed, "trace": trace,
                "budget_s": remaining / (WORKERS - w), "workdir": workdir, "out": out,
                "spans": os.path.join(RUN_DIR, f"spans-{workload}-w{w}.npz")}
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(opts)],
                                  cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
            if proc.returncode != 0:
                raise BenchError(f"worker {w} of {workload} exited with code {proc.returncode}")
            with open(out) as fh:
                results.append(json.load(fh))
            remaining -= sum(p["wall_s"] for p in results[-1]["passes"])
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {w} of {workload} did not finish in time") from exc
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            if os.path.exists(out):
                os.remove(out)
    return results


# ---------------------------------------------------------------------------
# Checking outputs
# ---------------------------------------------------------------------------


def excused_patterns(root: str) -> list:
    return EXCUSE.findall(_read(os.path.join(root, "CHANGES.md")) or "")


def load_digests(path: str, workload: str, seed: int, fingerprint: dict | None):
    """Digests recorded in path for (workload, seed), or None.

    With a fingerprint, the file counts only when it was recorded on a host
    whose floating-point results must match this one bit for bit.
    """
    record = json.loads(_read(path) or "{}")
    if fingerprint is not None and record.get("fingerprint") != fingerprint:
        return None
    return record.get("digests", {}).get(workload, {}).get(str(seed))


def record_digests(path: str, workload: str, seed: int, fingerprint: dict, digests: dict):
    record = json.loads(_read(path) or "{}")
    if record.get("fingerprint", fingerprint) != fingerprint:
        raise BenchError(f"{path} was recorded on another platform")
    record["fingerprint"] = fingerprint
    record.setdefault("digests", {}).setdefault(workload, {})[str(seed)] = digests
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


def check_ops(workload: str, executions: list, reference: dict | None, excused: list) -> tuple:
    """Count failed operation runs; returns (attempted, failed, digests, notes).

    An operation run fails when it failed in the worker, when its digest
    differs from the reference (unless excused), or when it differs from
    the first run of the same operation.
    """
    first = {}
    failed = 0
    notes = []
    for ex in executions:
        name = ex["name"]
        ref = (reference or {}).get(name)
        if ref is not None and any(fnmatch.fnmatch(f"{workload}/{name}", p) for p in excused):
            ref = None
        expected = ref if ref is not None else first.get(name)
        if ex["ok"]:
            first.setdefault(name, ex["digest"])
        if not ex["ok"]:
            failed += 1
            notes.append(f"{name}: failed")
        elif expected is not None and ex["digest"] != expected:
            failed += 1
            what = "reference" if ref is not None else "its first run"
            notes.append(f"{name}: digest differs from {what}")
    return len(executions), failed, first, notes


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def end_to_end(results: list) -> dict:
    """Pass times are the fastest pass: other tenants of the host only ever
    slow a pass down, and the fastest pass is the steadiest estimate of the
    code's own cost (see README.md, "Noise")."""
    plain = [p for r in results for p in r["passes"] if not p["traced"]]
    return {
        "wall_s": min(p["wall_s"] for p in plain),
        "cpu_s": min(p["cpu_s"] for p in plain),
        "setup_s": _median([r["setup_s"] for r in results]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in results]),
    }


def per_layer(results: list) -> dict:
    plain = [p for r in results for p in r["passes"] if not p["traced"]]
    traced = [p for r in results for p in r["passes"] if p["traced"]]
    m = {name: _median([p["layers"][name] for p in traced])
         for name in PER_LAYER_UNITS if not name.startswith("trace.")}
    m["trace.wall_s"] = _median([p["wall_s"] for p in traced])
    m["trace.overhead_s"] = m["trace.wall_s"] - _median([p["wall_s"] for p in plain])
    return m


def run_workload(args, workload: str, deadline: float) -> dict:
    results = run_workers(workload, args.seed, args.seconds, bool(args.trace), deadline)
    fingerprint = results[0]["fingerprint"]
    if any(r["fingerprint"] != fingerprint for r in results):
        raise BenchError("workers disagree on the platform fingerprint")
    if args.check:
        reference, source = load_digests(args.check, workload, args.seed, None), args.check
    elif args.seed == DEFAULT_SEED:
        reference, source = load_digests(REFERENCE, workload, args.seed, fingerprint), REFERENCE
    else:
        reference, source = None, None
    executions = [op for r in results for op in r["setup_ops"]]
    executions += [op for r in results for p in r["passes"] for op in p["ops"]]
    attempted, failed, digests, notes = check_ops(workload, executions, reference,
                                                  excused_patterns(ROOT))
    if args.record and failed == 0:
        record_digests(args.record, workload, args.seed, fingerprint, digests)
    metrics = per_layer(results) if args.trace else end_to_end(results)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    passes = [p for r in results for p in r["passes"]]
    record = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(ROOT), "python": platform.python_version(),
        "numpy": fingerprint["numpy"], "fingerprint": fingerprint, "blas": results[0]["blas"],
        "machine": machine_record(), "workers": WORKERS, "hjholder": results[0]["hjholder"],
        "passes": len(passes), "traced_passes": sum(p["traced"] for p in passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "median_wall_s": _median([p["wall_s"] for p in passes if not p["traced"]]),
        "setup_s": [r["setup_s"] for r in results],
        "substeps_per_pass": sorted({p["substeps"] for p in passes}),
        "reference": source if reference is not None else None,
        "attempted": attempted, "failed": failed, "notes": notes, "digests": digests,
    }
    with open(os.path.join(RUN_DIR, f"record-{workload}-s{args.seed}-t{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for note in notes:
        print(f"{workload}: {note}", file=sys.stderr)
    return {"record": record, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}


def summary(workload: str, res: dict) -> str:
    parts = [f"{k} = {v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items()]
    ratio = res["failed"] / res["attempted"]
    parts.append(f"failed_ratio = {ratio:.6g} ({res['failed']}/{res['attempted']} operations)")
    return f"{workload}: " + ", ".join(parts)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", help="write this run's output digests to FILE")
    ap.add_argument("--check", help="compare output digests with FILE (from --record)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.seconds > 0:
        ap.error("--seconds must be > 0")
    return args


def main(argv) -> int:
    args = parse_args(argv)
    if "HJ_HOLDER_THREADS" in os.environ:
        print("error: HJ_HOLDER_THREADS is set; unset it so the serial path is measured",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "hjholder", "__init__.py")):
        print(f"error: no hjholder sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    try:
        results = {w: run_workload(args, w, deadline) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    first = next(iter(results.values()))
    print("run_record: " + json.dumps({k: v for k, v in first["record"].items()
                                       if k not in ("digests", "pass_wall_s")}))
    for w, res in results.items():
        print(summary(w, res))
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(names) == 1:
        metrics = first["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, res in results.items() for k, v in res["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
