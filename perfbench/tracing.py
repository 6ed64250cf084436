"""Spans and counts around the public functions of each hjholder module.

The wrappers are installed from outside the package, by replacing module
attributes, and removed again after each traced pass.  Every wrapped call
records a span (name, start, end, parent, pass id) in memory;
`pass_metrics` turns one pass's spans into the benchmark's per-layer metrics.

The substep counter is installed on untraced passes too: it wraps the
Dirichlet callable that `instances.boundary_profile` returns, which the
solver calls once per substep, and costs one Python call per substep.
"""

from __future__ import annotations

import inspect
import math
import time

import numpy as np

LAYERS = ("cli", "scheme", "instances", "oscillation", "barriers", "extremal",
          "variational", "scaling", "core")

# Factories whose returned callables the solver evaluates every substep.
CALLABLE_FACTORIES = ("rough_coefficient", "inverse_power_forcing", "initial_profile",
                      "boundary_profile")
CALLABLES = "instances.callables"
RENAMED = {"extremal.m_plus": "extremal.m_pm", "extremal.m_minus": "extremal.m_pm"}

# name -> unit of every per-layer metric, in report order
PER_LAYER_UNITS = {
    "scheme.solve_hj.s": "s",
    "scheme.solve_hj.calls": "count",
    "scheme.solve_hj.share": "ratio",
    "scheme.self_s": "s",
    "scheme.ns_per_node_substep": "ns",
    "scheme.substeps": "count",
    "instances.callables.s": "s",
    "instances.callables.calls": "count",
    "scheme.discrete_residual.s": "s",
    "oscillation.iterate_scales.s": "s",
    "oscillation.measure_oscillations.s": "s",
    "oscillation.holder_modulus_check.s": "s",
    "oscillation.fit_holder.s": "s",
    "oscillation.modulus_pairs": "count",
    "core.node_mask.s": "s",
    "core.node_mask.calls": "count",
    "barriers.find_supersolution_constants.s": "s",
    "barriers.make_subsolution_barrier.s": "s",
    "barriers.candidates_per_certificate": "count",
    "extremal.m_pm.s": "s",
    "extremal.m_pm.calls": "count",
    "variational.legendre_brute.s": "s",
    "variational.legendre_brute.calls": "count",
    "core.save_grid.s": "s",
    "core.load_grid.s": "s",
    "core.grid_bytes": "bytes",
    "cli.self_s": "s",
    **{f"share.{layer}": "ratio" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Installs wrappers into the hjholder modules and keeps spans in memory."""

    def __init__(self, package, modules: dict, c_max_doublings: int | None):
        self.modules = modules  # layer name -> module
        self.namespaces = [package, *modules.values()]
        self.c_max_doublings = c_max_doublings
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # per span: name id, start, end, parent index, pass id
        self.spans: list[tuple] = []
        self.pass_id = -1
        self.substeps = 0
        self._patches: list[tuple] = []
        self._reset_pass()

    # -- pass bookkeeping ---------------------------------------------------

    def _reset_pass(self):
        self._stack: list[int] = []
        self._child: dict[int, float] = {}
        self._depth: dict[int, int] = {}
        # name id -> [calls, outermost seconds, self seconds]
        self.stats: dict[int, list] = {}
        self.node_substeps = 0
        self.modulus_pairs = 0
        self.grid_bytes = 0
        self.certificates = 0
        self.candidates = 0
        self._substeps0 = self.substeps

    def begin_pass(self, pass_id: int, traced: bool):
        self.pass_id = pass_id
        self._reset_pass()
        self._install(traced)

    def end_pass(self):
        self._uninstall()

    @property
    def pass_substeps(self) -> int:
        """Solver substeps taken since the current pass began."""
        return self.substeps - self._substeps0

    # -- wrapping -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name, fn, after=None):
        nid = self._name_id(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack, spans = self._stack, self.spans
            idx = len(spans)
            parent = stack[-1] if stack else -1
            depth = self._depth.get(nid, 0)
            self._depth[nid] = depth + 1
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self._depth[nid] = depth
                spans[idx] = (nid, t0, t1, parent, self.pass_id)
                dur = t1 - t0
                if parent >= 0:
                    self._child[parent] = self._child.get(parent, 0.0) + dur
                st = self.stats.setdefault(nid, [0, 0.0, 0.0])
                st[0] += 1
                if depth == 0:
                    st[1] += dur
                st[2] += dur - self._child.pop(idx, 0.0)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count_substeps(self, bc):
        def counted(*args):
            self.substeps += 1
            return bc(*args)

        return counted

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _replace_everywhere(self, original, new):
        """Point every attribute bound to `original` in the package at `new`."""
        for mod in self.namespaces:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, new)

    def _install(self, traced: bool):
        inst = self.modules["instances"]
        if not traced:
            orig_bp = inst.boundary_profile
            self._replace_everywhere(orig_bp, lambda *a, **k: self._count_substeps(orig_bp(*a, **k)))
            return
        after = {
            "oscillation.holder_modulus_check": self._count_pairs,
            "core.save_grid": lambda args, _r: self._count_bytes(args[0]),
            "core.load_grid": lambda _args, u: self._count_bytes(u),
            "barriers.find_supersolution_constants": self._super_candidates,
            "barriers.make_subsolution_barrier": self._sub_candidates,
        }
        for layer, mod in self.modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = RENAMED.get(f"{layer}.{attr}", f"{layer}.{attr}")
                traced_fn = self._span(name, fn, after.get(name))
                if layer == "instances" and attr in CALLABLE_FACTORIES:
                    traced_fn = self._traced_factory(traced_fn, attr == "boundary_profile")
                elif name == "scheme.solve_hj":
                    traced_fn = self._counted_solve(traced_fn)
                self._replace_everywhere(fn, traced_fn)
        grid_cls = self.modules["core"].GridFunction
        self._patch(grid_cls, "node_mask", self._span("core.node_mask", grid_cls.node_mask))

    def _traced_factory(self, factory, counts_substeps):
        def make(*args, **kwargs):
            fn = factory(*args, **kwargs)
            if counts_substeps:
                fn = self._count_substeps(fn)
            return self._span(CALLABLES, fn)

        return make

    def _counted_solve(self, solve):
        def counted(*args, **kwargs):
            before = self.substeps
            result = solve(*args, **kwargs)
            cfg = kwargs["cfg"] if "cfg" in kwargs else args[3]
            self.node_substeps += math.prod(cfg.nx) * (self.substeps - before)
            return result

        return counted

    def _count_pairs(self, _args, rep):
        self.modulus_pairs += rep.n_pairs

    def _count_bytes(self, grid):
        self.grid_bytes += grid.values.nbytes

    def _super_candidates(self, _args, result):
        # The search halves eps0 from 1 in an outer loop and doubles C from 1
        # in an inner loop of c_max_doublings tries; without that budget the
        # attempts cannot be derived and the certificate is not counted.
        if self.c_max_doublings is None:
            return
        C, eps0 = result
        self.certificates += 1
        self.candidates += (round(-math.log2(eps0)) * self.c_max_doublings
                            + round(math.log2(C)) + 1)

    def _sub_candidates(self, _args, bar):
        # eps starts at min(theta/2, 1/(2 C_b)) and halves until the check passes.
        start = min(bar.theta / 2.0, 0.5 / bar.C_b)
        self.certificates += 1
        self.candidates += round(math.log2(start / bar.eps)) + 1

    def _uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def pass_metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the traced pass just ended, whose ops took wall_s."""
        stats = {self.names[nid]: st for nid, st in self.stats.items()}

        def calls(name):
            return stats.get(name, (0, 0.0, 0.0))[0]

        def seconds(name):
            return stats.get(name, (0, 0.0, 0.0))[1]

        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_s) in stats.items():
            layer_self[name.split(".", 1)[0]] += self_s
        solve_s = seconds("scheme.solve_hj")
        m = {
            "scheme.solve_hj.calls": calls("scheme.solve_hj"),
            "scheme.solve_hj.share": solve_s / wall_s,
            "scheme.self_s": layer_self["scheme"],
            "scheme.ns_per_node_substep": 1e9 * solve_s / self.node_substeps if self.node_substeps else 0.0,
            "scheme.substeps": self.pass_substeps,
            "instances.callables.calls": calls(CALLABLES),
            "oscillation.modulus_pairs": self.modulus_pairs,
            "core.node_mask.calls": calls("core.node_mask"),
            "barriers.candidates_per_certificate": (self.candidates / self.certificates
                                                    if self.certificates else 0.0),
            "extremal.m_pm.calls": calls("extremal.m_pm"),
            "variational.legendre_brute.calls": calls("variational.legendre_brute"),
            "core.grid_bytes": self.grid_bytes,
            "cli.self_s": layer_self["cli"],
            **{f"share.{layer}": layer_self[layer] / wall_s for layer in LAYERS},
        }
        for metric in PER_LAYER_UNITS:
            if metric.endswith(".s"):
                m[metric] = seconds(metric[:-2])
        return m

    def write_spans(self, path: str):
        """Write every span recorded so far as arrays in one .npz file."""
        spans = [s for s in self.spans if s is not None]
        cols = list(zip(*spans)) if spans else [(), (), (), (), ()]
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.array(cols[0], dtype=np.int32),
            start=np.array(cols[1], dtype=np.float64),
            end=np.array(cols[2], dtype=np.float64),
            parent=np.array(cols[3], dtype=np.int64),
            pass_id=np.array(cols[4], dtype=np.int32),
        )
