"""Spans and counters at the program's module boundaries, for the traced run.

Each wrapper replaces a function under the name its caller looks it up by
(`pencil.nodal.rational_kernel`, not `pencil.linalg.rational_kernel`), so
calls made inside the program are seen too. A span records the op id, its
own id, its parent's id, the layer and its start and end. A layer's self time
is its span's duration minus the durations of its direct child spans. Spans
stay in memory until the run writes them out; `uninstall` puts every
original function back.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, name as looked up, layer)
PATCHES = (
    ("pencil.pencils", "op_apply", "polyring.op_apply"),
    ("pencil.nodal", "poly_gcd", "polyring.gcd"),
    ("pencil.nodal", "square_free_decomposition", "polyring.gcd"),
    ("pencil.nodal", "square_free_part", "polyring.gcd"),
    ("pencil.nodal", "integer_coefficients", "polyring.gcd"),
    ("pencil.pencils", "rational_kernel", "linalg.kernel"),
    ("pencil.nodal", "rational_kernel", "linalg.kernel"),
    ("pencil.pencils", "quadratic_eigenfunction", "pencils.eig"),
    ("pencil.pencils", "quartic_eigenfunction", "pencils.eig"),
    ("pencil.nodal", "quadratic_eigenfunction", "pencils.eig"),
    ("pencil.nodal", "quartic_eigenfunction", "pencils.eig"),
    ("pencil.expansion", "quadratic_eigenfunction", "pencils.eig"),
    ("pencil.expansion", "quartic_eigenfunction", "pencils.eig"),
    ("pencil.pencils", "pencil_residual", "pencils.certify"),
    ("pencil.pencils", "reconstruct_xy", "pencils.certify"),
    ("pencil.pencils", "sturm_liouville_check", "pencils.certify"),
    ("pencil.nodal", "isolate_real_roots", "nodal.isolate"),
    ("pencil.nodal", "count_real_roots", "nodal.count"),
    ("pencil.nodal", "transversality_check", "nodal.count"),
    ("pencil.nodal", "check_admissibility_laplace", "nodal.decide"),
    ("pencil.nodal", "check_admissibility_bilaplace", "nodal.decide"),
    ("pencil.nodal", "enumerate_admissible", "nodal.decide"),
    ("pencil.semilinear", "integrate", "ode.integrate"),
    ("pencil.semilinear", "find_zeros", "ode.find_zeros"),
    ("pencil.semilinear", "solve_stationary", "semilinear.solve"),
    ("pencil.semilinear", "solve_selfsimilar", "semilinear.solve"),
    ("pencil.expansion", "eval_expansion", "expansion.eval"),
    ("pencil.expansion", "synthesize_boundary_trace", "expansion.eval"),
    ("pencil.cli", "render_line_chart", "svg.render"),
    ("pencil.cli", "main", "cli.main"),
)


def _count_kernel(c, args, kwargs, result):
    rows = args[0]
    ncols = kwargs.get("ncols", args[1] if len(args) > 1 else None)
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    c["linalg.kernel.entries"] += len(rows) * ncols


def _count_isolate(c, args, kwargs, result):
    c["nodal.isolate.degree_sum"] += args[0].degree
    c["nodal.isolate.roots"] += result.count


def _count_decide(c, args, kwargs, result):
    if result and hasattr(result[0], "admissible"):
        c["nodal.decide.verdicts"] += len(result)
        c["nodal.decide.admissible"] += sum(1 for v in result if v.admissible)


def _count_integrate(c, args, kwargs, result):
    c["ode.steps"] += len(result.ts) - 1
    c["ode.nfev"] += result.nfev
    c["ode.attempted"] += (result.nfev - 1) / 6


def _count_zeros(c, args, kwargs, result):
    c["ode.find_zeros.zeros"] += len(result)


def _count_svg(c, args, kwargs, result):
    c["svg.bytes"] += len(result.encode())


COUNTERS = {
    "linalg.kernel": _count_kernel,
    "nodal.isolate": _count_isolate,
    "nodal.decide": _count_decide,
    "ode.integrate": _count_integrate,
    "ode.find_zeros": _count_zeros,
    "svg.render": _count_svg,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.op_id = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._originals: list[tuple] = []
        self._eig_cached = False

    def _wrap(self, layer: str, label: str, fn):
        count = COUNTERS.get(layer)
        # cache_clear also resets cache_info, so misses are counted per call
        cache_info = getattr(fn, "cache_info", None) if layer == "pencils.eig" else None
        if cache_info is not None:
            self._eig_cached = True
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            tracer._next_id += 1
            frame = [0.0, tracer._next_id]
            stack.append(frame)
            misses = cache_info().misses if cache_info is not None else 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if cache_info is not None:
                    tracer.counters["pencils.eig.misses"] += cache_info().misses - misses
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                tracer.calls[layer] += 1
                tracer.self_s[layer] += duration - frame[0]
                tracer.spans.append((tracer.op_id, frame[1], parent[1] if parent else 0, label, start, end))
            if count is not None:
                count(tracer.counters, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, layer in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, f"{module_name}.{attr}", original))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def metrics(self) -> dict[str, float | None]:
        """The per-layer metrics of everything recorded since install."""
        c = self.counters
        out: dict[str, float | None] = {}
        for layer in sorted({layer for _, _, layer in PATCHES}):
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        out["cli.self_s"] = out.pop("cli.main.self_s")
        out["linalg.kernel.entries"] = c["linalg.kernel.entries"]
        out["pencils.eig.misses"] = c["pencils.eig.misses"] if self._eig_cached else None
        out["nodal.isolate.degree_sum"] = c["nodal.isolate.degree_sum"]
        out["nodal.isolate.roots"] = c["nodal.isolate.roots"]
        out["nodal.decide.admissible_ratio"] = _ratio(c["nodal.decide.admissible"], c["nodal.decide.verdicts"])
        out["ode.steps"] = c["ode.steps"]
        out["ode.nfev"] = c["ode.nfev"]
        out["ode.steps_per_s"] = _ratio(c["ode.steps"], self.self_s["ode.integrate"])
        out["ode.accept_ratio"] = _ratio(c["ode.steps"], c["ode.attempted"])
        out["ode.find_zeros.zeros"] = c["ode.find_zeros.zeros"]
        out["semilinear.shots_per_solve"] = _ratio(self.calls["ode.integrate"], self.calls["semilinear.solve"])
        out["svg.bytes"] = c["svg.bytes"]
        return out


def _ratio(num: float, den: float) -> float:
    # a layer that did no work reports 0
    return num / den if den else 0.0

