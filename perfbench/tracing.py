"""Spans around every call into a layer of robust_miso, taken from outside.

The tracer replaces each layer's public functions at every module attribute
that is bound to them (``robust_miso.conic.solve``, the copy of
``build_robust_sdp`` that ``robust_miso.harness`` and ``robust_miso.cli``
imported, the package-level re-exports, ...), so calls from one layer into
another, and from the benchmark into a layer, all pass through a wrapper.
Calls inside a layer that go through its own module globals are wrapped too;
they show up as nested spans of the same layer. Nothing inside the program
changes: removing the wrappers restores every binding.

A span is (name, start, end, parent, op). Spans are kept in memory. The
wrappers are installed only around one traced operation at a time, so
verification and untraced operations call the program unwrapped.
"""

from __future__ import annotations

import functools
import json
import statistics
from time import perf_counter

import numpy as np

LAYERS = ("conic", "formulations", "hermitian", "certificates", "harness", "cli")
BUILDERS = {
    "formulations.build_robust_sdp",
    "formulations.build_fixed_sdp",
    "formulations.build_fixed_dual",
    "formulations.build_mu_max_pair",
}

# Span record fields.
NAME, START, END, PARENT, OP, INFO = range(6)


def _robust_shape(cones) -> str | None:
    """'NxK' for a robust design program (K order-2N then K order-2N+2 PSD
    blocks and one orthant block), else None."""
    orders = [getattr(c, "order", None) for c in cones[:-1]]
    k = len(orders) // 2
    if k == 0 or len(orders) != 2 * k or None in orders:
        return None
    w, z = orders[:k], orders[k:]
    if len(set(w)) != 1 or len(set(z)) != 1 or z[0] != w[0] + 2:
        return None
    return f"{w[0] // 2}x{k}"


def _solve_info(args, kwargs, result) -> dict:
    prog = args[0] if args else kwargs["prog"]
    return {
        "status": result.status.name.lower(),
        "iterations": int(result.iterations),
        "rows": int(prog.A.shape[0]),
        "nnz": int(np.count_nonzero(prog.A)),
        "size": int(prog.A.size),
        "shape": _robust_shape(prog.cones),
    }


def _build_info(args, kwargs, result) -> dict:
    if args and hasattr(args[0], "n_antennas"):
        return {"shape": f"{args[0].n_antennas}x{args[0].n_users}"}
    return {}


INFO_HOOKS = {
    "conic.solve": _solve_info,
    "formulations.build_robust_sdp": _build_info,
}


class Tracer:
    """Installs wrappers, records spans, and reduces them to layer metrics."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.wrapped = 0
        self._wrappers: dict | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------
    def _public_functions(self) -> dict:
        """{function: 'layer.name'} for every public function of each layer."""
        found = {}
        for layer in LAYERS:
            module = getattr(self.package, layer)
            names = set(self.package.__all__) | ({"main"} if layer == "cli" else set())
            for name in names:
                fn = getattr(module, name, None)
                if callable(fn) and getattr(fn, "__module__", None) == module.__name__:
                    if isinstance(fn, type):
                        continue
                    found[fn] = f"{layer}.{name}"
        return found

    def _wrap(self, fn, name: str):
        hook = INFO_HOOKS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            record = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(record)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if hook is not None:
                record[INFO] = hook(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._wrappers is None:
            targets = self._public_functions()
            self._wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        wrappers = self._wrappers
        modules = [self.package] + [getattr(self.package, layer) for layer in LAYERS]
        for module in modules:
            for attr, value in list(vars(module).items()):
                try:
                    wrapper = wrappers.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        self.wrapped = len(self._patched)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- operations -----------------------------------------------------
    def begin(self, op: int) -> None:
        self.op = op
        self.stack.append(len(self.spans))
        self.spans.append(["bench.op", perf_counter(), 0.0, -1, op, None])

    def end(self) -> None:
        self.spans[self.stack.pop()][END] = perf_counter()
        self.op = None

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def layer_metrics(spans: list[list], ops: int, factors: list[float]) -> tuple[dict, dict]:
    """Reduce the spans of operations 0..ops-1 to per-layer metrics.

    Span durations of operation i are multiplied by factors[i], the host
    speed scale measured just before it, like the end-to-end times.

    Returns (metrics, shapes): metrics maps '<layer>.<metric>' to a number;
    shapes maps a robust design shape to its per-shape solve and build
    figures. A layer's busy time counts only spans entered from outside the
    layer, so nested calls inside a layer are not counted twice; its self
    time is each span's duration minus the part its direct children cover.
    """
    keep = [i for i, s in enumerate(spans) if s[OP] < ops]
    dur = {i: (spans[i][END] - spans[i][START]) * factors[spans[i][OP]] for i in keep}
    child_time = {i: 0.0 for i in keep}
    for i in keep:
        parent = spans[i][PARENT]
        if parent >= 0:
            child_time[parent] += dur[i]

    def layer(i: int) -> str:
        return spans[i][NAME].split(".", 1)[0]

    def entered(i: int) -> bool:
        parent = spans[i][PARENT]
        return parent < 0 or layer(parent) != layer(i)

    self_time = {i: dur[i] - child_time[i] for i in keep}
    by_name: dict[str, list[int]] = {}
    for i in keep:
        by_name.setdefault(spans[i][NAME], []).append(i)

    def named(name: str) -> list[int]:
        return by_name.get(name, [])

    def layer_self(name: str) -> float:
        return sum(self_time[i] for i in keep if layer(i) == name)

    def layer_busy(name: str) -> tuple[int, float]:
        outer = [i for i in keep if layer(i) == name and entered(i)]
        return len(outer), sum(dur[i] for i in outer)

    # A solve that raised has no outcome; its op is already counted failed.
    solves = [i for i in named("conic.solve") if spans[i][INFO] is not None]
    infos = [spans[i][INFO] for i in solves]
    iterations = sum(info["iterations"] for info in infos)
    solve_busy = sum(dur[i] for i in solves)
    builds = [i for i in keep if spans[i][NAME] in BUILDERS]
    margins = named("formulations.worst_case_margin")
    trs = named("hermitian.trs_maximize")
    rank = named("hermitian.numerical_rank")
    cert_calls, cert_busy = layer_busy("certificates")
    audits = set(named("harness.duality_audit"))

    metrics = {
        "conic.calls": len(solves),
        "conic.iterations": iterations,
        "conic.busy_s": solve_busy,
        "conic.s_per_iteration": solve_busy / iterations if iterations else 0.0,
        "conic.status.optimal": sum(info["status"] == "optimal" for info in infos),
        "conic.status.primal_infeasible": sum(
            info["status"] == "primal_infeasible" for info in infos
        ),
        "conic.status.numerical_failure": sum(
            info["status"] == "numerical_failure" for info in infos
        ),
        "conic.rows_mean": statistics.fmean(info["rows"] for info in infos) if infos else 0.0,
        "conic.a_nonzero_share": (
            sum(info["nnz"] for info in infos) / sum(info["size"] for info in infos)
            if infos
            else 0.0
        ),
        "formulations.build_calls": len(builds),
        "formulations.build_s": sum(dur[i] for i in builds),
        "formulations.extract_s": sum(dur[i] for i in named("formulations.extract_solution")),
        "formulations.margin_calls": len(margins),
        "formulations.margin_self_s": sum(self_time[i] for i in margins),
        "hermitian.trs_calls": len(trs),
        "hermitian.trs_s": sum(dur[i] for i in trs),
        "hermitian.rank_calls": len(rank),
        "hermitian.rank_s": sum(dur[i] for i in rank),
        "certificates.calls": cert_calls,
        "certificates.busy_s": cert_busy,
        "harness.self_s": layer_self("harness"),
        "harness.audit_evaluations": sum(spans[i][PARENT] in audits for i in solves),
        "cli.self_s": layer_self("cli"),
    }

    shapes: dict[str, dict] = {}
    for i in solves:
        shape = spans[i][INFO]["shape"]
        if shape is not None:
            entry = shapes.setdefault(shape, {"solve_s": [], "iterations": [], "build_s": []})
            entry["solve_s"].append(dur[i])
            entry["iterations"].append(spans[i][INFO]["iterations"])
    for i in named("formulations.build_robust_sdp"):
        entry = shapes.get((spans[i][INFO] or {}).get("shape"))
        if entry is not None:
            entry["build_s"].append(dur[i])
    per_shape = {
        shape: {
            "solves": len(entry["solve_s"]),
            "iterations_per_solve": statistics.fmean(entry["iterations"]),
            "solve_p50_s": statistics.median(entry["solve_s"]),
            "build_p50_s": statistics.median(entry["build_s"]) if entry["build_s"] else None,
        }
        for shape, entry in sorted(shapes.items())
    }
    return metrics, per_shape
