"""Spans around calls into freelab's modules, installed from outside them.

A traced run replaces chosen functions, wherever a freelab module or one of
its dispatch tables holds them, with wrappers that record a span: name,
start, end, parent span on the same thread, time covered by child spans,
and the exception that escaped, if any.  Spans stay in memory; the layer
metrics are computed from them when the run ends.  An untraced run never
imports this module's wrappers into freelab, which `installed_wrappers`
lets the benchmark confirm.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict

import numpy as np
from freelab.errors import HypothesisError, SolverError

MARK = "__perfbench_span__"

# (module, attribute, span name).  A layer's self time is its spans'
# durations minus what their child spans on the same thread cover.
TARGETS = (
    ("freelab._grids", "roots_legendre", "_grids.gl_build"),
    ("freelab.measures", "make_semicircular", "measures.build"),
    ("freelab.measures", "make_arcsine", "measures.build"),
    ("freelab.measures", "make_marchenko_pastur_family", "measures.build"),
    ("freelab.measures", "translate", "measures.build"),
    ("freelab.measures", "from_quantile_table", "measures.build"),
    ("freelab.measures", "pushforward_monotone", "measures.build"),
    ("freelab.potentials", "legendre_transform", "potentials.legendre"),
    ("freelab.potentials", "_conjugate_eval", "potentials.conjugate"),
    ("freelab.logpotential", "log_energy", "logpotential.log_energy"),
    ("freelab.logpotential", "euler_lagrange_residual", "logpotential.el_residual"),
    ("freelab.logpotential", "schwinger_dyson_residual", "logpotential.sd_residual"),
    ("freelab.equilibrium", "solve_equilibrium", "equilibrium.solve"),
    ("freelab.equilibrium", "moment_map", "equilibrium.moment_map"),
    ("freelab.transport", "w2", "transport.w2"),
    ("freelab.inequalities", "verify", "inequalities.verify"),
    ("freelab.rmt", "sample_eigenvalues", "rmt.sample"),
    ("freelab.cli", "parse_measure", "cli.parse"),
    ("freelab.cli", "parse_potential", "cli.parse"),
    ("freelab.cli", "emit_report", "cli.emit"),
    ("freelab.cli", "_write_csv", "cli.emit"),
    ("freelab.cli", "_write_json", "cli.emit"),
    ("freelab.cli", "_cmd_verify_suite", "cli.suite"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s", "thread",
                 "error", "info")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.error = None
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def has_ancestor(self, name: str) -> bool:
        p = self.parent
        while p is not None:
            if p.name == name:
                return True
            p = p.parent
        return False

    def nearest(self, name: str):
        p = self.parent
        while p is not None and p.name != name:
            p = p.parent
        return p


def _freelab_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "freelab" or n.startswith("freelab."))]


def installed_wrappers() -> int:
    """Number of module attributes or table entries holding a span wrapper."""
    count = 0
    for mod in _freelab_modules():
        for value in vars(mod).values():
            if getattr(value, MARK, False):
                count += 1
            elif isinstance(value, dict):
                count += sum(1 for v in list(value.values()) if getattr(v, MARK, False))
    return count


class Tracer:
    """Collects spans from wrapped freelab functions on any thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; used for the benchmark's own op spans."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name: str, fn):
        tracer = self
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, stack[-1] if stack else None, threading.get_ident())
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = exc
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start
                tracer.spans.append(span)
            if hook is not None:
                span.info = hook(fn, args, kwargs, result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def install(self):
        modules = _freelab_modules()
        for modname, attr, name in TARGETS:
            original = getattr(importlib.import_module(modname), attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                space = vars(mod)
                for key, value in list(space.items()):
                    if value is original:
                        self._patches.append((space, key, original))
                        space[key] = wrapper
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._patches.append((value, k, original))
                                value[k] = wrapper

    def uninstall(self):
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches.clear()


def _solve_info(fn, args, kwargs, result):
    return {"method": result.method, "iterations": result.iterations}


def _conjugate_info(fn, args, kwargs, result):
    return {"points": int(np.size(args[1]))}


def _sample_info(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    # rmt.sample_eigenvalues' own default burn-in
    burn_in = a["burn_in"] if a["burn_in"] is not None else max(150, a["sweeps"] // 4)
    kept = a["chains"] * a["N"] * a["sweeps"]
    return {"proposals": a["chains"] * a["N"] * (burn_in + a["sweeps"]),
            "kept_proposals": kept, "acceptance": result.acceptance_rate}


_HOOKS = {
    "equilibrium.solve": _solve_info,
    "potentials.conjugate": _conjugate_info,
    "rmt.sample": _sample_info,
}


def layer_metrics(spans, gl_builds: int, suite_workers: int) -> dict:
    """Per-layer numbers, keyed as in BENCHMARK.json's per_layer list."""
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def outer(name):
        return [s for s in by[name] if not s.has_ancestor(name)]

    def calls(name):
        return len(outer(name))

    def busy(name):
        return sum(s.duration for s in outer(name))

    def self_s(name):
        return sum(s.duration - s.child_s for s in by[name])

    def ratio(a, b):
        return a / b if b else 0.0

    solves = by["equilibrium.solve"]
    per_solve = defaultdict(int)
    for s in by["potentials.conjugate"]:
        host = s.nearest("equilibrium.solve")
        if host is not None:
            per_solve[id(host)] += 1
    soft = [s.info["iterations"] for s in solves
            if s.info is not None and s.info["method"] == "soft"]
    mm_solves = sum(1 for s in solves if s.has_ancestor("equilibrium.moment_map"))
    samples = [s for s in by["rmt.sample"] if s.info is not None]
    proposals = sum(s.info["proposals"] for s in samples)
    kept = sum(s.info["kept_proposals"] for s in samples)
    accepted = sum(s.info["acceptance"] * s.info["kept_proposals"] for s in samples)
    suites = outer("cli.suite")
    rows = [s for s in by["inequalities.verify"]
            if s.parent is None and any(
                s.thread != q.thread and q.start <= s.start and s.end <= q.end
                for q in suites)]
    suite_wall = sum(q.duration for q in suites)
    row_busy = sum(s.duration for s in rows)

    return {
        "grids.gl_builds": gl_builds,
        "grids.gl_build_s": busy("_grids.gl_build"),
        "measures.build.calls": calls("measures.build"),
        "measures.build.self_s": self_s("measures.build"),
        "potentials.legendre.builds": calls("potentials.legendre"),
        "potentials.legendre.build_s": busy("potentials.legendre"),
        "potentials.conjugate.evals": len(by["potentials.conjugate"]),
        "potentials.conjugate.points": sum(s.info["points"] for s in by["potentials.conjugate"]
                                           if s.info is not None),
        "potentials.conjugate.self_s": self_s("potentials.conjugate"),
        "potentials.conjugate.evals_per_solve": ratio(sum(per_solve.values()), len(per_solve)),
        "logpotential.log_energy.calls": calls("logpotential.log_energy"),
        "logpotential.log_energy.self_s": self_s("logpotential.log_energy"),
        "logpotential.el_residual.calls": calls("logpotential.el_residual"),
        "logpotential.el_residual.self_s": self_s("logpotential.el_residual"),
        "logpotential.sd_residual.self_s": self_s("logpotential.sd_residual"),
        "equilibrium.solve.calls": calls("equilibrium.solve"),
        "equilibrium.solve.busy_s": busy("equilibrium.solve"),
        "equilibrium.solve.self_s": self_s("equilibrium.solve"),
        "equilibrium.newton_iters_per_solve": ratio(sum(soft), len(soft)),
        "equilibrium.solve.failures": sum(1 for s in solves if isinstance(s.error, SolverError)),
        "equilibrium.moment_map.solves_per_call": ratio(mm_solves, calls("equilibrium.moment_map")),
        "transport.w2.calls": calls("transport.w2"),
        "transport.w2.self_s": self_s("transport.w2"),
        "inequalities.verify.calls": calls("inequalities.verify"),
        "inequalities.verify.busy_s": busy("inequalities.verify"),
        "inequalities.verify.self_s": self_s("inequalities.verify"),
        "inequalities.hypothesis_errors": sum(
            1 for s in outer("inequalities.verify") if isinstance(s.error, HypothesisError)),
        "rmt.sample.calls": calls("rmt.sample"),
        "rmt.sample.busy_s": busy("rmt.sample"),
        "rmt.sample.self_s": self_s("rmt.sample"),
        "rmt.proposals": proposals,
        "rmt.proposal_us": ratio(1e6 * busy("rmt.sample"), proposals),
        "rmt.acceptance_rate": ratio(accepted, kept),
        "cli.parse.calls": calls("cli.parse"),
        "cli.parse.self_s": self_s("cli.parse"),
        "cli.emit.calls": calls("cli.emit"),
        "cli.emit.self_s": self_s("cli.emit"),
        "cli.suite.wall_s": suite_wall,
        "cli.suite.row_busy_s": row_busy,
        "cli.suite.parallel_eff": ratio(row_busy, suite_wall * suite_workers),
        "bench.ops": calls("bench.op"),
        "bench.op_busy_s": busy("bench.op"),
    }
