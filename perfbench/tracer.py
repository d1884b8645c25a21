"""Outside-in layer tracer: wraps named ``rootfire`` functions in spans.

Each wrapped call is a span.  A span's self time is its duration minus
the time its child spans cover; spans are aggregated per name as they
close, so memory stays constant however many calls a run makes.

Leaf helpers called 10^5+ times per run (``rootsys.reflect_simple``,
``rootsys.pairing``) are deliberately not wrapped: the wrapper costs
more than their bodies and would distort every enclosing self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Functions wrapped per module; "Class.method" wraps the method on the class.
LAYERS = {
    "kernel": ("stabilize", "pairings"),
    "firing": ("stabilize", "check_confluence_random", "component", "fiber", "neighbors"),
    "polytope": ("perm_contains", "enumerate_perm", "traverse_bruteforce"),
    "rootsys": ("from_spec", "dominant_rep", "weyl_orbit", "RootSystem.root_coords"),
    "ehrhart": ("fit_ehrhart_like", "count_fiber"),
    "cli": ("main",),
}

# Per-layer metric -> unit, in report order.
METRICS = {
    "kernel.stabilize.calls": "count",
    "kernel.stabilize.self_s": "s",
    "kernel.steps": "count",
    "kernel.pairings.calls": "count",
    "kernel.pairings.self_s": "s",
    "firing.component.vertices": "count",
    "firing.component.self_s": "s",
    "firing.neighbors.calls": "count",
    "firing.neighbors.self_s": "s",
    "firing.neighbors_per_vertex": "ratio",
    "firing.pairings_per_vertex": "ratio",
    "firing.fiber.points": "count",
    "firing.fiber.self_s": "s",
    "firing.fiber.restabilize_ratio": "ratio",
    "firing.stabilize.self_s": "s",
    "firing.check_confluence_random.calls": "count",
    "firing.check_confluence_random.self_s": "s",
    "polytope.perm_contains.calls": "count",
    "polytope.perm_contains.self_s": "s",
    "polytope.enumerate_perm.calls": "count",
    "polytope.enumerate_perm.self_s": "s",
    "polytope.enumerate_perm.points": "count",
    "polytope.enumerate_perm.repeat_ratio": "ratio",
    "polytope.traverse_bruteforce.self_s": "s",
    "rootsys.root_coords.calls": "count",
    "rootsys.root_coords.self_s": "s",
    "rootsys.dominant_rep.calls": "count",
    "rootsys.dominant_rep.self_s": "s",
    "rootsys.weyl_orbit.calls": "count",
    "rootsys.weyl_orbit.self_s": "s",
    "rootsys.from_spec_s": "s",
    "ehrhart.fit.calls": "count",
    "ehrhart.samples": "count",
    "ehrhart.fit.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}


class Tracer:
    """Aggregates spans by name: call count, self time, total time, counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [name, seconds covered by children]
        self._perm_keys: set = set()

    def span(self, name, fn, args, kwargs):
        parent = self._stack[-1][0] if self._stack else None
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = self.clock() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += dt
            self.calls[name] += 1
            self.self_s[name] += dt - frame[1]
            self.total_s[name] += dt
        self._count(name, parent, args, result)
        return result

    def _count(self, name, parent, args, result):
        """Work counts taken where the work happens."""
        c = self.counts
        if name == "kernel.stabilize":
            c["kernel.steps"] += result[1]
        elif name == "kernel.pairings":
            if any(f[0] == "firing.fiber" for f in self._stack):
                c["pairings_in_fiber"] += 1
        elif name == "firing.component":
            c["component.vertices"] += len(result)
        elif name == "firing.fiber":
            c["fiber.points"] += len(result)
        elif name == "firing.stabilize" and parent == "firing.fiber":
            c["fiber.restabilize"] += 1
        elif name == "polytope.enumerate_perm":
            c["enumerate_perm.points"] += len(result.points)
            key = (args[0].spec, result.center)
            c["enumerate_perm.repeats"] += key in self._perm_keys
            self._perm_keys.add(key)

    def covered_s(self) -> float:
        """Seconds covered by all closed spans (the sum of their self times)."""
        return sum(self.self_s.values())


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.span(name, fn, args, kwargs)

    return traced


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap every function of ``LAYERS`` wherever a ``rootfire`` module binds it.

    A function imported with ``from .x import f`` is bound in several
    modules; each binding is replaced, so no caller bypasses the span.
    Raises ``LookupError`` if a named function no longer exists.  The
    original bindings are restored on exit.
    """
    layers = {layer: importlib.import_module(f"rootfire.{layer}") for layer in LAYERS}
    modules = [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "rootfire" or n.startswith("rootfire."))
    ]
    patches: list[tuple[object, str, object]] = []
    try:
        for layer, names in LAYERS.items():
            module = layers[layer]
            for qual in names:
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                fn = vars(owner).get(attr)
                if not callable(fn):
                    raise LookupError(f"rootfire.{layer}.{qual} no longer exists")
                wrapped = _wrap(tracer, f"{layer}.{attr}", fn)
                owners = [owner] if owner_name else modules
                for target in owners:
                    for key, value in list(vars(target).items()):
                        if value is fn:
                            patches.append((target, key, fn))
                            setattr(target, key, wrapped)
        yield tracer
    finally:
        for target, key, fn in reversed(patches):
            setattr(target, key, fn)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass (without trace.* ones)."""
    c = t.counts
    vertices = c["component.vertices"]
    points = c["fiber.points"]
    out = {
        "kernel.steps": c["kernel.steps"],
        "firing.component.vertices": vertices,
        "firing.neighbors_per_vertex": _ratio(t.calls["firing.neighbors"], vertices),
        "firing.pairings_per_vertex": _ratio(c["pairings_in_fiber"], points),
        "firing.fiber.points": points,
        "firing.fiber.restabilize_ratio": _ratio(c["fiber.restabilize"], points),
        "polytope.enumerate_perm.points": c["enumerate_perm.points"],
        "polytope.enumerate_perm.repeat_ratio": _ratio(
            c["enumerate_perm.repeats"], t.calls["polytope.enumerate_perm"]
        ),
        "rootsys.from_spec_s": t.total_s["rootsys.from_spec"],
        "ehrhart.fit.calls": t.calls["ehrhart.fit_ehrhart_like"],
        "ehrhart.samples": t.calls["ehrhart.count_fiber"],
        "ehrhart.fit.self_s": t.self_s["ehrhart.fit_ehrhart_like"],
    }
    for name in METRICS:
        span, _, stat = name.rpartition(".")
        if name in out or stat not in ("calls", "self_s"):
            continue
        out[name] = t.calls[span] if stat == "calls" else t.self_s[span]
    return out
