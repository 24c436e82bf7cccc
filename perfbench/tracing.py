"""Spans around the public functions of `tcr`, recorded from outside.

`install` replaces every public function of every `tcr.*` module by a
wrapper, at every module binding that holds the original object, so a
function imported with `from .blueprint import is_good` is traced where
it is called as well as where it is defined.  A span is a list
[name, start, end, parent index, counts]; spans stay in memory and the
caller writes them out when the job ends.

`PassTotals` turns the spans of one pass into the per-layer metrics:
`_s` names are self time (duration minus the time covered by child spans)
summed over the pass, the other names are counts.
"""
from __future__ import annotations

import functools
import sys
import types
from time import perf_counter

# Helpers called once per edge or per report node.  Their cost stays in the
# caller's self time (build for canon_edge, emit for the other two), and a
# span per call would cost more than the work it measures.
UNTRACED = {"hypergraph.canon_edge", "cli.to_jsonable", "cli.rat"}


def _label(module_name: str, func_name: str) -> str:
    return module_name.split(".", 1)[1] + "." + func_name


def _counts(label, args, result):
    """Work counts read from a call's arguments or its returned record."""
    if label == "hypergraph.build":
        return {"edges": result.graph.m}
    if label in ("tight.find_tight_cycle", "tight.find_tight_path"):
        return {"explored": result.explored}
    if label == "matchings.max_matching_exact":
        return {"nodes": result.nodes}
    if label == "extremal.ramsey_search_tiny":
        return {"nodes": result.nodes, "prunes": result.prunes}
    if label == "blowup.blow_up":
        return {"blown_edges": result[0].graph.m}
    if label == "lp.simplex_max":
        c, rows = args[0], args[1]
        return {"cells": (len(rows) + 1) * (len(c) + len(rows) + 1)}
    if label == "augment.augment_once":
        counts = {"status." + result.status: 1}
        for entry in result.trace:
            claim = entry.get("claim")
            if claim == "red_k5_extensions":
                counts["red_k5"] = counts.get("red_k5", 0) + entry["count"]
            elif claim == "blue_partners":
                counts["blue_partners"] = counts.get("blue_partners", 0) + entry["count"]
            elif claim == "blue_route":
                counts["blue_route"] = counts.get("blue_route", 0) + 1
        return counts
    return None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.originals: dict = {}

    def span(self, name: str, start: float, end: float) -> None:
        """Record an interval measured by the caller (the package import)."""
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start, end, parent, None])

    def wrap(self, func, label):
        spans, stack = self.spans, self.stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            span[4] = _counts(label, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public tcr function at every binding that holds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "tcr" or name.startswith("tcr.")) and m is not None]
        wrappers = {}
        for mod in modules:
            for name, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    label = _label(mod.__name__, name)
                    if label not in UNTRACED:
                        wrappers[obj] = self.wrap(obj, label)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self.originals[(mod, name)] = obj
                    setattr(mod, name, wrappers[obj])

    def uninstall(self) -> None:
        for (mod, name), obj in self.originals.items():
            setattr(mod, name, obj)
        self.originals.clear()


# (metric, unit, how): how is ("self", label...) for summed self time,
# ("calls", label), ("count", label, key) or ("child_calls", label, parent label).
LAYER_METRICS = [
    ("cli.import_s", "s", ("self", "cli.import")),
    ("cli.parse_s", "s", ("self", "cli.parse_coloured_hypergraph")),
    ("hypergraph.build_s", "s", ("self", "hypergraph.build")),
    ("hypergraph.edges", "count", ("count", "hypergraph.build", "edges")),
    ("cli.emit_s", "s", ("self", "cli.emit")),
    ("hypergraph.density_check_s", "s", ("self", "hypergraph.density_check")),
    ("tight.monochromatic_components_s", "s", ("self", "tight.monochromatic_components")),
    ("tight.monochromatic_components_calls", "count", ("calls", "tight.monochromatic_components")),
    ("blueprint.pair_shadow_masks_s", "s", ("self", "blueprint.pair_shadow_masks")),
    ("blueprint.pair_shadow_masks_calls", "count", ("calls", "blueprint.pair_shadow_masks")),
    ("blueprint.build_blueprint_self_s", "s", ("self", "blueprint.build_blueprint")),
    ("blueprint.make_blueprint_s", "s", ("self", "blueprint.make_blueprint")),
    ("blueprint.trim_spanning_component_s", "s", ("self", "blueprint.trim_spanning_component")),
    ("blueprint.check_blueprint_s", "s", ("self", "blueprint.check_blueprint")),
    ("blueprint.compute_B_W_s", "s", ("self", "blueprint.compute_B_W")),
    ("blueprint.compute_B_W_calls", "count", ("calls", "blueprint.compute_B_W")),
    ("blueprint.is_good_calls", "count", ("calls", "blueprint.is_good")),
    ("blueprint.is_suitable_pair_calls", "count", ("calls", "blueprint.is_suitable_pair")),
    ("augment.run_driver_self_s", "s", ("self", "augment.run_driver")),
    ("augment.initial_matching_s", "s", ("self", "augment.initial_matching")),
    ("augment.augment_once_s", "s", ("self", "augment.augment_once")),
    ("augment.augment_once_calls", "count", ("calls", "augment.augment_once")),
    ("augment.steps_improved", "count", ("count", "augment.augment_once", "status.improved")),
    ("augment.steps_failed", "count", ("count", "augment.augment_once", "status.step_failed")),
    ("augment.steps_terminal", "count", ("count", "augment.augment_once", "status.terminal")),
    ("augment.route.red_k5", "count", ("count", "augment.augment_once", "red_k5")),
    ("augment.route.blue_partners", "count", ("count", "augment.augment_once", "blue_partners")),
    ("augment.route.blue_route", "count", ("count", "augment.augment_once", "blue_route")),
    ("matchings.validate_fractional_s", "s", ("self", "matchings.validate_fractional")),
    ("matchings.max_fractional_lp_s", "s", ("self", "matchings.max_fractional_lp")),
    ("matchings.max_fractional_lp_solves", "count",
     ("child_calls", "lp.matching_lp", "matchings.max_fractional_lp")),
    ("matchings.mu_estimate_s", "s", ("self", "matchings.mu_estimate")),
    ("matchings.max_r_fractional_s", "s", ("self", "matchings.max_r_fractional")),
    ("matchings.max_r_fractional_solves", "count",
     ("child_calls", "lp.matching_lp", "matchings.max_r_fractional")),
    ("matchings.max_matching_exact_s", "s", ("self", "matchings.max_matching_exact")),
    ("matchings.bnb_nodes", "count", ("count", "matchings.max_matching_exact", "nodes")),
    ("lp.simplex_max_s", "s", ("self", "lp.simplex_max")),
    ("lp.simplex_max_calls", "count", ("calls", "lp.simplex_max")),
    ("lp.tableau_cells", "count", ("count", "lp.simplex_max", "cells")),
    ("blowup.blow_up_s", "s", ("self", "blowup.blow_up")),
    ("blowup.blown_edges", "count", ("count", "blowup.blow_up", "blown_edges")),
    ("extremal.colouring_s", "s", ("self", "extremal.split_coloring", "extremal.parity_coloring")),
    ("extremal.verify_no_mono_cycle_s", "s", ("self", "extremal.verify_no_mono_cycle")),
    ("extremal.ramsey_search_tiny_s", "s", ("self", "extremal.ramsey_search_tiny")),
    ("extremal.ramsey_nodes", "count", ("count", "extremal.ramsey_search_tiny", "nodes")),
    ("extremal.ramsey_prunes", "count", ("count", "extremal.ramsey_search_tiny", "prunes")),
    ("tight.find_tight_cycle_s", "s", ("self", "tight.find_tight_cycle")),
    ("tight.dfs_explored", "count", ("count", "tight.find_tight_cycle", "explored")),
]


class PassTotals:
    """Self times, call counts and record counts summed over the jobs of a pass."""

    def __init__(self):
        self.self_s: dict = {}
        self.calls: dict = {}
        self.counts: dict = {}        # (label, key) -> total
        self.child_calls: dict = {}   # (label, parent label) -> calls

    def add_job(self, spans: list) -> None:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, counts in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, counts) in enumerate(spans):
            self.self_s[name] = self.self_s.get(name, 0.0) + (end - start) - child_time[i]
            self.calls[name] = self.calls.get(name, 0) + 1
            if parent >= 0:
                key = (name, spans[parent][0])
                self.child_calls[key] = self.child_calls.get(key, 0) + 1
            for key, value in (counts or {}).items():
                self.counts[(name, key)] = self.counts.get((name, key), 0) + value

    def metric(self, how) -> float:
        kind, label = how[0], how[1]
        if kind == "self":
            return sum(self.self_s.get(lb, 0.0) for lb in how[1:])
        if kind == "calls":
            return self.calls.get(label, 0)
        if kind == "count":
            return self.counts.get((label, how[2]), 0)
        if kind == "child_calls":
            return self.child_calls.get((label, how[2]), 0)
        raise ValueError(how)

    def layer_metrics(self) -> dict:
        return {name: self.metric(how) for name, _, how in LAYER_METRICS}
