"""Outside-in layer tracing: wrap the public functions of each parasuper
layer in spans, from the benchmark's own code, without editing the package.

A span is [name, start, end, parent index, command index].  Spans live in a
list in memory and are written out once, at the end of a traced pass.  A
span's self time is its duration minus the time its child spans cover; the
per-layer `*_s` metrics are sums of self time, so they add up to the traced
wall time together with the self time of the `cli.main` roots.

`algebra` and `linalg` are leaf layers called millions of times and are not
wrapped: a wrapper per call would swamp them.  Their cost shows up as self
time of the layer that calls them.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from functools import cached_property
from time import perf_counter

LAYERS = ("groups", "orbits", "utheory", "chartab", "gtheory", "theory", "verify", "cli")
THEORY_KINDS = ("U-on-U", "Ub-on-G", "Gb-on-G")
SUITES = ("lemmas", "axioms", "oracles", "classification", "refinement")

# span name -> (module, attribute or Class.attribute) it wraps
SPANS = {
    "groups.world": [("groups", "build_spec"), ("groups", "Parabolic.__init__")],
    "groups.tables": [("groups", "Parabolic." + t) for t in
                      ("mulL", "invL", "conjL", "mulU", "invU", "conjUbyL")],
    "groups.classes": [("groups", "Parabolic.g_classes"), ("groups", "Parabolic.u_group_classes")],
    "orbits.partition": [("orbits", "partition_orbits")],
    "orbits.closure": [("orbits", "orbit_closure")],
    "orbits.quotient": [("orbits", "smallest_bimodule"), ("orbits", "quotient_orbits")],
    "utheory.form_data": [("utheory", "FormData.__init__")],
    "utheory.chi_alpha_u": [("utheory", "chi_alpha_u")],
    "utheory.orbit_sums": [("utheory", "orbit_eps_counts"), ("utheory", "counts_to_values")],
    "utheory.superclass": [("utheory", "superclass_u")],
    "utheory.build": [("utheory", "build_u_theory")],
    "chartab.irr": [("chartab", "irr_characters")],
    "chartab.orbit_sums": [("chartab", "s_orbit_sums")],
    "gtheory.build": [("gtheory", "build_g_theory")],
    "gtheory.pair_context": [("gtheory", "pair_context")],
    "gtheory.classify": [("gtheory", "classify_g_orbits")],
    "theory.canonical": [("theory", "dedup_chars"), ("theory", "dedup_classes"),
                         ("theory", "sort_canonical")],
    "verify.run": [("verify", "run_suites")],
    "verify.suite.lemmas": [("verify", "check_lemmas")],
    "verify.suite.axioms": [("verify", "check_supertheory")],
    "verify.suite.oracles": [("verify", "check_oracles")],
    "verify.suite.classification": [("verify", "check_classification")],
    "verify.suite.refinement": [("verify", "check_refinement")],
    "verify.induce": [("verify", "induce_exact")],
    "verify.gram": [("verify", "integer_gram")],
    "cli.emit": [("cli", "emit_table"), ("cli", "emit")],
}

# per-layer metrics: name -> unit; BENCHMARK.json lists exactly these
SECONDS = ["groups.world_s", "groups.tables_s", "groups.classes_s",
           "orbits.partition_s", "orbits.closure_s", "orbits.quotient_s",
           "utheory.form_data_s", "utheory.chi_alpha_u_s", "utheory.orbit_sums_s",
           "utheory.superclass_s", "utheory.build_s",
           "chartab.irr_s", "chartab.orbit_sums_s",
           "gtheory.build_s", "gtheory.pair_context_s", "gtheory.classify_s"]
SECONDS += ["verify.suite.%s_s" % s for s in SUITES]
SECONDS += ["verify.induce_s", "verify.gram_s", "cli.emit_s"]
SECONDS += ["%s.self_s" % layer for layer in LAYERS]
COUNTS = ["groups.L_order", "groups.U_order", "groups.field_degree",
          "orbits.closure_calls", "orbits.closure_points", "utheory.forms",
          "utheory.chi_alpha_u_calls", "utheory.orbit_sum_calls",
          "chartab.irr_calls", "chartab.irr_nonabelian", "gtheory.signatures"]
COUNTS += ["theory.%s.%s" % (c, k) for c in ("value_pool_size", "supercharacters", "superclasses")
           for k in THEORY_KINDS]
COUNTS += ["verify.induce_calls", "verify.gram_object_fallbacks",
           "verify.checks", "verify.checks_failed", "trace.spans"]
PER_LAYER = {name: "s" for name in SECONDS}
PER_LAYER.update({name: "count" for name in COUNTS})
PER_LAYER.update({"utheory.orbit_sum_reuse": "ratio", "cli.output_bytes": "bytes",
                  "trace.wall_s": "s", "trace.coverage": "ratio", "trace.overhead_s": "s"})

ROOT = "cli.main"


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.command = -1
        # keyed by (command, id(world)): a command builds one world, which
        # lives until the command ends, so ids cannot collide within a key
        self._orbits_seen = set()
        self._signatures = {}

    def wrap(self, name, fn, after=None):
        """`fn` inside a span `name`; `after(args, result)` updates counters."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.command])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if after is not None:
                after(args, result)
            return result
        return traced

    def observe(self, fn, after):
        """`fn` with a counter hook but no span (for memoized lookups)."""
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result
        return counted

    def run_command(self, index, main, argv):
        self.command = index
        return self.wrap(ROOT, main)(argv)

    # -- counter hooks -------------------------------------------------------

    def _world_built(self, args, _):
        world = args[0]
        self.counts["groups.L_order"] += world.nL
        self.counts["groups.U_order"] += world.nU
        self.counts["groups.field_degree"] += world.field.dim

    def _closure(self, _, orbit):
        self.counts["orbits.closure_points"] += orbit.size

    def _orbit_sum(self, args, _):
        world, points = args[0], args[1]
        self.counts["utheory.orbit_sum_calls"] += 1
        self._orbits_seen.add((self.command, id(world), points.tobytes()))

    def _irr(self, args, _):
        self.counts["chartab.irr_nonabelian"] += not args[0].is_abelian()

    def _signatures_seen(self, args, result):
        self._signatures[self.command, id(args[0])] = len(result)

    def _theory(self, _, theory):
        self.counts["theory.value_pool_size." + theory.kind] += len(theory.pool)
        self.counts["theory.supercharacters." + theory.kind] += len(theory.chars)
        self.counts["theory.superclasses." + theory.kind] += len(theory.classes)

    def _gram(self, _, out):
        self.counts["verify.gram_object_fallbacks"] += out.dtype == object

    def _check(self, args, _):
        self.counts["verify.checks"] += 1
        self.counts["verify.checks_failed"] += not args[2]

    def _emit(self, args, _):
        self.counts["cli.output_bytes"] += len(args[0].encode("utf-8"))

    # -- installation --------------------------------------------------------

    def install(self):
        """Replace each wrapped function everywhere the package binds it."""
        import parasuper
        from parasuper import (chartab, cli, groups, gtheory, orbits, theory,
                               utheory, verify)
        modules = {"groups": groups, "orbits": orbits, "utheory": utheory,
                   "chartab": chartab, "gtheory": gtheory, "theory": theory,
                   "verify": verify, "cli": cli}
        bindings = [parasuper] + list(modules.values())
        hooks = {
            "Parabolic.__init__": self._world_built,
            "orbit_closure": self._closure,
            "orbit_eps_counts": self._orbit_sum,
            "irr_characters": self._irr,
            "build_u_theory": self._theory,
            "build_g_theory": self._theory,
            "integer_gram": self._gram,
            "emit": self._emit,
        }
        for span, targets in SPANS.items():
            for module_name, attr in targets:
                module = modules[module_name]
                hook = hooks.get(attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    _patch_method(getattr(module, cls_name), meth,
                                  lambda fn, s=span, h=hook: self.wrap(s, fn, h))
                else:
                    original = getattr(module, attr)
                    _rebind(bindings, original, self.wrap(span, original, hook))
        _rebind(bindings, gtheory.signature_classes,
                self.observe(gtheory.signature_classes, self._signatures_seen))
        _patch_method(verify.Report, "add", lambda fn: self.observe(fn, self._check))

    # -- results -------------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the time direct children cover."""
        selfs = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                selfs[parent] -= end - start
        return selfs

    def metrics(self):
        """Every per-layer metric but `trace.overhead_s`, which needs an
        untraced pass to compare with."""
        selfs = self.self_times()
        by_name = Counter()
        calls = Counter()
        for (name, *_), own in zip(self.spans, selfs):
            by_name[name] += own
            calls[name] += 1
        roots = [(s, e) for name, s, e, parent, _ in self.spans if parent < 0]
        wall = sum(e - s for s, e in roots)
        root_self = sum(own for span, own in zip(self.spans, selfs) if span[3] < 0)

        out = {name: 0.0 if unit in ("s", "ratio") else 0 for name, unit in PER_LAYER.items()}
        out.update(self.counts)
        for name in SECONDS:
            if name.endswith(".self_s"):
                layer = name[:-len(".self_s")]
                out[name] = sum(v for k, v in by_name.items() if k.split(".")[0] == layer)
            else:
                out[name] = by_name[name[:-2]]
        out["orbits.closure_calls"] = calls["orbits.closure"]
        out["utheory.forms"] = calls["utheory.form_data"]
        out["utheory.chi_alpha_u_calls"] = calls["utheory.chi_alpha_u"]
        calls_sums = self.counts["utheory.orbit_sum_calls"]
        out["utheory.orbit_sum_reuse"] = len(self._orbits_seen) / calls_sums if calls_sums else 0.0
        out["chartab.irr_calls"] = calls["chartab.irr"]
        out["gtheory.signatures"] = sum(self._signatures.values())
        out["verify.induce_calls"] = calls["verify.induce"]
        out["trace.spans"] = len(self.spans)
        out["trace.wall_s"] = wall
        out["trace.coverage"] = (wall - root_self) / wall if wall else 0.0
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id,
                       "fields": ["name", "start", "end", "parent", "command"],
                       "spans": self.spans}, fh)


def _rebind(modules, original, replacement):
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch_method(cls, name, wrap):
    current = cls.__dict__[name]
    if isinstance(current, cached_property):
        replacement = cached_property(wrap(current.func))
        replacement.__set_name__(cls, name)
    else:
        replacement = wrap(current)
    setattr(cls, name, replacement)
