"""Spans and counts around calls into charzeros's public functions.

Nothing in the package changes: `Tracer.install` rebinds each entry point
below, in every loaded charzeros module that holds it (so the names `cli`
imports are wrapped too), and `uninstall` restores the originals.  Spans are
kept in memory as [name, start, end, parent index, op id] and reduced to
per-layer metrics when the run ends.  An entry point that no longer exists is
reported as absent, never as a zero.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import cached_property, update_wrapper
from time import perf_counter

# span name -> (module, attribute).  The span name's prefix is its layer.
FUNCTIONS = {
    "cli.main": ("charzeros.cli", "main"),
    "constructions.build": ("charzeros.constructions.registry", "build"),
    "chartab.character_table": ("charzeros.chartab", "character_table"),
    "chartab.verify_table": ("charzeros.chartab", "verify_table"),
    "chartab.table_to_text": ("charzeros.chartab", "table_to_text"),
    "chartab.table_from_text": ("charzeros.chartab", "table_from_text"),
    "vanishing.star_survey": ("charzeros.vanishing", "star_survey"),
    "vanishing.star_check": ("charzeros.vanishing", "star_check"),
    "vanishing.burnside_check": ("charzeros.vanishing", "burnside_check"),
    "vanishing.two_prime_degree_check": ("charzeros.vanishing", "two_prime_degree_check"),
    "vanishing.classify_one_class": ("charzeros.vanishing", "classify_one_class"),
    "vanishing.simple_one_class_survey": ("charzeros.vanishing", "simple_one_class_survey"),
    "vanishing.vanishing_classes": ("charzeros.vanishing", "vanishing_classes"),
    "numtheory.outer_bound_sweep": ("charzeros.numtheory", "outer_bound_sweep"),
    "numtheory.diophantine_solutions": ("charzeros.numtheory", "diophantine_solutions"),
    "numtheory.zsigmondy": ("charzeros.numtheory", "zsigmondy"),
    "numtheory.torus_orders": ("charzeros.numtheory", "torus_orders"),
}
# Cached properties of groupcore.Group; the span covers the first access only.
PROPERTIES = {"groupcore.elements": "elements", "groupcore.classes": "classes"}
# Calls counted without a span: CycloNum arithmetic runs millions of times.
COUNTED = {"cyclo.mul_n": ("__mul__", "__rmul__"), "cyclo.add_n": ("__add__", "__radd__"),
           "cyclo.conj_n": ("conjugate",)}

LAYERS = ("groupcore", "constructions", "chartab", "vanishing", "numtheory", "cli")
# The per_layer metrics of BENCHMARK.json, in order; run.py reports all of them.
METRICS = {
    "groupcore.enumerate_s": "s", "groupcore.classes_s": "s", "groupcore.elements_n": "count",
    "constructions.build_s": "s", "constructions.validate_s": "s",
    "chartab.table_s": "s", "chartab.table_self_s": "s", "chartab.verify_s": "s",
    "chartab.verify_n": "count", "chartab.io_s": "s", "chartab.degenerate_n": "count",
    "cyclo.mul_n": "count", "cyclo.add_n": "count", "cyclo.conj_n": "count",
    "vanishing.reports_s": "s",
    "numtheory.sweep_s": "s", "numtheory.zsigmondy_s": "s", "numtheory.torus_s": "s",
    "numtheory.prime_powers_n": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.coverage": "ratio", "trace.overhead_s": "s",
}
# The spans or counters each metric reads; one is absent when all of them are.
SOURCES = {
    "groupcore.enumerate_s": ("groupcore.elements",),
    "groupcore.classes_s": ("groupcore.classes",),
    "groupcore.elements_n": ("groupcore.elements",),
    "constructions.build_s": ("constructions.build",),
    "constructions.validate_s": ("constructions.build",),
    "chartab.table_s": ("chartab.character_table",),
    "chartab.table_self_s": ("chartab.character_table",),
    "chartab.degenerate_n": ("chartab.character_table",),
    "chartab.verify_s": ("chartab.verify_table",),
    "chartab.verify_n": ("chartab.verify_table",),
    "chartab.io_s": ("chartab.table_to_text", "chartab.table_from_text"),
    **{key: tuple(f"{key}:{a}" for a in attrs) for key, attrs in COUNTED.items()},
    "vanishing.reports_s": tuple(n for n in FUNCTIONS if n.startswith("vanishing.")),
    "numtheory.sweep_s": ("numtheory.outer_bound_sweep", "numtheory.diophantine_solutions"),
    "numtheory.zsigmondy_s": ("numtheory.zsigmondy",),
    "numtheory.torus_s": ("numtheory.torus_orders",),
    **{f"{layer}.self_s": tuple(n for n in (*FUNCTIONS, *PROPERTIES)
                                 if n.startswith(layer + "."))
       for layer in LAYERS},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1
        self.probe_s: Counter = Counter()  # host-speed probe time inside each span
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, str, object]] = []
        self._prepare()

    def _span(self, name, fn, after=None):
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after:
                after(result)
            return result

        return update_wrapper(wrapper, fn)

    def _count(self, key, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return update_wrapper(wrapper, fn)

    def _prepare(self):
        """Build every wrapper up front; install/uninstall only rebind names."""
        mods = [m for name, m in sys.modules.items()
                if name == "charzeros" or name.startswith("charzeros.")]
        for span, (modname, attr) in FUNCTIONS.items():
            fn = getattr(sys.modules.get(modname), attr, None)
            if fn is None:
                self.absent.append(span)
                continue
            wrapped = self._span(span, fn)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        self._wrappers.append((m, key, wrapped))
                        self._undo.append((m, key, fn))

        group = getattr(sys.modules.get("charzeros.groupcore"), "Group", None)
        for span, attr in PROPERTIES.items():
            prop = vars(group).get(attr) if group else None
            if not isinstance(prop, cached_property):
                self.absent.append(span)
                continue
            after = None
            if attr == "elements":
                def after(result):
                    self.counts["groupcore.elements_n"] += len(result)
            new = cached_property(self._span(span, prop.func, after))
            new.__set_name__(group, attr)
            self._wrappers.append((group, attr, new))
            self._undo.append((group, attr, prop))

        cyclo = getattr(sys.modules.get("charzeros.cyclo"), "CycloNum", None)
        for key, attrs in COUNTED.items():
            for attr in attrs:
                fn = vars(cyclo).get(attr) if cyclo else None
                if fn is None:
                    self.absent.append(f"{key}:{attr}")
                    continue
                self._wrappers.append((cyclo, attr, self._count(key, fn)))
                self._undo.append((cyclo, attr, fn))

    def exclude(self, seconds: float):
        """Take a host-speed probe run inside the open spans out of them."""
        for idx in self.stack:
            self.probe_s[idx] += seconds

    def absent_metrics(self) -> list[str]:
        return [m for m, src in SOURCES.items() if all(s in self.absent for s in src)]

    def install(self):
        for owner, attr, val in self._wrappers:
            setattr(owner, attr, val)

    def uninstall(self):
        for owner, attr, val in self._undo:
            setattr(owner, attr, val)

    def metrics(self, rounds: int, traced_wall_s: float, overhead_s: float,
                prime_powers: int, speeds: list[float]) -> dict[str, float]:
        """Per-layer metrics per traced round; times in reference seconds, each
        span scaled by the host-speed factor of its op."""
        spans = self.spans
        durs = [end - start - self.probe_s[i] for i, (_, start, end, _, _) in enumerate(spans)]
        child = [0.0] * len(spans)
        for i, (_, _, _, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += durs[i]
        total: Counter = Counter()   # inclusive time by span name
        own: Counter = Counter()     # self time by span name
        outer: Counter = Counter()   # inclusive time of spans not nested in their own layer
        top = 0.0
        for i, (name, _, _, parent, op) in enumerate(spans):
            f = speeds[op]
            dur = durs[i] * f
            total[name] += dur
            own[name] += dur - child[i] * f
            layer = name.split(".")[0]
            if parent < 0:
                top += dur
            if parent < 0 or spans[parent][0].split(".")[0] != layer:
                outer[name] += dur
        layer_self: Counter = Counter()
        for name, t in own.items():
            layer_self[name.split(".")[0]] += t
        c = self.counts
        m = {
            "groupcore.enumerate_s": total["groupcore.elements"],
            "groupcore.classes_s": own["groupcore.classes"],
            "groupcore.elements_n": c["groupcore.elements_n"],
            "constructions.build_s": total["constructions.build"],
            "constructions.validate_s": own["constructions.build"],
            "chartab.table_s": total["chartab.character_table"],
            "chartab.table_self_s": own["chartab.character_table"],
            "chartab.verify_s": total["chartab.verify_table"],
            "chartab.verify_n": sum(1 for s in spans if s[0] == "chartab.verify_table"),
            "chartab.io_s": total["chartab.table_to_text"] + total["chartab.table_from_text"],
            "chartab.degenerate_n": c["chartab.character_table.raised.Degenerate"],
            "cyclo.mul_n": c["cyclo.mul_n"],
            "cyclo.add_n": c["cyclo.add_n"],
            "cyclo.conj_n": c["cyclo.conj_n"],
            "vanishing.reports_s": sum(t for n, t in outer.items() if n.startswith("vanishing.")),
            "numtheory.sweep_s": total["numtheory.outer_bound_sweep"]
            + total["numtheory.diophantine_solutions"],
            "numtheory.zsigmondy_s": outer["numtheory.zsigmondy"],
            "numtheory.torus_s": total["numtheory.torus_orders"],
            "numtheory.prime_powers_n": prime_powers,
            **{f"{layer}.self_s": layer_self[layer] for layer in LAYERS},
        }
        m = {k: v / rounds for k, v in m.items()}
        m["trace.coverage"] = top / traced_wall_s
        m["trace.overhead_s"] = overhead_s
        return m
