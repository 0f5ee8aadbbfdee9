"""In-memory span tracing around the program's public functions.

``Tracer.install`` replaces each traced function at every module
attribute of ``jointtri`` that binds it (``verify_joint`` is bound in both
``jointtri.greedy`` and ``jointtri.oracle``, for example), so calls the
program makes internally are traced too.  Each call becomes one span with
its name, start, end, parent span and instance id, plus the counts its
annotator reads off the arguments and result.  ``iter_triangulations`` is a
generator; it is wrapped to count what it yields, not timed.

A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter


def _size(x):
    return len(x) if hasattr(x, "__len__") else None


# (module, function) -> annotator(args, result) -> counts kept on the span.
TRACED = {
    ("geom", "orient_sign_tensor"): None,
    ("files", "parse_instance"): None,
    ("triangles", "enumerate_empty"): lambda a, r: {"found": len(r)},
    ("triangles", "paired_empty"): lambda a, r: {"kept": len(r)},
    ("conditions", "check_hull_correspondence"): lambda a, r: {"ok": r.ok},
    ("conditions", "legal_set"): lambda a, r: {
        "in": len(a[1]), "kept": len(r.legal), "removed": len(r.removed)},
    ("greedy", "greedy_construct"): lambda a, r: {
        "legal": len(a[1]), "rounds": len(r.choices or ()),
        "unverified": not r.verified},
    ("greedy", "verify_joint"): lambda a, r: {"triangles": _size(a[1])},
    ("polygon", "visibility_graph"): lambda a, r: {"edges": len(r)},
    ("polygon", "ivg"): lambda a, r: {"shared": len(r)},
    ("polygon", "dp_joint_polygon"): lambda a, r: {"found": r is not None},
    ("polygon", "verify_polygon_joint"): None,
    ("oracle", "oracle_joint_exists"): None,
    ("oracle", "polygon_oracle_exists"): None,
}
COUNTED_GENERATORS = {("oracle", "iter_triangulations"): "yielded"}


class Tracer:
    """Spans and counters of the traced calls.  Build it after ``jointtri``
    is imported; ``install`` and ``uninstall`` switch the wrappers in and
    out, so traced and untraced runs can alternate in one process."""

    def __init__(self) -> None:
        # Each span: [name, start, end, parent index or -1, instance, counts]
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.instance = -1
        self._stack: list[int] = []
        self._bindings = self._bind()

    def _span(self, name, fn, annotate):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            rec = [name, 0.0, 0.0, parent, self.instance, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
            if annotate is not None:
                rec[5] = annotate(args, result)
            return result
        return wrapper

    def _counting(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counters[name] = self.counters.get(name, 0) + 1
                yield item
        return wrapper

    def _bind(self) -> list[tuple]:
        """(module, attribute, original, wrapper) for every ``jointtri``
        module attribute bound to a traced function."""
        wrappers = {}
        for (mod, fname), annotate in TRACED.items():
            fn = getattr(sys.modules[f"jointtri.{mod}"], fname)
            wrappers[id(fn)] = (fn, self._span(f"{mod}.{fname}", fn, annotate))
        for (mod, fname), what in COUNTED_GENERATORS.items():
            fn = getattr(sys.modules[f"jointtri.{mod}"], fname)
            wrappers[id(fn)] = (fn, self._counting(f"{mod}.{fname}.{what}", fn))
        bindings = []
        for name, module in list(sys.modules.items()):
            if name == "jointtri" or name.startswith("jointtri."):
                for attr, value in vars(module).items():
                    if id(value) in wrappers and wrappers[id(value)][0] is value:
                        bindings.append((module, attr) + wrappers[id(value)])
        return bindings

    def install(self) -> None:
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, inst, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "instance": inst,
                                     "counts": counts}) + "\n")

    def layer_metrics(self, instances: int, scale: float) -> dict[str, float]:
        """Per-layer metrics over the traced spans; calls, self time and
        work counts are per instance, ratios are over their named base.
        Self times are multiplied by ``scale`` (wall to reference seconds)."""
        k = max(instances, 1)
        children: dict[int, list[int]] = {}
        by_name: dict[str, list[int]] = {}
        for idx, s in enumerate(self.spans):
            by_name.setdefault(s[0], []).append(idx)
            if s[3] >= 0:
                children.setdefault(s[3], []).append(idx)

        def spans(name):
            return by_name.get(name, [])

        def self_s(name):
            total = 0.0
            for i in spans(name):
                s = self.spans[i]
                total += (s[2] - s[1]) - sum(
                    self.spans[c][2] - self.spans[c][1] for c in children.get(i, ()))
            return total * scale / k

        def total(name, key):
            return sum(self.spans[i][5][key] for i in spans(name)
                       if self.spans[i][5][key] is not None)

        def first_child(i, name):
            return next((c for c in children.get(i, ()) if self.spans[c][0] == name), None)

        def ratio(num, den):
            return num / den if den else 0.0

        out: dict[str, float] = {}
        for name in ("geom.orient_sign_tensor", "triangles.enumerate_empty",
                     "greedy.verify_joint", "polygon.visibility_graph",
                     "polygon.verify_polygon_joint", "oracle.oracle_joint_exists",
                     "oracle.polygon_oracle_exists"):
            out[f"{name}.calls"] = len(spans(name)) / k
        for (mod, fname) in TRACED:
            out[f"{mod}.{fname}.self_s"] = self_s(f"{mod}.{fname}")

        out["triangles.empty_found"] = total("triangles.enumerate_empty", "found") / k
        e_a = 0
        for i in spans("triangles.paired_empty"):
            c = first_child(i, "triangles.enumerate_empty")
            e_a += self.spans[c][5]["found"] if c is not None else 0
        out["triangles.paired_kept_ratio"] = ratio(total("triangles.paired_empty", "kept"), e_a)

        out["conditions.legal_removed"] = total("conditions.legal_set", "removed") / k
        out["conditions.legal_kept_ratio"] = ratio(total("conditions.legal_set", "kept"),
                                                   total("conditions.legal_set", "in"))
        passed = sum(1 for i in spans("conditions.legal_set") if self.spans[i][5]["kept"])
        out["conditions.nc_pass"] = ratio(passed, len(spans("conditions.check_hull_correspondence")))

        greedy = spans("greedy.greedy_construct")
        out["greedy.rounds"] = ratio(total("greedy.greedy_construct", "rounds"), len(greedy))
        out["greedy.commit_ratio"] = ratio(total("greedy.greedy_construct", "rounds"),
                                           total("greedy.greedy_construct", "legal"))
        out["greedy.verify_joint.triangles"] = ratio(total("greedy.verify_joint", "triangles"),
                                                     len(spans("greedy.verify_joint")))
        out["greedy.unverified"] = total("greedy.greedy_construct", "unverified")

        ivgs = spans("polygon.ivg")
        vg_a = 0
        for i in ivgs:
            c = first_child(i, "polygon.visibility_graph")
            vg_a += self.spans[c][5]["edges"] if c is not None else 0
        out["polygon.shared_edges"] = ratio(total("polygon.ivg", "shared"), len(ivgs))
        out["polygon.shared_ratio"] = ratio(total("polygon.ivg", "shared"), vg_a)
        out["polygon.dp_found"] = ratio(total("polygon.dp_joint_polygon", "found"),
                                        len(spans("polygon.dp_joint_polygon")))

        out["oracle.iter_triangulations.yielded"] = \
            self.counters.get("oracle.iter_triangulations.yielded", 0) / k
        poracle = spans("oracle.polygon_oracle_exists")
        candidates = sum(1 for i in poracle for c in children.get(i, ())
                         if self.spans[c][0] == "polygon.verify_polygon_joint")
        out["oracle.polygon_candidates"] = ratio(candidates, len(poracle))
        return out
