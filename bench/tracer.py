"""Outside-in span tracing of the library's layers.

The tracer wraps the public functions and methods of the library's modules
from the benchmark's side; the library itself is not changed.  Wrapping
follows how callers resolve a name: a method is replaced on its class, and a
function is replaced in every ``qreider`` module that holds it, whatever
name it was imported under.  Each call records a span (name, start, end,
parent) in memory; ``write`` stores them when the run ends.

A span's self time is its duration minus the durations of its direct child
spans, so the self times of all spans add up to the duration of the root
spans the benchmark opens around its operations.
"""

from __future__ import annotations

import fnmatch
import functools
import gzip
import inspect
import sys
import time
from array import array

ROOT_SPAN = "bench.op"

CHECKERS = [
    "criteria.freeness_at",
    "criteria.separation",
    "criteria.tangent_separation",
    "criteria.very_ampleness",
    "criteria.threshold_very_ampleness",
    "criteria.plc_threshold",
    "criteria.jet_separation",
]

# Per-layer metrics: (kind, span-name patterns).  ``self`` sums self time,
# ``calls`` counts calls, ``rejected`` counts calls that raised or whose
# result REJECTS marks as a rejection.
LAYERS = {
    "lattice.intersect.calls": ("calls", ["lattice.DivisorClass.intersect"]),
    "lattice.intersect.self_s": ("self", ["lattice.DivisorClass.intersect"]),
    "surface.divisor_class.self_s": ("self", ["surface.QDivisor.divisor_class"]),
    "cones.degree_oracle.calls": ("calls", ["cones.min_degree", "search.*Degrees.min_degree"]),
    "cones.degree_oracle.self_s": ("self", ["cones.min_degree", "search.*Degrees.min_degree"]),
    "search.candidates": ("calls", ["search.ParamFamily.instantiate"]),
    "search.instantiate.self_s": ("self", ["search.ParamFamily.instantiate"]),
    "search.instantiate.rejected": ("rejected", ["search.ParamFamily.instantiate", "search.*Goal.evaluate"]),
    "search.evaluate.self_s": ("self", ["search.*Goal.evaluate"]),
    "criteria.checker.calls": ("calls", CHECKERS),
    "criteria.checker.self_s": ("self", CHECKERS),
    "criteria.witness_search.calls": ("calls", ["criteria.*_witness"]),
    "criteria.witness_search.self_s": ("self", ["criteria.*_witness"]),
    "criteria.separation_witness.self_s": ("self", ["criteria.separation_witness"]),
    "criteria.tangent_witness.self_s": ("self", ["criteria.tangent_witness"]),
    "document.parse.self_s": ("self", ["document.parse"]),
    "document.bind.calls": ("calls", ["document.bind"]),
    "document.bind.self_s": ("self", ["document.bind"]),
    "report.run_document.self_s": ("self", ["report.run_document"]),
    "report.render.self_s": ("self", ["report.render_text", "report.report_to_json"]),
    "cli.main.self_s": ("self", ["cli.main"]),
}

# Self time of every other wrapped name, per module, so the layers add up.
MODULES = ("lattice", "surface", "cones", "criteria", "search", "document", "report", "cli")

# Results that reject a candidate without raising: a goal turns down a
# positive part that fails the nef-and-big test before any checker runs.
NOT_NEF = "positive part not nef and big"
REJECTS = {"search.*Goal.evaluate": lambda verdict: getattr(verdict, "note", None) == NOT_NEF}

# Leaf helpers left unwrapped: their spans would outnumber all others and the
# wrapper would cost more than their bodies; their time counts in the caller.
UNWRAPPED = {"lattice.as_fraction", "lattice.IntersectionLattice.rank"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.rejected: list[int] = []
        self.self_ns: list[int] = []
        self.incl_ns: list[int] = []
        self._active: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[list[int]] = []
        self._undo: list[tuple[object, str, object]] = []
        self.root = self._wrap(lambda fn, *args: fn(*args), ROOT_SPAN)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            for stat in (self.calls, self.rejected, self.self_ns, self.incl_ns, self._active):
                stat.append(0)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        rejects = next((pred for pat, pred in REJECTS.items() if fnmatch.fnmatchcase(name, pat)), None)
        stack, clock = self._stack, time.perf_counter_ns
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        calls, rejected, self_ns, incl_ns, active = self.calls, self.rejected, self.self_ns, self.incl_ns, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0)
            ends.append(0)
            frame = [idx, 0]
            stack.append(frame)
            active[nid] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                if rejects is not None and rejects(out):
                    rejected[nid] += 1
                return out
            except BaseException:
                rejected[nid] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                active[nid] -= 1
                dur = t1 - t0
                starts[idx] = t0
                ends[idx] = t1
                calls[nid] += 1
                self_ns[nid] += dur - frame[1]
                if not active[nid]:
                    incl_ns[nid] += dur
                if stack:
                    stack[-1][1] += dur

        return traced

    # -- installing ------------------------------------------------------
    def install(self) -> None:
        holders = [m for name, m in sorted(sys.modules.items()) if name == "qreider" or name.startswith("qreider.")]
        for short in MODULES:
            mod = sys.modules.get(f"qreider.{short}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and f"{short}.{attr}" not in UNWRAPPED:
                    traced = self._wrap(obj, f"{short}.{attr}")
                    for holder in holders:
                        for key, value in list(vars(holder).items()):
                            if value is obj:
                                self._set(holder, key, traced)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(obj, f"{short}.{attr}")

    def _install_class(self, cls, prefix: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if name in UNWRAPPED:
                continue
            if inspect.isfunction(member):
                new = self._wrap(member, name)
            elif isinstance(member, property) and member.fget is not None:
                new = property(self._wrap(member.fget, name), member.fset, member.fdel, member.__doc__)
            elif isinstance(member, (staticmethod, classmethod)):
                new = type(member)(self._wrap(member.__func__, name))
            else:
                continue
            self._set(cls, attr, new)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reading ---------------------------------------------------------
    def matching(self, patterns) -> list[int]:
        return [i for i, name in enumerate(self.names) if any(fnmatch.fnmatchcase(name, p) for p in patterns)]

    def absent(self, patterns) -> list[str]:
        """Patterns that matched no wrapped name: the target is gone from the code."""
        return [p for p in patterns if not self.matching([p])]

    def total(self, kind: str, patterns) -> float:
        ids = self.matching(patterns)
        if kind == "calls":
            return sum(self.calls[i] for i in ids)
        if kind == "rejected":
            return sum(self.rejected[i] for i in ids)
        if kind == "incl":
            return sum(self.incl_ns[i] for i in ids) / 1e9
        return sum(self.self_ns[i] for i in ids) / 1e9

    def self_ns_of(self, patterns) -> int:
        return sum(self.self_ns[i] for i in self.matching(patterns))

    def layer_metrics(self) -> tuple[dict[str, float], list[str]]:
        """Every layer metric, the per-module rest, and the absent targets."""
        out, absent, claimed = {}, [], set()
        for metric, (kind, patterns) in LAYERS.items():
            out[metric] = self.total(kind, patterns)
            absent += [f"{metric}: {p}" for p in self.absent(patterns)]
            claimed.update(self.matching(patterns))
        for short in MODULES:
            rest = [i for i in self.matching([f"{short}.*"]) if i not in claimed]
            out[f"{short}.other.self_s"] = sum(self.self_ns[i] for i in rest) / 1e9
        out["bench.self_s"] = self.total("self", [ROOT_SPAN])
        out["trace.wall_s"] = self.total("incl", [ROOT_SPAN])
        return out, absent

    def write(self, path) -> None:
        """Store every span as a tab-separated line: id, parent, name, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i, (nid, parent, start, end) in enumerate(
                zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            ):
                fh.write(f"{i}\t{parent}\t{names[nid]}\t{start}\t{end}\n")
