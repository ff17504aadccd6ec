"""Layer spans and counters, recorded from outside dimerlab.

The recorder wraps dimerlab's public functions.  A module that did
``from .rewrite import paths_equal`` holds its own reference to the
function, so each wrapper is installed wherever a loaded dimerlab module
binds the original, not only in the module that defines it.  Methods are
wrapped on their class.  Everything is restored when the ``installed``
block ends, so untraced passes run the program's own functions.

A span is ``[name, start, end, parent index]``; spans stay in memory for
one pass and are folded into metrics by ``layer_metrics``.  A span's self time
is its duration minus the durations of its direct children (calls are
nested and single-threaded, so children never overlap).
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (defining module, function name, span name)
FUNCTIONS = (
    ("dimerlab.polygon", "flip_sequence", "polygon.flip_sequence"),
    ("dimerlab.polygon", "enumerate_triangulations", "polygon.enumerate"),
    ("dimerlab.dimer", "build_dimer", "dimer.build"),
    ("dimerlab.dimer", "reduce_dimer", "dimer.reduce"),
    ("dimerlab.quiver", "dual_quiver", "quiver.dual"),
    ("dimerlab.quiver", "potential_relations", "quiver.relations"),
    ("dimerlab.rewrite", "paths_equal", "rewrite.paths_equal"),
    ("dimerlab.boundary", "boundary_generators", "boundary.generators"),
    ("dimerlab.boundary", "factors_through_boundary", "boundary.factors"),
    ("dimerlab.boundary", "match_gamma", "boundary.match"),
    ("dimerlab.boundary", "verify_theorem_relations", "boundary.theorem"),
    ("dimerlab.boundary", "verify_central_element", "boundary.central"),
    ("dimerlab.boundary", "verify_boundary_algebra", "boundary.verify"),
    ("dimerlab.boundary", "verify_flip_transport", "boundary.flip_transport"),
    ("dimerlab.cli", "main", "cli.main"),
)
# (defining module, class, method, span name)
METHODS = (("dimerlab.rewrite", "RelationSet", "residue", "rewrite.residue"),)
# Called too often for a span each: counted only.
COUNTED_METHODS = (("dimerlab.rewrite", "RelationSet", "sites", "rewrite.sites_calls"),)

# Counters read off a wrapped function's result.
RESULT_COUNTS = {
    "polygon.flip_sequence": lambda moves: {"polygon.flip_moves": len(moves)},
    "polygon.enumerate": lambda tris: {"polygon.triangulations": len(tris)},
    "quiver.dual": lambda Q: {"quiver.arrows": len(Q.arrows)},
    "quiver.relations": lambda R: {"quiver.relations": len(R)},
    "boundary.generators": lambda BP: {"boundary.generators": len(BP.classes)},
    "rewrite.paths_equal": lambda v: {
        f"rewrite.{v.outcome}": 1,
        "rewrite.visited": v.visited,
        "rewrite.cert_steps": len(v.certificate or ()),
    },
}


# Metrics read off the spans: inclusive time per span name ...
INCLUSIVE_TIMES = (
    "polygon.flip_sequence",
    "polygon.enumerate",
    "dimer.build",
    "dimer.reduce",
    "quiver.dual",
    "quiver.relations",
    "rewrite.paths_equal",
    "rewrite.residue",
    "boundary.factors",
    "boundary.theorem",
    "boundary.central",
    "boundary.match",
    "boundary.flip_transport",
)
# ... the number of spans per name ...
CALL_COUNTS = {
    "rewrite.queries": "rewrite.paths_equal",
    "rewrite.residue_calls": "rewrite.residue",
    "boundary.factors_calls": "boundary.factors",
}
# ... and the counters.
PLAIN_COUNTS = (
    "polygon.flip_moves",
    "polygon.triangulations",
    "quiver.arrows",
    "quiver.relations",
    "rewrite.equal",
    "rewrite.distinct",
    "rewrite.unknown",
    "rewrite.visited",
    "rewrite.sites_calls",
    "rewrite.cert_steps",
    "boundary.grouping_queries",
    "boundary.generators",
)


def dimerlab_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if name == "dimerlab" or name.startswith("dimerlab.")
    ]


@contextmanager
def rebound(wrappers: dict):
    """Bind ``wrappers[f]`` in place of each function ``f`` wherever a loaded
    dimerlab module binds ``f``; restore the originals on exit."""
    by_id = {id(f): (f, w) for f, w in wrappers.items()}
    undo = []
    try:
        for mod in dimerlab_modules():
            for key, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    undo.append((mod, key, value))
                    setattr(mod, key, hit[1])
        yield
    finally:
        for mod, key, value in reversed(undo):
            setattr(mod, key, value)


class Recorder:
    """Spans and counters for the passes run while ``installed()`` is active."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def _span(self, name: str, fn):
        spans, open_, counts = self.spans, self._open, self.counts
        hook = RESULT_COUNTS.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, open_[-1] if open_ else -1])
            open_.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[idx][2] = perf_counter()
            if hook is not None:
                counts.update(hook(result))
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        patched = []
        try:
            for wrap, table in ((self._span, METHODS), (self._count, COUNTED_METHODS)):
                for modname, cname, mname, name in table:
                    cls = getattr(sys.modules[modname], cname)
                    original = cls.__dict__[mname]
                    setattr(cls, mname, wrap(name, original))
                    patched.append((cls, mname, original))
            wrappers = {}
            for modname, fname, name in FUNCTIONS:
                original = getattr(sys.modules[modname], fname)
                wrappers[original] = self._span(name, original)
            with rebound(wrappers):
                yield self
        finally:
            for cls, mname, original in reversed(patched):
                setattr(cls, mname, original)

    def layer_metrics(self) -> dict:
        """Per-layer metrics of everything recorded so far, by metric name."""
        spans = self.spans
        total: dict = defaultdict(float)
        self_time: dict = defaultdict(float)
        calls: Counter = Counter()
        counts = Counter(self.counts)
        child = [0.0] * len(spans)
        verify_under_cli = 0.0
        for name, start, end, parent in spans:
            duration = end - start
            total[name] += duration
            calls[name] += 1
            if parent >= 0:
                child[parent] += duration
                parent_name = spans[parent][0]
                if name == "rewrite.paths_equal" and parent_name == "boundary.generators":
                    counts["boundary.grouping_queries"] += 1
                if name == "boundary.verify" and parent_name == "cli.main":
                    verify_under_cli += duration
        for (name, start, end, _), covered in zip(spans, child):
            self_time[name] += (end - start) - covered

        out = {f"{span}_s": total[span] for span in INCLUSIVE_TIMES}
        out["boundary.generators_s"] = self_time["boundary.generators"]
        out["cli.self_s"] = total["cli.main"] - verify_under_cli
        for metric, span in CALL_COUNTS.items():
            out[metric] = calls[span]
        for metric in PLAIN_COUNTS:
            out[metric] = counts[metric]
        queries = calls["rewrite.paths_equal"]
        out["rewrite.equal_ratio"] = counts["rewrite.equal"] / queries if queries else 0.0
        return out
