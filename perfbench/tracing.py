"""Spans and jet-operation counts recorded from outside the program.

The tracer replaces public functions on the module (or class) attribute
through which the program looks them up, so no file of the package changes.
Each span records name, start, end, parent span and run id; each jet ring
operation increments a counter on the innermost open span.  Spans stay in
memory until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from kaehlerlab import ambient, cli, identities, jets, recurrence, submanifold

#: Jet operations counted, by the methods that perform them.  Products made
#: inside ``reciprocal``, ``sqrt`` and division are counted as products too.
OPS = ("mul", "add_sub", "derivative", "reciprocal")
_OP_METHODS = {
    "__mul__": 0, "__rmul__": 0,
    "__add__": 1, "__radd__": 1, "__sub__": 1, "__rsub__": 1,
    "derivative": 2,
    "reciprocal": 3,
}

STAGES = (
    "_build_ambient_along_immersion",
    "_build_tangent",
    "_build_normal_frame",
    "_build_j_frames",
    "_build_second_fundamental_form",
    "_build_normal_connection",
    "_build_covariant_derivatives",
    "_build_normal_curvature",
    "_build_intrinsic_curvature",
    "data",
)


def stage_label(stage: str) -> str:
    return stage.removeprefix("_build_")


#: (owner, attribute, span name) for every call boundary that gets a span.
#: ``jet_matrix_inverse`` is wrapped under each name it is imported as.
_SPANNED = (
    [
        (cli, "run_case", "cli.run_case"),
        (cli, "sample_points", "cli.sample_points"),
        (cli, "render_json", "cli.render_json"),
        (submanifold, "extrinsic_data", "submanifold.extrinsic_data"),
        (identities, "run_identity_suite", "identities.run_identity_suite"),
        (recurrence, "classify", "recurrence.classify"),
        (recurrence, "verify_theorems", "recurrence.verify_theorems"),
        (ambient, "metric", "ambient.metric"),
        (ambient, "christoffel_from_metric", "ambient.christoffel_from_metric"),
        (ambient, "curvature_operator", "ambient.curvature_operator"),
        (jets, "jet_matrix_inverse", "jets.matrix_inverse"),
        (ambient, "jet_matrix_inverse", "jets.matrix_inverse"),
        (submanifold, "jet_matrix_inverse", "jets.matrix_inverse"),
    ]
    + [(submanifold.PointGeometry, s, "submanifold." + stage_label(s))
       for s in STAGES]
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "ops", "nested")

    def __init__(self, name, parent, run, nested):
        self.name = name
        self.parent = parent
        self.run = run
        self.nested = nested
        self.ops = [0] * len(OPS)
        self.start = time.perf_counter()
        self.end = None


class Tracer:
    """Installs wrappers on entry, restores the originals on exit."""

    def __init__(self):
        self.spans = []
        self.run_id = 0
        self._stack = []
        self._saved = []

    def __enter__(self):
        for owner, attr, name in _SPANNED:
            self._patch(owner, attr, self._spanned(getattr(owner, attr), name))
        for attr, op in _OP_METHODS.items():
            self._patch(jets.Jet, attr, self._counted(getattr(jets.Jet, attr), op))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        nested = any(s.name == name for s in self._stack)
        span = Span(name, parent, self.run_id, nested)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _spanned(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
        return wrapper

    def _counted(self, fn, op):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack[-1].ops[op] += 1
            return fn(*args, **kwargs)
        return wrapper

    def summary(self, roots) -> dict:
        """Per span name within the subtrees of ``roots`` (roots included):
        calls, inclusive and self seconds, inclusive op counts.

        Self time is a span's duration minus the time its child spans cover.
        A span nested inside one of its own name adds to calls only.
        """
        root_ids = {id(r) for r in roots}
        inside = set()
        spans = []
        for s in self.spans:
            if id(s) in root_ids or id(s.parent) in inside:
                inside.add(id(s))
                spans.append(s)
        child_time = defaultdict(float)
        incl_ops = {id(s): list(s.ops) for s in spans}
        for s in reversed(spans):
            if id(s) in root_ids:
                continue
            child_time[id(s.parent)] += s.end - s.start
            parent_ops = incl_ops[id(s.parent)]
            for k, v in enumerate(incl_ops[id(s)]):
                parent_ops[k] += v
        out = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                   "ops": [0] * len(OPS)})
        for s in spans:
            agg = out[s.name]
            agg["calls"] += 1
            dur = s.end - s.start
            agg["self_s"] += dur - child_time[id(s)]
            if not s.nested:
                agg["incl_s"] += dur
                for k, v in enumerate(incl_ops[id(s)]):
                    agg["ops"][k] += v
        return dict(out)

    def export(self) -> list:
        """Spans as plain rows: name, start, end, parent index, run, op counts."""
        index = {id(s): k for k, s in enumerate(self.spans)}
        return [
            [s.name, s.start, s.end,
             index[id(s.parent)] if s.parent is not None else None,
             s.run, dict(zip(OPS, s.ops))]
            for s in self.spans
        ]
