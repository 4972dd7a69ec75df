"""Span tracing for the benchmark's traced run.

The tracer wraps the public functions of each untensor layer from the
outside: module-level functions are rebound in every untensor module that
imported them, methods and properties are replaced on their class.  No file
of the program changes.  A wrapper records a span only while an operation
runs (``Tracer.op`` is its id), so set-up and correctness checks leave no
spans.

A span is ``[name, start, end, parent, op, outcome, note]``: ``parent`` is
the index of the enclosing span (-1 at the top), ``outcome`` the class name
of the exception the call raised (None when it returned), and ``note`` a
per-call detail taken at the boundary (kernel rows, tangent-cache hit,
completion case).  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter

NAME, START, END, PARENT, OP, OUTCOME, NOTE = range(7)

# Spans whose summed self time is reported as one figure.
FORMS = ("tensor_space.minor_values", "tensor_space.polar2_values", "tensor_space.binary_restriction")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def wrap(self, name, fn, note_before=None, note_after=None):
        """`fn` wrapped so that each call during an operation adds a span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            note = note_before(*args, **kwargs) if note_before is not None else None
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None, note]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[OUTCOME] = type(exc).__name__
                raise
            finally:
                span[END] = perf_counter()
                self._stack.pop()
            if note_after is not None:
                span[NOTE] = note_after(result)
            return result

        return traced

    def dump(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _tangent_hit(inst, v, cache=None):
    return cache is not None and tuple(v) in cache


def install(tracer: Tracer) -> None:
    """Route the layer boundaries of the imported untensor package through `tracer`."""
    from untensor import foliation, functors, linalg, reconstruct, squares, tensor_space

    modules = [mod for key, mod in sys.modules.items() if key == "untensor" or key.startswith("untensor.")]

    def function(name, owner, attr, **notes):
        original = getattr(owner, attr)
        traced = tracer.wrap(name, original, **notes)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)

    def method(name, cls, attr, **notes):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), **notes))

    function("linalg.kernel", linalg, "kernel", note_before=lambda m: m.nrows)
    function("linalg.determinant", linalg, "determinant")
    function("linalg.solve_linear", linalg, "solve_linear")
    method("linalg.intersect", linalg.Subspace, "intersect")
    method("linalg.subspace", linalg.Subspace, "__init__")
    method("linalg.inverse", linalg.Matrix, "inverse")
    method("linalg.apply", linalg.Matrix, "apply")

    function("tensor_space.instance_from_payload", tensor_space, "instance_from_payload")
    for attr in ("is_simple", "polar2_rows", "minor_values", "polar2_values", "binary_restriction"):
        method(f"tensor_space.{attr}", tensor_space.TensorSpace, attr)

    function("foliation.tangent_space", foliation, "tangent_space", note_before=_tangent_hit)
    function("foliation.cross_rays", foliation, "cross_rays")
    function("foliation.sheets_through", foliation, "sheets_through")
    function("foliation.subspace_in_S", foliation, "subspace_in_S")
    function("foliation.same_sheet", foliation, "same_sheet")

    # complete_square delegates to complete_square_details, so one span covers both.
    function("squares.complete_square", squares, "complete_square_details", note_after=lambda c: c.case)

    function("reconstruct.recover_factors", reconstruct, "recover_factors")
    function("reconstruct.verify_round_trip", reconstruct, "verify_round_trip")
    method("reconstruct.factorize_simple", reconstruct.Reconstruction, "factorize_simple")
    method("reconstruct.tensor_rank", reconstruct.Reconstruction, "tensor_rank")
    prop = reconstruct.Reconstruction.product_matrix
    reconstruct.Reconstruction.product_matrix = property(tracer.wrap("reconstruct.product_matrix", prop.fget))

    for attr in ("tensor_morphism", "is_cone_morphism", "check_pair_side_naturality", "check_product_side_naturality"):
        function(f"functors.{attr}", functors, attr)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


# Spans whose calls per operation are reported, and spans whose self time is.
COUNTED = (
    "linalg.kernel", "linalg.intersect", "linalg.subspace", "linalg.solve_linear", "linalg.apply",
    "tensor_space.is_simple", "tensor_space.polar2_rows", *FORMS, "foliation.tangent_space",
    "foliation.cross_rays", "foliation.subspace_in_S", "foliation.same_sheet", "squares.complete_square",
    "functors.is_cone_morphism",
)
TIMED = (
    "linalg.kernel", "linalg.intersect", "linalg.subspace", "linalg.inverse", "linalg.determinant",
    "linalg.solve_linear", "linalg.apply", "tensor_space.is_simple", "tensor_space.polar2_rows",
    "tensor_space.instance_from_payload", "foliation.tangent_space", "foliation.cross_rays",
    "foliation.sheets_through", "squares.complete_square", "reconstruct.recover_factors",
    "reconstruct.product_matrix", "reconstruct.verify_round_trip", "reconstruct.factorize_simple",
    "reconstruct.tensor_rank", "functors.is_cone_morphism", "functors.check_pair_side_naturality",
    "functors.check_product_side_naturality", "functors.tensor_morphism",
)


def layer_metrics(spans: list[list], ops: int, window: int) -> tuple[dict, dict]:
    """Per-layer figures from the spans of `ops` traced operations.

    Returns (counts, timings).  Counts cover operations 0 .. window-1 only,
    so a rerun with the same seed reproduces them exactly however many
    operations its time budget allowed; timings are self seconds per
    operation over every traced operation.
    """
    self_sum: dict[str, float] = defaultdict(float)
    notes: dict[str, list] = defaultdict(list)
    raised: dict[str, int] = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        self_sum[span[NAME]] += own
        if span[OP] < window:
            notes[span[NAME]].append(span[NOTE])
            raised[span[NAME]] += span[OUTCOME] is not None

    def share(part, name):
        return part / len(notes[name]) if notes[name] else 0.0

    counts = {f"{name}.calls": len(notes[name]) / window for name in COUNTED}
    counts["linalg.kernel.rows"] = sum(notes["linalg.kernel"]) / window
    counts["foliation.tangent_space.hit_ratio"] = share(sum(notes["foliation.tangent_space"]), "foliation.tangent_space")
    counts["foliation.cross_rays.useful_ratio"] = share(
        len(notes["foliation.cross_rays"]) - raised["foliation.cross_rays"], "foliation.cross_rays"
    )
    counts["squares.generic_share"] = share(notes["squares.complete_square"].count("generic"), "squares.complete_square")
    timings = {f"{name}.self_s": self_sum[name] / ops for name in TIMED}
    timings["tensor_space.forms.self_s"] = sum(self_sum[name] for name in FORMS) / ops
    return counts, timings
