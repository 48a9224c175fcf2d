"""Span tracing around the public functions of lpcuntz, from outside.

``Tracer.install`` replaces each traced function, in every ``lpcuntz``
module namespace that holds it, by a wrapper that records one span per
call: name, start, end, parent span and the current item id, plus counts
taken from the returned value.  Spans stay in memory; ``write_spans``
saves them when a process ends and ``layer_metrics`` reduces them to
per-layer totals.
"""

from __future__ import annotations

import json
import sys
import time
from functools import wraps

CONSTRUCTORS = ("interval_rep", "sequence_rep", "fourier_twist", "direct_sum_p", "free_rep")


def _count_evaluate(args, out):
    element = args[1]
    return {
        "terms_in": len(element.terms),
        "nnz_out": int((out.entries != 0).sum()),
        "bytes_out": int(out.entries.nbytes),
    }


def _count_power_estimate(args, out):
    return {"iterations": int(out.iterations), "unconverged": int(not out.converged)}


def _count_terms(args, out):
    return {"terms_out": len(out.terms)}


def _count_detect(args, out):
    return {"rejected": int(not out.accepted)}


def _count_bytes(args, out):
    return {"bytes_out": int(out.nbytes)}


# (module, function, span name, counter)
TRACED = (
    ("grammar", "parse_element", "grammar.parse_element", None),
    *(("reps", name, "reps.construct", None) for name in CONSTRUCTORS),
    ("reps", "evaluate", "reps.evaluate", _count_evaluate),
    ("reps", "spatiality_report", "reps.spatiality_report", None),
    ("pnorm", "norm_sequence", "pnorm.norm_sequence", None),
    ("pnorm", "power_estimate", "pnorm.power_estimate", _count_power_estimate),
    ("pnorm", "oracle_grid", "pnorm.oracle_grid", None),
    ("spatial", "weighted_to_unweighted", "spatial.weighted_to_unweighted", _count_bytes),
    ("spatial", "detect", "spatial.detect", _count_detect),
    ("spatial", "materialize", "spatial.materialize", None),
    ("spatial", "classify_idempotent", "spatial.classify_idempotent", None),
    ("measure", "rn_derivative", "measure.rn_derivative", None),
    ("leavitt", "mul", "leavitt.mul", _count_terms),
    ("leavitt", "normal_form", "leavitt.normal_form", _count_terms),
    ("leavitt", "matrix_unit_embed", "leavitt.matrix_unit_embed", _count_terms),
)


class Tracer:
    """In-memory span recorder.  Each span is a list
    [name, start, end, parent index, item id, counts]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.item = None
        self.active = True

    def wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.item, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, out)
            return out

        return traced

    def install(self, package):
        """Wrap every function of TRACED wherever lpcuntz binds it."""
        modules = [
            m for key, m in sys.modules.items()
            if key == package.__name__ or key.startswith(package.__name__ + ".")
        ]
        for module_name, func_name, span_name, counter in TRACED:
            original = getattr(sys.modules[f"{package.__name__}.{module_name}"], func_name)
            wrapper = self.wrap(span_name, original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def layer_metrics(self) -> dict:
        """Per-layer totals keyed "<span name>.<field>": calls, s (time in
        the outermost spans of that name, so recursion is not counted
        twice), self_s (duration minus direct children) and summed
        counts; plus the Boyd and exact-layer totals.  A function that
        was never called has no keys."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        for index, (name, start, end, parent, _, counts) in enumerate(spans):
            add(f"{name}.calls", 1)
            add(f"{name}.self_s", (end - start) - child_time[index])
            if not _nested_in(spans, parent, name):
                add(f"{name}.s", end - start)
            for key, value in (counts or {}).items():
                add(f"{name}.{key}", value)
        iterations = out.get("pnorm.power_estimate.iterations", 0)
        out["pnorm.boyd.iterations"] = iterations
        out["pnorm.boyd.ms_per_iteration"] = (
            1000.0 * out["pnorm.power_estimate.self_s"] / iterations if iterations else 0.0
        )
        # terms returned by the exact layer to its callers, not to itself
        out["leavitt.terms_out"] = sum(
            (counts or {}).get("terms_out", 0)
            for name, _, _, parent, _, counts in spans
            if name.startswith("leavitt.") and not _nested_in(spans, parent, "leavitt.")
        )
        return out


def write_spans(path, repeats):
    """Save the spans of each traced repeat as JSON."""
    with open(path, "w") as fh:
        json.dump(
            [
                {
                    "repeat": r["repeat"],
                    "spans": [
                        {"name": n, "start": s, "end": e, "parent": p, "item": i, "counts": c}
                        for n, s, e, p, i, c in r["spans"]
                    ],
                }
                for r in repeats
            ],
            fh,
        )


def _nested_in(spans, parent, prefix) -> bool:
    while parent is not None:
        if spans[parent][0].startswith(prefix):
            return True
        parent = spans[parent][3]
    return False
