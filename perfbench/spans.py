"""Spans around ogawa_lab's public calls, installed from outside the package.

A traced workload replaces each public function below, at every place a
caller looks its name up, with a wrapper that records a span (name, start,
end, parent).  Spans stay in memory; :func:`layer_metrics` turns them into
per-layer numbers when the workload has finished.  Nothing under ``src/``
knows about tracing, and :meth:`Tracer.installed` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import math
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# harness functions the workloads reach, directly or through each other
HARNESS_CALLS = (
    "validate_config",
    "resolve_field",
    "resolve_stages",
    "run_convergence",
    "run_order_dependence",
    "estimator_rows",
    "emit_report",
    "emit_r_table",
    "emit_spectrum",
    "load_expectations",
    "compare_with_expectations",
)

ROOT_SPAN = "bench.workload"


@dataclass
class Span:
    name: str
    parent: int          # index of the enclosing span, -1 for the root
    start: float = 0.0
    end: float = 0.0
    elements: int = 0    # basis elements evaluated (phi/primitive stacks)
    nbytes: int = 0      # bytes of the returned array (bases)
    flops: int = 0       # GEMM flops computed from the call's shapes (ensemble)
    chunks: int = 0      # path chunks computed from the call's sizes (ensemble)


def _count_elements(span: Span, call: inspect.BoundArguments, result) -> None:
    span.elements = int(call.arguments["n"])
    span.nbytes = int(result.nbytes)


def _result_bytes(span: Span, call: inspect.BoundArguments, result) -> None:
    span.nbytes = int(result.nbytes)


def _ensemble_shapes(span: Span, call: inspect.BoundArguments, result) -> None:
    """Flops of the coefficient, pairing and W_n reconstruction products.

    Each is an (m x N d) by (N d x n) product, 2 m n N d flops, per chunk and
    stage; the reconstruction runs only when g'_n is evaluated.  Computed
    from the arguments, so the count repeats exactly.
    """
    call.apply_defaults()
    a = call.arguments
    dim, steps, paths = a["field"].dim, a["grid"].num_steps, a["num_paths"]
    elements = sum(st.n_elements for stages in a["stage_lists"] for st in stages)
    products = 3 if a["with_gprime"] else 2
    span.flops = products * 2 * paths * steps * dim * elements
    span.chunks = math.ceil(paths / a["chunk_size"])


def traced_sites(lab) -> list[tuple[str, list, str, object]]:
    """(span name, lookup sites, attribute, annotate) for every traced call.

    The first site defines the function; the others are modules that imported
    it by name, where their callers look it up.
    """
    p, b, f, e, en, s, h = (
        lab.paths, lab.bases, lab.fields, lab.engine, lab.ensemble, lab.spectral, lab.harness
    )
    sites = [
        ("paths.brownian_increments", [p, en], "brownian_increments", None),
        ("bases.phi_stack", [b.BasisFamily], "phi_stack", _count_elements),
        ("bases.primitive_stack", [b.BasisFamily], "primitive_stack", _count_elements),
        (
            "bases.primitive_cell_increments",
            [b.BasisFamily],
            "primitive_cell_increments",
            _result_bytes,
        ),
        ("fields.alpha", [f.VectorField], "alpha", None),
        ("fields.jacobian", [f.VectorField], "jacobian", None),
        ("engine.diagonal_entries", [e, en, h], "diagonal_entries", None),
        ("ensemble.build_ensemble_ledgers", [en, h], "build_ensemble_ledgers", _ensemble_shapes),
        ("spectral.discretized_operator", [s], "discretized_operator", None),
        ("spectral.discretized_L_spectrum", [s], "discretized_L_spectrum", None),
    ]
    sites.extend((f"harness.{name}", [h], name, None) for name in HARNESS_CALLS)
    return sites


class Tracer:
    """Records nested spans of one single-threaded workload."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = self._begin(name)
        try:
            yield rec
        finally:
            self._finish(rec)

    def _begin(self, name: str) -> Span:
        rec = Span(name, self._open[-1] if self._open else -1)
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec.start = perf_counter()
        return rec

    def _finish(self, rec: Span) -> None:
        rec.end = perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn, annotate=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(rec)
            if annotate is not None:
                annotate(rec, signature.bind(*args, **kwargs), result)
            return result

        return traced

    @contextmanager
    def installed(self, lab):
        """Swap every traced call for its wrapper; restore the originals on exit."""
        patched = []
        try:
            for name, sites, attr, annotate in traced_sites(lab):
                original = getattr(sites[0], attr)
                wrapper = self.wrap(name, original, annotate)
                for site in sites:
                    if getattr(site, attr, None) is not original:
                        raise RuntimeError(
                            f"{site.__name__}.{attr} is not {name}: the traced call moved"
                        )
                    setattr(site, attr, wrapper)
                    patched.append((site, attr, original))
            yield self
        finally:
            for site, attr, original in reversed(patched):
                setattr(site, attr, original)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers of one traced workload run, keyed by metric name.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start

    def self_s(name: str) -> float:
        return sum(t for s, t in zip(spans, own) if s.name == name)

    def self_prefix(prefix: str) -> float:
        return sum(t for s, t in zip(spans, own) if s.name.startswith(prefix))

    def calls(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    root = next(i for i, s in enumerate(spans) if s.name == ROOT_SPAN)
    wall = spans[root].end - spans[root].start
    plan_parents = {i for i, s in enumerate(spans) if s.name == "ensemble.build_ensemble_ledgers"}
    return {
        "paths.rng_s": self_s("paths.brownian_increments"),
        "paths.rng_calls": calls("paths.brownian_increments"),
        "bases.eval_s": self_prefix("bases."),
        "bases.elements_evaluated": sum(s.elements for s in spans),
        # arrays the ensemble kernel keeps per stage are the bases results
        # it receives directly
        "bases.plan_bytes": sum(
            s.nbytes for s in spans if s.name.startswith("bases.") and s.parent in plan_parents
        ),
        "fields.alpha_s": self_s("fields.alpha"),
        "fields.alpha_calls": calls("fields.alpha"),
        "fields.jacobian_s": self_s("fields.jacobian"),
        "engine.trace_s": self_s("engine.diagonal_entries"),
        "engine.trace_calls": calls("engine.diagonal_entries"),
        "ensemble.self_s": self_s("ensemble.build_ensemble_ledgers"),
        "ensemble.gemm_flops": sum(s.flops for s in spans),
        "ensemble.chunks": sum(s.chunks for s in spans),
        "spectral.operator_s": self_s("spectral.discretized_operator"),
        "spectral.eigh_s": self_s("spectral.discretized_L_spectrum"),
        "harness.self_s": self_prefix("harness."),
        "trace.wall_s": wall,
        "trace.unattributed_frac": own[root] / wall,
    }
