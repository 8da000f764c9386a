"""Span tracing of the `lpa_invariants` modules, from outside the package.

`Tracer.install()` wraps every public function of each module (its
`__all__`, plus the public functions of `cli`, which has none) and the
constructor of `IntMatrix`, and rebinds the wrapper under every
`lpa_invariants.*` attribute that holds the same function object, so
calls between modules go through it too.  `uninstall()` puts the
originals back.  Each call records a span (id, name, start, end, parent
id, op id); the current span lives in a contextvar, and spans stay in
memory until `write()` puts them out as JSON lines.  A few wrappers also
read counters off the arguments or the result (Smith transform
bit-lengths, box sizes, ...).
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple

MODULES = ("cli", "classify", "graphs", "intlinalg", "ktheory", "monoid")
# Classes whose construction does work (coercing every entry) worth a span.
CONSTRUCTORS = {"intlinalg": ("IntMatrix",)}

_current_span: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name: duration minus the part of the
    span's interval that its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children[span.id], key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[span.name] += (span.end - span.start) - covered
    return dict(totals)


def _bits(matrix) -> int:
    return max((abs(x).bit_length() for row in matrix.entries for x in row), default=0)


class Tracer:
    """Records spans and counters for calls into the package."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self.graphs: set = set()
        self.op = -1
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        span_id = self._next_id
        self._next_id += 1
        parent = _current_span.get()
        token = _current_span.set(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _current_span.reset(token)
            self.spans.append(Span(span_id, name, start, end, parent, self.op))

    def _wrap(self, name: str, fn: Callable, observe: Callable | None) -> Callable:
        graph_type = importlib.import_module("lpa_invariants.graphs").Graph

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counters[name + ".calls"] += 1
            if args and isinstance(args[0], graph_type):
                self.graphs.add(args[0])
            result = self.span(name, fn, args, kwargs)
            if observe is not None:
                observe(self.counters, args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions wherever the package binds them."""
        modules = {m: importlib.import_module(f"lpa_invariants.{m}") for m in MODULES}
        package = importlib.import_module("lpa_invariants")
        wrappers: dict[int, Callable] = {}
        for short, module in modules.items():
            names = getattr(module, "__all__", None) or [
                n
                for n, v in vars(module).items()
                if inspect.isfunction(v) and not n.startswith("_")
            ]
            for attr in names:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    name = f"{short}.{attr}"
                    wrappers[id(fn)] = self._wrap(name, fn, OBSERVERS.get(name))
            for cls_name in CONSTRUCTORS.get(short, ()):
                cls = getattr(module, cls_name)
                self._restore.append((cls, "__init__", cls.__dict__["__init__"]))
                cls.__init__ = self._wrap(f"{short}.{cls_name}", cls.__init__, None)
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def new_pass(self) -> None:
        """Start counting afresh; spans are kept until `write`."""
        self.counters.clear()
        self.graphs.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


def _observe_snf(counters, args, result) -> None:
    bits = max(_bits(result.u), _bits(result.v))
    counters["intlinalg.snf_max_bits"] = max(counters["intlinalg.snf_max_bits"], bits)


def _observe_pointed_iso(counters, args, result) -> None:
    group = args[0]
    if result == "UNSUPPORTED":
        counters["ktheory.pointed_iso.unsupported"] += 1
    if group.is_finite:
        counters["ktheory.pointed_iso.order_sum"] += int(group.order)


def _observe_saturate(counters, args, result) -> None:
    counters["monoid.box_vectors"] += len(result.vectors)
    counters["monoid.translation_joins"] += result.translation_joins
    counters["monoid.stabilized"] += int(result.stabilized)


OBSERVERS = {
    "intlinalg.smith_normal_form": _observe_snf,
    "ktheory.pointed_iso_exists": _observe_pointed_iso,
    "monoid.saturate": _observe_saturate,
}


# Per-layer metrics of one traced pass, in BENCHMARK.json's order.
SELF_TIMES = (
    "intlinalg.smith_normal_form",
    "intlinalg.det_exact",
    "intlinalg.IntMatrix",
    "ktheory.cokernel_pointed",
    "ktheory.b_matrix",
    "ktheory.pointed_iso_exists",
    "graphs.graph_from_dict",
    "graphs.pis_report",
    "cli.run",
    "classify.kp_decide",
    "classify.canonical_form",
    "monoid.saturate",
    "monoid.mstar_group",
    "monoid.crosscheck_cokernel",
)
CALLS = (
    "intlinalg.smith_normal_form",
    "intlinalg.det_exact",
    "intlinalg.IntMatrix",
    "ktheory.cokernel_pointed",
    "ktheory.pointed_iso_exists",
    "classify.det_sign",
    "monoid.saturate",
)
COUNTS = (
    "intlinalg.snf_max_bits",
    "ktheory.pointed_iso.unsupported",
    "ktheory.pointed_iso.order_sum",
    "monoid.box_vectors",
    "monoid.translation_joins",
)


RATIOS = (
    "intlinalg.snf_per_graph",
    "intlinalg.det_per_graph",
    "graphs.pis_per_graph",
    "monoid.saturate_per_op",
    "monoid.stabilized_ratio",
)


def units() -> dict[str, str]:
    """Unit of every metric `layer_metrics` returns, in its order."""
    out = {f"{name}.self_s": "s" for name in SELF_TIMES}
    out.update({f"{name}.calls": "count" for name in CALLS})
    out.update({name: "bits" if name.endswith("_bits") else "count" for name in COUNTS})
    out.update({name: "ratio" for name in RATIOS})
    out["trace.spans"] = "count"
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, spans: list[Span], ops: int) -> dict[str, float]:
    """Self times, counts and ratios of one traced pass over `ops` ops."""
    own = self_times(spans)
    c = tracer.counters
    graphs = len(tracer.graphs)
    metrics: dict[str, float] = {f"{name}.self_s": own.get(name, 0.0) for name in SELF_TIMES}
    metrics.update({f"{name}.calls": c[name + ".calls"] for name in CALLS})
    metrics.update({name: c[name] for name in COUNTS})
    metrics["intlinalg.snf_per_graph"] = _ratio(c["intlinalg.smith_normal_form.calls"], graphs)
    metrics["intlinalg.det_per_graph"] = _ratio(c["intlinalg.det_exact.calls"], graphs)
    metrics["graphs.pis_per_graph"] = _ratio(c["graphs.pis_report.calls"], graphs)
    metrics["monoid.saturate_per_op"] = _ratio(c["monoid.saturate.calls"], ops)
    metrics["monoid.stabilized_ratio"] = _ratio(c["monoid.stabilized"], c["monoid.saturate.calls"])
    metrics["trace.spans"] = len(spans)
    return metrics
