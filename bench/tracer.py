"""Outside-in layer tracing for the celestial benchmark.

The program is not changed: `install` replaces the public functions of the
`celestial` modules with timing wrappers at every place they are bound (the
defining module, every module that imported the name, and the class for
methods), and `Installation.uninstall` puts the originals back.

Two kinds of wrappers exist.  A *span* wrapper records one span per call
(name, start, end, parent span, operation id) in memory.  A *hot* wrapper
is used for leaf functions called thousands of times per operation (the
`Matrix` arithmetic and `sampling.residual`): it only adds to a per-name
count, total and self time.  Every call made while a hot wrapper is open is
aggregated the same way, so hot regions never hold spans.

Self time of a span is its duration minus the time of the calls made
directly inside it, span or hot; it is worked out when the span closes.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass

# (label, module, attribute path, mode).  The label is the metric prefix.
TARGETS = (
    ("exact.Matrix.rref", "celestial.exact", "Matrix.rref", "span"),
    ("exact.Matrix.mul", "celestial.exact", "Matrix.__mul__", "hot"),
    ("exact.Matrix.add", "celestial.exact", "Matrix.__add__", "hot"),
    ("exact.Matrix.scale", "celestial.exact", "Matrix.scale", "hot"),
    ("exact.Matrix.init", "celestial.exact", "Matrix.__init__", "hot"),
    ("exact.Matrix.det", "celestial.exact", "Matrix.det", "span"),
    ("exact.kernel", "celestial.exact", "kernel", "span"),
    ("exact.solve", "celestial.exact", "solve", "span"),
    ("exact.congruence_diagonalize", "celestial.exact", "congruence_diagonalize", "span"),
    ("exact.signature", "celestial.exact", "signature", "span"),
    ("segre.rep_S", "celestial.segre", "rep_S", "span"),
    ("segre.mu_transform", "celestial.segre", "mu_transform", "span"),
    ("segre.i2_dimension", "celestial.segre", "i2_dimension", "span"),
    ("segre.toric_projection", "celestial.segre", "toric_projection", "span"),
    ("segre.FormSpan.init", "celestial.segre", "FormSpan.__init__", "span"),
    ("segre.FormSpan.contains", "celestial.segre", "FormSpan.contains", "span"),
    ("segre.FormSpan.coordinates_of", "celestial.segre", "FormSpan.coordinates_of", "span"),
    ("segre.FormSpan.equals", "celestial.segre", "FormSpan.equals", "span"),
    ("liealg.invariant_forms", "celestial.liealg", "invariant_forms", "span"),
    ("liealg.solve_invariant", "celestial.liealg", "solve_invariant", "span"),
    ("liealg.d_rep", "celestial.liealg", "d_rep", "span"),
    ("liealg.real_basis", "celestial.liealg", "real_basis", "span"),
    ("forms.classify_family", "celestial.forms", "classify_family", "span"),
    ("forms.moebius_pair", "celestial.forms", "moebius_pair", "span"),
    ("forms.singular_support", "celestial.forms", "singular_support", "span"),
    ("forms.rigidity_sample_check", "celestial.forms", "rigidity_sample_check", "span"),
    ("geometry.cyclide_pipeline", "celestial.geometry", "cyclide_pipeline", "span"),
    ("geometry.stereographic_check", "celestial.geometry", "stereographic_check", "span"),
    ("geometry.veronese_signature_witnesses", "celestial.geometry",
     "veronese_signature_witnesses", "span"),
    ("geometry.veronese_invariant_forms", "celestial.geometry", "veronese_invariant_forms", "span"),
    ("lattice.classify_grid", "celestial.lattice", "classify_grid", "span"),
    ("lattice.unimodular_equivalent", "celestial.lattice", "unimodular_equivalent", "span"),
    ("sampling.surface_quadrics", "celestial.sampling", "surface_quadrics", "span"),
    ("sampling.sample", "celestial.sampling", "sample", "span"),
    ("sampling.surface_points", "celestial.sampling", "surface_points", "span"),
    ("sampling.residual", "celestial.sampling", "residual", "hot"),
    ("sampling.write_csv", "celestial.sampling", "write_csv", "span"),
    ("sampling.write_ply", "celestial.sampling", "write_ply", "span"),
    ("sampling.load_projection", "celestial.sampling", "load_projection", "span"),
    ("verify.run_checks", "celestial.verify", "run_checks", "span"),
    ("cli.main", "celestial.cli", "main", "span"),
)

LABELS = tuple(t[0] for t in TARGETS)

# metrics measured at layer boundaries besides calls and self time
EXTRA_METRICS = (
    ("exact.Matrix.rref.max_rows", "count"),
    ("exact.Matrix.rref.max_cols", "count"),
    ("exact.Matrix.rref.max_entry_bits", "bits"),
    ("liealg.invariant_forms.hit_ratio", "ratio"),
    ("sampling.points_emitted_ratio", "ratio"),
    ("sampling.bytes_written", "bytes"),
)


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    op_id: int
    self_s: float  # duration minus the time of the calls made directly inside it

    def to_json(self) -> list:
        return [self.span_id, self.name, self.start, self.end, self.parent, self.op_id, self.self_s]

    @classmethod
    def from_json(cls, row) -> "Span":
        return cls(*row)


class _Frame:
    __slots__ = ("label", "start", "hot", "cover", "span_id")

    def __init__(self, label, start, hot, span_id):
        self.label = label
        self.start = start
        self.hot = hot
        self.cover = 0.0  # time of the calls made directly inside this frame
        self.span_id = span_id


class Tracer:
    """In-memory span store and hot-call aggregates of one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = True
        self.op_id = 0
        self.spans: list[Span] = []
        self.hot: dict[str, list] = {}  # label -> [calls, total_s, self_s]
        self.counters = {
            "rref_max_rows": 0, "rref_max_cols": 0, "rref_max_entry_bits": 0,
            "grid_nodes": 0, "points_emitted": 0, "bytes_written": 0,
        }
        self._stack: list[_Frame] = []

    def enter(self, label: str, hot: bool) -> _Frame:
        hot = hot or (bool(self._stack) and self._stack[-1].hot)
        span_id = None if hot else len(self.spans)
        if span_id is not None:
            self.spans.append(None)  # reserve the id; filled on exit
        frame = _Frame(label, 0.0, hot, span_id)
        self._stack.append(frame)
        frame.start = self.clock()
        return frame

    def exit(self, frame: _Frame) -> None:
        end = self.clock()
        self._stack.pop()
        dur = end - frame.start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.cover += dur
        if frame.hot:
            agg = self.hot.setdefault(frame.label, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - frame.cover
        else:
            # a span frame is never opened inside a hot one, so its parent is a span
            parent_id = parent.span_id if parent is not None else None
            self.spans[frame.span_id] = Span(
                frame.span_id, frame.label, frame.start, end, parent_id, self.op_id,
                dur - frame.cover,
            )

    def charge(self, seconds: float) -> None:
        """Exclude tracer bookkeeping done inside the open frame from its self time."""
        if self._stack:
            self._stack[-1].cover += seconds

    def dump(self, path: str) -> None:
        """Write the spans and aggregates out; called once when the run ends."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": [s.to_json() for s in self.spans if s is not None],
                    "hot": self.hot,
                    "counters": self.counters,
                },
                fh,
            )


def layer_metrics(spans, hot, counters) -> dict[str, float]:
    """Per-layer metrics of one traced run, named `<label>.calls`/`.self_s`."""
    calls = {label: 0 for label in LABELS}
    self_s = {label: 0.0 for label in LABELS}
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += s.self_s
    for label, (n, _total, own) in hot.items():
        calls[label] += n
        self_s[label] += own
    out = {}
    for label in LABELS:
        out[f"{label}.calls"] = calls[label]
        out[f"{label}.self_s"] = self_s[label]

    solving = {s.parent for s in spans if s.name == "liealg.solve_invariant"}
    inv = [s.span_id for s in spans if s.name == "liealg.invariant_forms"]
    out["liealg.invariant_forms.hit_ratio"] = (
        sum(1 for i in inv if i not in solving) / len(inv) if inv else 0.0
    )
    out["exact.Matrix.rref.max_rows"] = counters["rref_max_rows"]
    out["exact.Matrix.rref.max_cols"] = counters["rref_max_cols"]
    out["exact.Matrix.rref.max_entry_bits"] = counters["rref_max_entry_bits"]
    nodes = counters["grid_nodes"]
    out["sampling.points_emitted_ratio"] = counters["points_emitted"] / nodes if nodes else 0.0
    out["sampling.bytes_written"] = counters["bytes_written"]
    return out


def load_metrics(path: str) -> dict[str, float]:
    with open(path) as fh:
        data = json.load(fh)
    spans = [Span.from_json(row) for row in data["spans"]]
    return layer_metrics(spans, data["hot"], data["counters"])


# --- observers: counts taken at the boundary, charged to the tracer -------

def _entry_bits(matrix) -> int:
    best = 0
    for row in matrix.entries():
        for a in row:
            for part in (a.re, a.im):
                best = max(best, part.numerator.bit_length(), part.denominator.bit_length())
    return best


def _observe_rref(counters, args, result):
    m = args[0]
    counters["rref_max_rows"] = max(counters["rref_max_rows"], m.rows)
    counters["rref_max_cols"] = max(counters["rref_max_cols"], m.cols)
    bits = max(_entry_bits(m), _entry_bits(result[0]))
    counters["rref_max_entry_bits"] = max(counters["rref_max_entry_bits"], bits)


def _observe_points(counters, args, result):
    pts, skipped = result
    counters["points_emitted"] += len(pts)
    counters["grid_nodes"] += len(pts) + skipped


def _observe_write(counters, args, result):
    import os

    counters["bytes_written"] += os.path.getsize(args[1])


OBSERVERS = {
    "exact.Matrix.rref": _observe_rref,
    "sampling.surface_points": _observe_points,
    "sampling.write_csv": _observe_write,
    "sampling.write_ply": _observe_write,
}


def _wrap(tracer: Tracer, label: str, fn, hot: bool):
    observe = OBSERVERS.get(label)
    enter, exit_ = tracer.enter, tracer.exit

    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        frame = enter(label, hot)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_(frame)
        if observe is not None:
            t0 = tracer.clock()
            observe(tracer.counters, args, result)
            tracer.charge(tracer.clock() - t0)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", label)
    wrapper.__qualname__ = getattr(fn, "__qualname__", label)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    return wrapper


def _program_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "celestial" or name.startswith("celestial."))]


def binding_sites() -> dict[str, list[tuple[object, str]]]:
    """Every (owner, attribute) that binds each target, by label.

    A method is bound once, on its class.  A function is bound in its
    defining module and in every celestial module that imported it by name;
    the sites are found by identity, so call this while nothing is patched.
    """
    import importlib

    for _, module, _, _ in TARGETS:
        importlib.import_module(module)
    modules = _program_modules()
    out = {}
    for label, module, path, _ in TARGETS:
        owner = sys.modules[module]
        *owners, attr = path.split(".")
        for name in owners:
            owner = getattr(owner, name)
        if isinstance(owner, type):
            out[label] = [(owner, attr)]
            continue
        fn = getattr(owner, attr)
        out[label] = [(mod, name) for mod in modules
                      for name, value in vars(mod).items() if value is fn]
    return out


class Installation:
    """The patched bindings of one `install` call, for `uninstall`."""

    def __init__(self):
        self.patches: list[tuple[object, str, object]] = []  # (owner, attribute, original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap every target at every binding site among the loaded celestial modules."""
    inst = Installation()
    sites = binding_sites()
    for label, _, _, mode in TARGETS:
        owner, attr = sites[label][0]
        original = vars(owner)[attr]
        wrapper = _wrap(tracer, label, original, mode == "hot")
        for owner, attr in sites[label]:
            inst.patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
    return inst
