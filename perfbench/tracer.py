"""Spans around the calls into each frobw layer, and the per-layer metrics
computed from them.

The tracer wraps each public callable where its caller looks it up: splitting
imports digit_power, rank_fp_dense and kernel_fp_dense by name, frontend
imports profile, fano_report, membership_check and toric_alpha by name, and
restricted_basis is a method, so it is replaced on the class.  Nothing under
src/ changes; uninstall() restores every original.

A span records name, start, end, parent, thread id and op id.  Spans stay in
memory and are written out by the caller when the run ends.  Self time is
computed per thread: a span's duration minus the durations of its children on
the same thread.  A span opened on a pool thread has no parent on that thread;
its parent is the op span, and its time does not count against the op span's
self time, which then includes the wait for the pool.  So on the thread that
runs an op, the self times of the op span and its descendants add up to the
op's duration: every second of an op lands in some named span.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import statistics
import threading
import time

from frobw import frontend, splitting, toric


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "tid", "op", "attrs")

    def __init__(self, id_, name, parent, tid, op):
        self.id = id_
        self.name = name
        self.parent = parent
        self.tid = tid
        self.op = op
        self.attrs: dict = {}
        self.start = time.perf_counter()
        self.end = None

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "thread": self.tid,
                "op": self.op, **self.attrs}


def _shape_attrs(args, kwargs, result) -> dict:
    r, c = args[0].shape
    return {"rows": r, "cols": c, "bytes": args[0].nbytes}


# (owner, attribute, span name, attrs from (args, kwargs, result))
TARGETS = [
    (splitting, "digit_power", "ffkernel.digit_power",
     lambda a, k, out: {"terms": len(out)}),
    (splitting, "rank_fp_dense", "ffkernel.rank_fp_dense", _shape_attrs),
    (splitting, "kernel_fp_dense", "ffkernel.kernel_fp_dense", _shape_attrs),
    (splitting.GradedHypersurface, "restricted_basis",
     "splitting.restricted_basis",
     lambda a, k, out: {"rows": int(out.shape[0])}),
    (splitting, "b_dimension", "splitting.b_dimension", None),
    (splitting, "m_threshold", "splitting.m_threshold", None),
    (splitting, "profile", "splitting.profile", None),
    (frontend, "profile", "splitting.profile", None),
    (splitting, "fano_report", "splitting.fano_report", None),
    (frontend, "fano_report", "splitting.fano_report", None),
    (splitting, "membership_check", "splitting.membership_check", None),
    (frontend, "membership_check", "splitting.membership_check", None),
    (toric, "toric_alpha", "toric.toric_alpha", None),
    (frontend, "toric_alpha", "toric.toric_alpha", None),
    (toric, "anticanonical_volume", "toric.anticanonical_volume", None),
    (frontend, "run_cli", "frontend.run_cli", None),
    (frontend, "parse_polynomial", "frontend.parse_polynomial", None),
    (frontend, "parse_fan", "frontend.parse_fan", None),
]


class Tracer:
    """Collects spans; install() wraps the TARGETS, uninstall() undoes it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op_span: Span | None = None
        self._originals: list = []

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:  # a pool thread: the op span caused this work
            parent = self._op_span.id if self._op_span else None
        op = self._op_span.op if self._op_span else None
        with self._lock:
            span = Span(next(self._ids), name, parent,
                        threading.get_ident(), op)
            self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def op(self, op_id: str):
        """The root span of one op; spans opened inside carry its id."""
        self._op_span = None
        span = self._open("op")
        span.op = op_id
        self._op_span = span
        try:
            yield span
        finally:
            self._close(span)
            self._op_span = None

    def _wrap(self, fn, name: str, measure):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.attrs["raised"] = True
                raise
            finally:
                tracer._close(span)
            if measure is not None:
                span.attrs.update(measure(args, kwargs, out))
            return out
        return traced

    def install(self) -> None:
        for owner, attr, name, measure in TARGETS:
            fn = owner.__dict__[attr]
            self._originals.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, measure))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, fn = self._originals.pop()
            setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# per-layer metrics

def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus its same-thread children's durations."""
    by_id = {s.id: s for s in spans}
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.tid == s.tid:
            own[parent.id] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one traced pass.

    cells and flops_est (sum of min(r,c)*r*c/3) are computed from the input
    shapes, so they repeat exactly; gflops divides flops_est by self_s.
    """
    own = self_times(spans)
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, []))

    def self_s(name):
        return sum(own[s.id] for s in by_name.get(name, []))

    out: dict[str, float] = {}
    for name in ("ffkernel.digit_power", "ffkernel.rank_fp_dense",
                 "ffkernel.kernel_fp_dense", "splitting.restricted_basis",
                 "splitting.b_dimension", "splitting.m_threshold",
                 "toric.toric_alpha", "frontend.run_cli"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    for name in ("splitting.profile", "splitting.membership_check",
                 "toric.anticanonical_volume", "frontend.parse_polynomial",
                 "frontend.parse_fan"):
        out[f"{name}.self_s"] = self_s(name)

    out["ffkernel.digit_power.terms"] = sum(
        s.attrs["terms"] for s in by_name.get("ffkernel.digit_power", []))
    for name in ("ffkernel.rank_fp_dense", "ffkernel.kernel_fp_dense"):
        shapes = [(s.attrs["rows"], s.attrs["cols"])
                  for s in by_name.get(name, [])]
        flops = sum(min(r, c) * r * c / 3.0 for r, c in shapes)
        out[f"{name}.cells"] = sum(r * c for r, c in shapes)
        out[f"{name}.flops_est"] = flops
        t = out[f"{name}.self_s"]
        out[f"{name}.gflops"] = flops / t / 1e9 if t > 0 else 0.0
    out["ffkernel.kernel_fp_dense.max_bytes"] = max(
        (s.attrs["bytes"] for s in by_name.get("ffkernel.kernel_fp_dense",
                                                [])), default=0)
    out["splitting.restricted_basis.rows"] = sum(
        s.attrs["rows"] for s in by_name.get("splitting.restricted_basis", []))

    ranks = by_name.get("splitting.b_dimension", [])
    lat_ms = [(s.end - s.start) * 1e3 for s in ranks]
    paths = {"dense": 0, "sketch": 0, "none": 0}
    for s in ranks:
        engines = {c.name for c in children.get(s.id, [])}
        if "ffkernel.kernel_fp_dense" in engines:
            paths["sketch"] += 1
        elif "ffkernel.rank_fp_dense" in engines:
            paths["dense"] += 1
        else:
            paths["none"] += 1
    p50 = statistics.median(lat_ms) if lat_ms else 0.0
    out["splitting.b_dimension.lat_p50_ms"] = p50
    out["splitting.b_dimension.lat_p90_ms"] = (statistics.quantiles(
        lat_ms, n=10, method="inclusive")[8] if len(lat_ms) > 1 else p50)
    for path, n in paths.items():
        out[f"splitting.b_dimension.path_{path}"] = n
    kernels = out["ffkernel.kernel_fp_dense.calls"]
    out["splitting.sketch.attempts_per_rank"] = (
        kernels / paths["sketch"] if paths["sketch"] else 0.0)
    thresholds = {s.id for s in by_name.get("splitting.m_threshold", [])}
    out["splitting.m_threshold.rank_probes"] = sum(
        1 for s in ranks if s.parent in thresholds)
    return out


def op_coverage_gap(spans: list[Span]) -> float:
    """Largest |op duration - sum of self times on the op's thread| over the
    ops in `spans`, in seconds (0 up to rounding, by construction)."""
    own = self_times(spans)
    by_op: dict = {}
    for s in spans:
        by_op.setdefault(s.op, []).append(s)
    gap = 0.0
    for group in by_op.values():
        root = next(s for s in group if s.name == "op")
        covered = sum(own[s.id] for s in group if s.tid == root.tid)
        gap = max(gap, abs((root.end - root.start) - covered))
    return gap
