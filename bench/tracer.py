"""Outside-in tracer for the traced benchmark run.

It replaces public entry points of the sdem layers with wrappers that
record spans (name, start, end, parent, thread) in memory, plus exact work
counts taken at the same boundaries.  Nothing under ``src/`` is edited: the
wrappers are installed by attribute assignment on the imported modules and
removed again by ``uninstall``.  Wrappers only observe; every argument and
return value passes through unchanged, so traced outputs must be
byte-identical to untraced ones (the benchmark checks their digests).

Spans are kept on a per-thread stack because blocks run on a thread pool.
A block task records the span that was current when it was submitted as
its parent, so it is a child across threads.  Self time is a span's
duration minus the spans directly below it on the same thread.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import sys
import threading
import time

import numpy as np

# span name -> metric prefix of the layer it is booked to
LAYERS = (
    "fields.build", "fields.eval", "mollify.build", "mollify",
    "flow.noise", "flow.engine", "flow.trackers",
    "malliavin.right_inverse", "malliavin.estimator",
    "kernel.kde", "kernel.fit", "harness",
)
# block tasks run the Euler update on pool threads; their self time is engine
# time.  The pool span is the submitting thread waiting, booked to no layer.
_BOOKED_AS = {"flow.block": "flow.engine"}


class HookError(LookupError):
    """A public entry point the tracer wraps is absent.  The traced run
    fails on it, so a renamed or moved entry point cannot read as a layer
    that costs nothing."""

    def __init__(self, target):
        super().__init__(f"trace hook target {target} not found")


def _sdem_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "sdem" or name.startswith("sdem."))]


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "counts")

    def __init__(self, name, parent, thread):
        self.name, self.parent, self.thread = name, parent, thread
        self.counts = {}
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows(x, n=None) -> int:
    """Number of points in a (..., n) array argument."""
    x = np.asarray(x)
    width = n if n else (x.shape[-1] if x.ndim else 1)
    return x.size // max(1, width)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._undo = []

    # -- spans --------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name, parent=None) -> Span:
        stack = self._stack()
        span = Span(name, parent if parent is not None else self.current(),
                    threading.get_ident())
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)         # list.append is atomic under the GIL

    @contextlib.contextmanager
    def span(self, name):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def wrap(self, name, fn, count=None):
        """Wrap fn in a span; count(args, kwargs, result) gives work counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(s)
            if count is not None:
                s.counts.update(count(args, kwargs, out))
            return out

        return traced

    def reset(self):
        self.spans = []

    def write(self, path):
        """Write the spans as JSON lines; times are seconds from the first start."""
        t0 = min((s.start for s in self.spans), default=0.0)
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start - t0,
                                     "end": s.end - t0, "parent": ids.get(id(s.parent)),
                                     "thread": s.thread, "counts": s.counts}) + "\n")

    # -- installation -------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_function(self, module, attr, make):
        """Replace module.attr, and every by-name import of it in an sdem
        module, with make(orig)."""
        orig = getattr(module, attr, None)
        if orig is None:
            raise HookError(f"{module.__name__}.{attr}")
        new = make(orig)
        for mod in _sdem_modules():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._replace(mod, key, new)

    def _patch_method(self, cls, attr, make):
        orig = cls.__dict__.get(attr)
        if orig is None:
            raise HookError(f"{cls.__module__}.{cls.__name__}.{attr}")
        self._replace(cls, attr, make(orig))

    def install(self):
        from sdem import fields, flow, harness, kernel, malliavin, mollify, report

        fn = self._patch_function

        def points_of(n=None):
            return lambda a, k, out: {"points": _rows(a[1], n)}

        def traced_field_set(fs):
            changes = {"A": self.wrap("fields.eval", fs.A, points_of(fs.n))}
            if fs.DA is not None:
                changes["DA"] = self.wrap("fields.eval", fs.DA, points_of(fs.n))
            return dataclasses.replace(fs, **changes)

        def build_field(orig):
            traced = self.wrap("fields.build", orig)
            return functools.wraps(orig)(lambda *a, **k: traced_field_set(traced(*a, **k)))

        fn(fields, "builtin_field", build_field)
        fn(mollify, "mollify_field", lambda f: self.wrap("mollify.build", f))

        def mollified(orig):
            return self.wrap("mollify", orig,
                             lambda a, k, out: {"points": _rows(a[2], a[0].n),
                                                "eps": a[0].eps})

        self._patch_method(mollify.MollifiedFieldSet, "A", mollified)
        self._patch_method(mollify.MollifiedFieldSet, "DA", mollified)

        self._patch_method(flow.BrownianBatch, "block_increments", lambda f: self.wrap(
            "flow.noise", f, lambda a, k, out: {"values": out.size, "bytes": out.nbytes}))

        def engine(orig, flagged=None):
            @functools.wraps(orig)
            def with_trackers(*args, **kwargs):
                if "trackers" in kwargs:
                    kwargs["trackers"] = tuple(_TrackerProxy(t, self)
                                               for t in kwargs["trackers"])
                return orig(*args, **kwargs)

            count = (lambda a, k, out: {"run": 1, "flagged": flagged(out)}) if flagged else None
            return self.wrap("flow.engine", with_trackers, count)

        fn(flow, "run_ensemble", lambda f: engine(f, lambda out: out.n_flagged))
        fn(flow, "run_multi", lambda f: engine(f, lambda out: out[0][0].n_flagged))
        fn(flow, "coupled_family", engine)
        fn(flow, "ThreadPoolExecutor", lambda pool: _traced_pool(pool, self))

        fn(malliavin, "right_inverse", lambda f: self.wrap(
            "malliavin.right_inverse", f, lambda a, k, out: {"points": _rows(a[1])}))
        for name in ("bismut_gradient", "intertwine_gradient", "fd_gradient",
                     "divergence", "ibp_check"):
            fn(malliavin, name, lambda f: self.wrap("malliavin.estimator", f))

        fn(kernel, "density_estimate", lambda f: self.wrap(
            "kernel.kde", f,
            lambda a, k, out: {"pairs": _rows(a[0], a[1].n) * len(a[1].query_points)}))
        fn(kernel, "kernel_bound_fit", lambda f: self.wrap("kernel.fit", f))

        fn(report, "from_samples", lambda f: self.wrap("harness", f))
        fn(harness, "run_command", lambda f: self.wrap(
            "harness", f, lambda a, k, out: {"output_bytes": sum(
                len(text.encode("utf-8")) for text in out.files.values())}))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


class _TrackerProxy:
    """A tracker whose per-block accumulators run inside flow.trackers spans."""

    def __init__(self, inner, tracer):
        self.inner, self.tracer = inner, tracer

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def make(self, B):
        return _SpanCalls(self.inner.make(B), self.tracer, "flow.trackers")


class _SpanCalls:
    """Forwards attribute reads to `inner`; its method calls run in a span."""

    def __init__(self, inner, tracer, name):
        self._inner, self._tracer, self._name = inner, tracer, name

    def __getattr__(self, attr):
        value = getattr(self._inner, attr)
        if not callable(value):
            return value

        def call(*args, **kwargs):
            with self._tracer.span(self._name):
                return value(*args, **kwargs)

        return call


def _traced_pool(base, tracer):
    """The engine's executor class, with the wait and every task in spans."""

    class TracedPool(base):
        def __enter__(self):
            self._bench_span = tracer.open("flow.pool")
            self._bench_span.counts["workers"] = self._max_workers
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.close(self._bench_span)

        def submit(self, fn, /, *args, **kwargs):
            parent = tracer.current()

            def task():
                s = tracer.open("flow.block", parent=parent)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(s)

            return super().submit(task)

    return TracedPool


# ---------------------------------------------------------------------------
# analysis


def _ancestors(span):
    p = span.parent
    while p is not None:
        yield p
        p = p.parent


def layer_metrics(spans, workers: int) -> dict:
    """Per-layer calls, busy and self seconds, and the exact work counts.

    Busy seconds add up the outermost spans of a layer (a layer nested in
    itself is not counted twice); on the pool they add over threads, so a
    layer can be busy for longer than the wall time.
    """
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)

    def self_time(s):
        below = sum(c.duration for c in children.get(id(s), ()) if c.thread == s.thread)
        return s.duration - below

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}_s"] = 0.0
        out[f"{layer}.self_s"] = 0.0
    for s in spans:
        layer = _BOOKED_AS.get(s.name, s.name)
        if layer not in LAYERS:
            continue
        out[f"{layer}.self_s"] += self_time(s)
        if s.name != layer:
            continue
        out[f"{layer}.calls"] += 1
        if not any(a.name == layer for a in _ancestors(s)):
            out[f"{layer}_s"] += s.duration

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    out["fields.eval.points"] = total("fields.eval", "points")
    out["mollify.points"] = total("mollify", "points")
    out["malliavin.right_inverse.points"] = total("malliavin.right_inverse", "points")
    out["flow.noise.values"] = total("flow.noise", "values")
    out["flow.noise.bytes"] = total("flow.noise", "bytes")
    out["flow.flagged"] = total("flow.engine", "flagged")
    out["kernel.kde.pairs"] = total("kernel.kde", "pairs")
    out["harness.output_bytes"] = total("harness", "output_bytes")

    # quadrature nodes kept per level: base points a mollified call asks for,
    # per point it was given; one entry per (study call, level)
    nodes = {}
    for s in spans:
        if s.name == "mollify" and s.counts.get("points"):
            asked = sum(c.counts.get("points", 0) for c in children.get(id(s), ())
                        if c.name == "fields.eval")
            roots = [a for a in _ancestors(s) if a.parent is None]
            key = (id(roots[0]) if roots else None, s.counts["eps"])
            nodes[key] = max(nodes.get(key, 0), asked // s.counts["points"])
    out["mollify.nodes"] = sum(nodes.values())

    # blocks, and Σ block busy / (workers x map wall); a run whose blocks were
    # not handed to the pool ran them inline on one of `workers` threads
    blocks, busy, capacity = 0, 0.0, 0.0
    for s in spans:
        if s.name == "flow.pool":
            tasks = [c for c in children.get(id(s), ()) if c.name == "flow.block"]
            blocks += len(tasks)
            busy += sum(c.duration for c in tasks)
            capacity += s.counts["workers"] * s.duration
        elif s.name == "flow.engine" and s.counts.get("run"):
            below = children.get(id(s), ())
            if not any(c.name == "flow.pool" for c in below):
                blocks += sum(1 for c in below if c.name == "flow.noise")
                busy += s.duration
                capacity += workers * s.duration
    out["flow.blocks"] = blocks
    out["flow.pool_efficiency"] = busy / capacity if capacity else 0.0
    return out
