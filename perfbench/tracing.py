"""Span and counter tracing of dualgeo from outside the package.

`Tracer.install()` replaces each layer boundary (a function, a method or a
`verify.SUITES` entry) by a wrapper that records a span and updates counters,
in every module that holds a reference to it; `Tracer.restore()` puts every
original back. Nothing under `src/` is modified.

A span is (id, name, start, end, parent id, request id). Spans nest through a
per-thread stack. `cli._pool_map` runs its items in worker threads, which do
not inherit the caller's context; a span opened on an empty worker stack is
parented to the open pool span, and every span carries the id of the one
request in flight (the benchmark drives a closed loop, one request at a time).

A span's self time is its duration minus the union of its children's
intervals (children of a pool span overlap in time). Self times are summed per
layer; the layer of a span is its name up to the boundary's own suffix, as in
`LAYER_OF`.
"""

from __future__ import annotations

import functools
import gzip
import json
import re
import threading
import time
from collections import defaultdict

SMALL_ROWS = 16  # a field-kernel call with at most this many rows is "small"
LARGE_ROWS = 1024  # ... and with at least this many rows is "large"

# span name -> layer; the layer names are the module names of the boundaries
LAYER_OF = {
    "manifold.metric": "manifold",
    "manifold.christoffel": "manifold",
    "geodesic.accel": "geodesic.accel",
    "geodesic.integrate": "geodesic.integrate",
    "geodesic.shoot": "geodesic.shoot",
    "geodesic.shoot.resilient": "geodesic.shoot",
    "geodesic.transport": "geodesic.transport",
    "geodesic.curves": "geodesic.curves",
    "divergence.many": "divergence",
    "divergence.pi": "divergence",
    "divergence.gradient": "divergence",
    "divergence.path_functional": "divergence",
    "eguchi.recover": "eguchi",
    "eguchi.stencil": "eguchi",
    "eguchi.classify": "eguchi",
    "eguchi.curvature": "eguchi",
    "eguchi.symmetry": "eguchi",
    "cli.main": "cli",
    "cli.pool": "cli",
}

_FAILED_MEMBERS = re.compile(r"failed for (\d+)/(\d+) members")


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_small", "_large")):
        return "us"
    if name.endswith(("_ratio", "_per_call", "_per_request")):
        return "ratio"
    return "count"


class _Frame:
    __slots__ = ("id", "name", "start", "parent", "request", "children", "retrying")

    def __init__(self, span_id, name, start, parent, request):
        self.id = span_id
        self.name = name
        self.start = start
        self.parent = parent
        self.request = request
        self.children = []  # (start, end) of closed child spans
        self.retrying = False  # symmetry probe: a batched evaluation has failed


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


class Tracer:
    """Spans and counters of one traced pass; install, run, restore, report."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.self_s = defaultdict(float)  # per span name
        self.total_s = defaultdict(float)  # per span name
        self.request = None
        self.requests = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._pool = None  # open cli._pool_map frame, parent of worker spans
        self._patches = []  # (owner, key, original, is_mapping)

    # -- requests and spans ------------------------------------------------

    def begin_request(self):
        self.request = self.requests
        self.requests += 1

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _top(self):
        stack = self._stack()
        if stack:
            return stack[-1]
        return self._pool

    def _open(self, name):
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        frame = _Frame(span_id, name, time.perf_counter(), self._top(), self.request)
        self._stack().append(frame)
        return frame

    def _close(self, frame):
        end = time.perf_counter()
        self._stack().pop()
        dur = end - frame.start
        own = dur - _covered(frame.children, frame.start, end)
        parent = frame.parent
        if parent is not None:
            parent.children.append((frame.start, end))
        with self._lock:
            self.self_s[frame.name] += own
            self.total_s[frame.name] += dur
            self.spans.append(
                (
                    frame.id,
                    frame.name,
                    frame.start,
                    end,
                    None if parent is None else parent.id,
                    frame.request,
                )
            )
        return dur

    def count(self, key, amount=1):
        with self._lock:
            self.counters[key] += amount

    # -- installation --------------------------------------------------------

    def _span(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(name)
            if name == "cli.pool":
                tracer._pool = frame
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                if name == "cli.pool":
                    tracer._pool = None
                dur = tracer._close(frame)
                if after is not None:
                    after(frame, args, result, exc, dur)

        return wrapper

    def _replace(self, modules, original, wrapper):
        """Point every module attribute that is `original` at `wrapper`."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original, False))
                    setattr(mod, attr, wrapper)

    def install(self):
        from dualgeo import cli, divergence, eguchi, geodesic, manifold, verify

        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = (manifold, geodesic, divergence, eguchi, verify, cli)
        hooks = self._hooks()
        try:
            for owner, attr, name in (
                (manifold.ManifoldModel, "metric_batch", "manifold.metric"),
                (manifold.ManifoldModel, "christoffel_batch", "manifold.christoffel"),
                (eguchi._StencilEvaluator, "compute", "eguchi.stencil"),
            ):
                original = vars(owner)[attr]
                self._patches.append((owner, attr, original, False))
                setattr(owner, attr, self._span(name, original, hooks.get(name)))
            for mod, attr, name in (
                (geodesic, "_geodesic_accel", "geodesic.accel"),
                (geodesic, "_integrate_states", "geodesic.integrate"),
                (geodesic, "_shoot_many", "geodesic.shoot"),
                (geodesic, "_endpoints_resilient", "geodesic.shoot.resilient"),
                (geodesic, "_transport_many", "geodesic.transport"),
                (geodesic, "_curves_from_initial", "geodesic.curves"),
                (divergence, "_divergence_many", "divergence.many"),
                (divergence, "_pi_many", "divergence.pi"),
                (divergence, "_gradient_many", "divergence.gradient"),
                (divergence, "path_functional", "divergence.path_functional"),
                (eguchi, "recover_structure", "eguchi.recover"),
                (eguchi, "classify_manifold", "eguchi.classify"),
                (eguchi, "curvature_tensor", "eguchi.curvature"),
                (eguchi, "symmetry_probe", "eguchi.symmetry"),
                (cli, "main", "cli.main"),
                (cli, "_pool_map", "cli.pool"),
            ):
                original = getattr(mod, attr)
                self._replace(modules, original, self._span(name, original, hooks.get(name)))
            original = geodesic._solve_spd
            self._replace(modules, original, self._counting_solve(original))
            for suite, fn in list(verify.SUITES.items()):
                self._patches.append((verify.SUITES, suite, fn, True))
                verify.SUITES[suite] = self._span(f"verify.{suite}", fn)
        except BaseException:
            self.restore()
            raise

    def restore(self):
        while self._patches:
            owner, key, original, is_mapping = self._patches.pop()
            if is_mapping:
                owner[key] = original
            else:
                setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- counters at each boundary ---------------------------------------------

    def _counting_solve(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = tracer._top()
            if top is not None and top.name == "geodesic.transport":
                tracer.count("geodesic.transport.rhs_evals")
            return fn(*args, **kwargs)

        return wrapper

    def _sized(self, prefix, rows, dur):
        self.count(f"{prefix}.calls")
        self.count(f"{prefix}.rows", rows)
        if rows <= SMALL_ROWS:
            self.count(f"{prefix}.small_calls")
            self.count(f"{prefix}.small_s", dur)
        elif rows >= LARGE_ROWS:
            self.count(f"{prefix}.large_calls")
            self.count(f"{prefix}.large_s", dur)

    def _hooks(self):
        from dualgeo.errors import IntegrationFailure, ShootingNoConvergence

        def parent_name(frame):
            return None if frame.parent is None else frame.parent.name

        def metric(frame, args, result, exc, dur):
            self._sized("manifold.metric", _rows(args[1]), dur)

        def christoffel(frame, args, result, exc, dur):
            self._sized("manifold.christoffel", _rows(args[1]), dur)

        def accel(frame, args, result, exc, dur):
            self._sized("geodesic.accel", _rows(args[2]), dur)
            if parent_name(frame) == "geodesic.integrate":
                self.count("geodesic.integrate.rhs_evals")

        def integrate(frame, args, result, exc, dur):
            self.count("geodesic.integrate.calls")
            self.count("geodesic.integrate.members", _rows(args[2]))
            if isinstance(exc, IntegrationFailure):
                self.count("geodesic.integrate.failures")

        def shoot(frame, args, result, exc, dur):
            members = _rows(args[2])
            self.count("geodesic.shoot.calls")
            self.count("geodesic.shoot.members", members)
            if result is not None:
                self.count("geodesic.shoot.converged", int(result[1].sum()))
            elif isinstance(exc, ShootingNoConvergence):
                found = _FAILED_MEMBERS.search(str(exc))
                if found:
                    self.count("geodesic.shoot.converged", members - int(found.group(1)))

        def resilient(frame, args, result, exc, dur):
            above = parent_name(frame)
            if above == "geodesic.shoot":
                self.count("geodesic.shoot.iterations")
            elif above == "geodesic.shoot.resilient":
                self.count("geodesic.shoot.bisect_splits")

        def transport(frame, args, result, exc, dur):
            self.count("geodesic.transport.calls")
            self.count("geodesic.transport.members", _rows(args[3]))

        def curves(frame, args, result, exc, dur):
            self.count("geodesic.curves.calls")
            self.count("geodesic.curves.members", _rows(args[2]))

        def many(frame, args, result, exc, dur):
            self.count("divergence.calls")
            self.count("divergence.pairs", _rows(args[2]))
            parent = frame.parent
            if parent is not None and parent.name == "eguchi.symmetry":
                if parent.retrying:
                    self.count("eguchi.symmetry.retry_calls")
                elif isinstance(exc, ShootingNoConvergence):
                    parent.retrying = True

        def pi(frame, args, result, exc, dur):
            self.count("divergence.pi.targets", _rows(args[1]))

        def gradient(frame, args, result, exc, dur):
            self.count("divergence.gradient.calls")

        def path_functional(frame, args, result, exc, dur):
            self.count("divergence.path_functional.calls")

        def recover(frame, args, result, exc, dur):
            self.count("eguchi.recover.calls")

        def stencil(frame, args, result, exc, dur):
            self.count("eguchi.stencil.pairs", len(args[0]._requests))

        return {
            "manifold.metric": metric,
            "manifold.christoffel": christoffel,
            "geodesic.accel": accel,
            "geodesic.integrate": integrate,
            "geodesic.shoot": shoot,
            "geodesic.shoot.resilient": resilient,
            "geodesic.transport": transport,
            "geodesic.curves": curves,
            "divergence.many": many,
            "divergence.pi": pi,
            "divergence.gradient": gradient,
            "divergence.path_functional": path_functional,
            "eguchi.recover": recover,
            "eguchi.stencil": stencil,
        }

    # -- results -------------------------------------------------------------------

    def layer_self_s(self) -> dict:
        out = defaultdict(float)
        for name, value in self.self_s.items():
            out[LAYER_OF.get(name, name.split(".")[0])] += value
        return out

    def metrics(self) -> dict:
        """Per-layer metrics by name, those of `BENCHMARK.json` but the three that
        `run.py` adds (trace overhead, span count and fail ratio)."""
        c = self.counters
        layer = self.layer_self_s()

        def per_call_us(prefix, size):
            calls = c[f"{prefix}.{size}_calls"]
            return 1e6 * c[f"{prefix}.{size}_s"] / calls if calls else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "manifold.metric.calls": c["manifold.metric.calls"],
            "manifold.metric.rows": c["manifold.metric.rows"],
            "manifold.christoffel.calls": c["manifold.christoffel.calls"],
            "manifold.christoffel.rows": c["manifold.christoffel.rows"],
            "manifold.self_s": layer["manifold"],
            "manifold.christoffel.us_per_call_small": per_call_us("manifold.christoffel", "small"),
            "manifold.christoffel.us_per_call_large": per_call_us("manifold.christoffel", "large"),
            "geodesic.accel.calls": c["geodesic.accel.calls"],
            "geodesic.accel.rows": c["geodesic.accel.rows"],
            "geodesic.accel.self_s": layer["geodesic.accel"],
            "geodesic.accel.us_per_call_small": per_call_us("geodesic.accel", "small"),
            "geodesic.accel.us_per_call_large": per_call_us("geodesic.accel", "large"),
            "geodesic.integrate.calls": c["geodesic.integrate.calls"],
            "geodesic.integrate.members": c["geodesic.integrate.members"],
            "geodesic.integrate.rhs_evals": c["geodesic.integrate.rhs_evals"],
            "geodesic.integrate.failures": c["geodesic.integrate.failures"],
            "geodesic.integrate.self_s": layer["geodesic.integrate"],
            "geodesic.shoot.calls": c["geodesic.shoot.calls"],
            "geodesic.shoot.members": c["geodesic.shoot.members"],
            "geodesic.shoot.iterations": c["geodesic.shoot.iterations"],
            "geodesic.shoot.iterations_per_call": ratio(
                c["geodesic.shoot.iterations"], c["geodesic.shoot.calls"]
            ),
            "geodesic.shoot.converged_ratio": ratio(
                c["geodesic.shoot.converged"], c["geodesic.shoot.members"]
            ),
            "geodesic.shoot.bisect_splits": c["geodesic.shoot.bisect_splits"],
            "geodesic.shoot.self_s": layer["geodesic.shoot"],
            "geodesic.transport.calls": c["geodesic.transport.calls"],
            "geodesic.transport.members": c["geodesic.transport.members"],
            "geodesic.transport.rhs_evals": c["geodesic.transport.rhs_evals"],
            "geodesic.transport.self_s": layer["geodesic.transport"],
            "geodesic.curves.calls": c["geodesic.curves.calls"],
            "geodesic.curves.members": c["geodesic.curves.members"],
            "geodesic.curves.self_s": layer["geodesic.curves"],
            "divergence.calls": c["divergence.calls"],
            "divergence.pairs": c["divergence.pairs"],
            "divergence.calls_per_request": ratio(c["divergence.calls"], self.requests),
            "divergence.pi.targets": c["divergence.pi.targets"],
            "divergence.gradient.calls": c["divergence.gradient.calls"],
            "divergence.path_functional.calls": c["divergence.path_functional.calls"],
            "divergence.self_s": layer["divergence"],
            "eguchi.recover.calls": c["eguchi.recover.calls"],
            "eguchi.stencil.pairs": c["eguchi.stencil.pairs"],
            "eguchi.classify.self_s": self.self_s["eguchi.classify"]
            + self.self_s["eguchi.curvature"],
            "eguchi.symmetry.retry_calls": c["eguchi.symmetry.retry_calls"],
            "eguchi.self_s": layer["eguchi"],
            "cli.self_s": layer["cli"],
            "cli.pool.s": self.total_s["cli.pool"],
        }
        for suite in ("eguchi", "pathindep", "gradient", "collapse", "symmetry", "classification"):
            out[f"verify.{suite}.s"] = self.total_s[f"verify.{suite}"]
        return out

    def counts(self) -> dict:
        """The machine-independent part of `metrics()`: counts, no times."""
        return {k: v for k, v in self.metrics().items() if not k.endswith(("_s", ".s", "_small", "_large"))}

    def write(self, path):
        """Spans as gzipped JSON lines, one [id, name, start, end, parent, request] each."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
