"""Outside-in tracing of coop_ostbc: wrappers installed at run time, no source edits.

:class:`Tracer` wraps every function named in each module's ``__all__``,
the methods of ``numerics.RngStream`` and ``montecarlo._simulate_chunk``.
A wrapper is installed in every ``coop_ostbc`` namespace that holds the
original object, because modules import names such as
``sample_circular_gaussian`` directly and patching the defining module
alone would miss those calls. A name a later refactor removes is simply
not wrapped; its metrics then read 0.

Each call records one span ``(sweep, name, start, end, self_s, in_chunk,
extra, thread)``. Span stacks are thread-local because chunks run
concurrently on pool threads. Self time is the span's duration minus the
durations of the child spans on its own thread, so the self times of all
spans inside one ``_simulate_chunk`` call add up to that call's duration.
Spans stay in memory until :func:`write_spans` at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time

import numpy as np

MODULES = ("numerics", "channel", "ostbc", "analytic", "montecarlo", "cli")
CHUNK = "montecarlo._simulate_chunk"
RUN_POINT = "montecarlo.run_point"


def _normals_drawn(args, result):
    return 2 * int(np.size(result[0]))


def _symbols_detected(args, result):
    return int(np.size(args[0]))


def _chunk_key(args, result):
    point, chunk_index = args[0], args[1]
    return (point.seed, int(chunk_index))


def _streams_used(args, result):
    return int(result.streams_used)


# What each traced call records beyond its times, read from its arguments and result.
EXTRAS = {
    "numerics.RngStream.normal_pairs": _normals_drawn,
    "ostbc.detect": _symbols_detected,
    CHUNK: _chunk_key,
    RUN_POINT: _streams_used,
}


def _targets():
    """(span name, owner, attribute, original) for everything to wrap."""
    targets = []
    for mod_name in MODULES:
        try:
            module = importlib.import_module(f"coop_ostbc.{mod_name}")
        except ImportError:
            continue
        names = list(getattr(module, "__all__", ()))
        if mod_name == "montecarlo":
            names.append(CHUNK.split(".", 1)[1])
        for name in names:
            obj = getattr(module, name, None)
            if inspect.isfunction(obj):
                targets.append((f"{mod_name}.{name}", None, name, obj))
        rng_cls = getattr(module, "RngStream", None) if mod_name == "numerics" else None
        if rng_cls is not None:
            for name, obj in vars(rng_cls).items():
                if inspect.isfunction(obj) and name != "__repr__":
                    targets.append((f"numerics.RngStream.{name}", rng_cls, name, obj))
    return targets


class Tracer:
    """Span recorder; :meth:`install` patches the package, :meth:`uninstall` restores it."""

    def __init__(self):
        self.spans: list = []
        self.sweep = 0
        self.chunks_computed = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list = []

    def _wrap(self, name, fn):
        local = self._local
        spans = self.spans
        clock = time.perf_counter
        extra_of = EXTRAS.get(name)
        is_chunk = name == CHUNK

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [0.0, is_chunk or (bool(stack) and stack[-1][1])]
            stack.append(frame)
            if is_chunk:
                with self._lock:
                    self.chunks_computed += 1
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                try:
                    extra = extra_of(args, result) if extra_of and result is not None else None
                except (IndexError, AttributeError, TypeError):  # a changed signature
                    extra = None  # drops this count, not the run
                spans.append((self.sweep, name, start, end, duration - frame[0],
                              frame[1], extra, threading.get_ident()))

        return traced

    def install(self) -> None:
        package = [m for n, m in sys.modules.items()
                   if n == "coop_ostbc" or n.startswith("coop_ostbc.")]
        for name, owner, attr, original in _targets():
            wrapper = self._wrap(name, original)
            if owner is not None:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _percentile(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def summarize(spans, sweeps: int, workers: int) -> dict:
    """Per-sweep aggregates of the spans of ``sweeps`` traced sweeps.

    Keys: ``calls``/``total_s``/``self_s`` per span name, ``chunk_self_s``
    per module (self time inside chunks), ``chunk_ms`` (every chunk's
    duration), ``worker_idle_s``, ``normals``, ``symbols_detected`` and
    ``chunks_used``. Timings and counts are divided by ``sweeps``.
    """
    calls: dict = {}
    total: dict = {}
    self_s: dict = {}
    chunk_self: dict = {}
    chunk_ms = []
    waves: dict = {}
    normals = symbols = used = 0
    for sweep, name, start, end, own, in_chunk, extra, _ in spans:
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + own
        if in_chunk:
            module = name.split(".", 1)[0]
            chunk_self[module] = chunk_self.get(module, 0.0) + own
        if name == CHUNK:
            chunk_ms.append(1e3 * (end - start))
            if extra is not None:
                seed, index = extra
                wave = waves.setdefault((sweep, seed, index // workers), [start, end, 0.0])
                wave[0], wave[1] = min(wave[0], start), max(wave[1], end)
                wave[2] += end - start
        elif name == "numerics.RngStream.normal_pairs" and extra is not None:
            normals += extra
        elif name == "ostbc.detect" and extra is not None:
            symbols += extra
        elif name == RUN_POINT and extra is not None:
            used += extra
    idle = 0.0
    if workers > 1:  # one worker runs chunks inline, with no pool to idle
        idle = sum(workers * (last - first) - busy for first, last, busy in waves.values())
    n = max(sweeps, 1)
    return {
        "calls": {k: v / n for k, v in calls.items()},
        "total_s": {k: v / n for k, v in total.items()},
        "self_s": {k: v / n for k, v in self_s.items()},
        "chunk_self_s": {k: v / n for k, v in chunk_self.items()},
        "chunk_ms": chunk_ms,
        "chunk_ms_p50": _percentile(chunk_ms, 50),
        "chunk_ms_p99": _percentile(chunk_ms, 99),
        "worker_idle_s": idle / n,
        "normals": normals / n,
        "symbols_detected": symbols / n,
        "chunks_used": used / n,
    }


def write_spans(path, spans) -> None:
    """Write spans as JSON lines, one span per line."""
    keys = ("sweep", "name", "start", "end", "self_s", "in_chunk", "extra", "thread")
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")
