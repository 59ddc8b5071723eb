"""Span tracer for the benchmark's traced runs.

The tracer measures the simulator's layers from outside: it replaces
public functions and methods of ``repro`` modules with wrappers that
record a span per call, and puts the original objects back on
:meth:`Tracer.uninstall`.  Nothing under ``src/`` is edited.

A span is ``[id, parent, name, start, end, op, info]``: ``start`` and
``end`` are :func:`time.perf_counter` readings (CLOCK_MONOTONIC on
Linux, so spans from forked pool workers share the parent's time
axis), ``parent`` is the enclosing span of the same thread, ``op`` the
benchmark operation the span belongs to (``None`` in pool workers; the
report assigns those by time window, which is exact because the
benchmark is a closed loop with one operation in flight), and ``info``
holds simulated counters an extractor read from the call's result.

Spans stay in memory and are written out once per process: by the
benchmark driver when it finishes, and by each pool worker when its
main loop returns.  Garbage-collector pauses become ``gc.pause`` spans
through :data:`gc.callbacks`.
"""

import functools
import gc
import itertools
import json
import os
import sys
import threading
import time

_perf_counter = time.perf_counter

#: Attribute marking a wrapper with the object it replaced.
ORIGINAL = "__perfbench_original__"


class Tracer:
    """Records spans for wrapped calls in the current process."""

    def __init__(self, trace_dir, role="driver"):
        self.trace_dir = trace_dir
        self.role = role
        self.op = None
        self.spans = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._gc_start = None
        self._patches = []      # (owner, attribute, original)
        self._pending = {}      # module name -> [(attribute, span, extract)]
        self._finder = None
        self._loaders = []
        self._installed = False

    # -- recording ----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_span(self, name):
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        return [next(self._ids), parent, name, 0.0, 0.0, self.op, None]

    def span(self, name):
        """Context manager recording one span (used for benchmark
        operations themselves)."""
        return _SpanContext(self, name)

    def wrap(self, fn, name, extract=None):
        """A wrapper of ``fn`` recording a ``name`` span per call;
        ``extract(args, kwargs, result)`` may return counters to keep
        in the span's ``info``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._new_span(name)
            stack = tracer._stack()
            stack.append(span)
            span[3] = _perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = _perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if extract is not None:
                span[6] = extract(args, kwargs, result)
            return result

        setattr(wrapper, ORIGINAL, fn)
        return wrapper

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = _perf_counter()
            return
        if self._gc_start is None:
            return
        span = self._new_span("gc.pause")
        span[3], span[4] = self._gc_start, _perf_counter()
        span[6] = {"generation": info.get("generation")}
        self._gc_start = None
        self.spans.append(span)

    # -- installing wrappers ------------------------------------------------

    def install(self, targets, worker_entry=None):
        """Wrap every ``(module, attribute, span, extract)`` target.

        Targets in modules not imported yet are wrapped when their
        module finishes loading, so a traced process imports exactly
        what an untraced one would.  ``worker_entry`` names the pool
        worker main loop ``(module, attribute)``: workers forked after
        this call drop the spans inherited from the parent and write
        their own when the loop returns.
        """
        if self._installed:
            raise RuntimeError("tracer already installed")
        self._installed = True
        for module, attribute, name, extract in targets:
            self._pending.setdefault(module, []).append(
                (attribute, name, extract))
        if worker_entry is not None:
            self._pending.setdefault(worker_entry[0], []).append(
                (worker_entry[1], None, None))
        for module in list(self._pending):
            if module in sys.modules:
                self._patch_module(module)
        self._finder = _PostImportHook(self)
        sys.meta_path.insert(0, self._finder)
        gc.callbacks.append(self._on_gc)

    def _patch_module(self, module_name):
        module = sys.modules[module_name]
        for attribute, name, extract in self._pending.pop(module_name, ()):
            owner_path, _, leaf = attribute.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            original = (owner.__dict__[leaf] if isinstance(owner, type)
                        else getattr(owner, leaf))
            if name is None:
                wrapper = self._worker_wrapper(original)
            else:
                wrapper = self.wrap(original, name, extract)
            setattr(owner, leaf, wrapper)
            self._patches.append((owner, leaf, original))
            if not isinstance(owner, type):
                self._rebind_aliases(original, wrapper)

    def _rebind_aliases(self, original, wrapper):
        """Point every ``from module import name`` copy at the wrapper."""
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                    self._patches.append((module, key, original))

    def _worker_wrapper(self, main):
        tracer = self

        @functools.wraps(main)
        def worker_main(*args, **kwargs):
            tracer.spans = []
            tracer._local = threading.local()
            tracer.role = "worker"
            tracer.op = None
            try:
                return main(*args, **kwargs)
            finally:
                tracer.dump()

        setattr(worker_main, ORIGINAL, main)
        return worker_main

    def uninstall(self):
        """Put every original object back and stop recording."""
        if not self._installed:
            return
        if self._finder in sys.meta_path:
            sys.meta_path.remove(self._finder)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for loader in self._loaders:
            loader.__dict__.pop("exec_module", None)
        self._loaders = []
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches = []
        # Modules imported after install may have bound a wrapper.
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                original = getattr(value, ORIGINAL, None)
                if original is not None and callable(value):
                    namespace[key] = original
        self._pending = {}
        self._installed = False

    # -- output -------------------------------------------------------------

    def dump(self):
        """Write this process's spans to ``spans-<pid>.json``."""
        path = os.path.join(self.trace_dir, f"spans-{os.getpid()}.json")
        record = {
            "pid": os.getpid(),
            "role": self.role,
            "tracked_objects": len(gc.get_objects()),
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)


class _SpanContext:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.span = tracer._new_span(name)

    def __enter__(self):
        self.tracer._stack().append(self.span)
        self.span[3] = _perf_counter()
        return self.span

    def __exit__(self, *exc_info):
        self.span[4] = _perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append(self.span)


class _PostImportHook:
    """Meta-path finder that wraps a target module's functions as soon
    as the module has executed."""

    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, name, path, target=None):
        if name not in self.tracer._pending:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        if loader is None or not hasattr(loader, "exec_module"):
            return spec
        exec_module = loader.exec_module
        tracer = self.tracer

        def exec_and_wrap(module):
            exec_module(module)
            if name in tracer._pending:
                tracer._patch_module(name)

        loader.exec_module = exec_and_wrap
        tracer._loaders.append(loader)
        return spec
