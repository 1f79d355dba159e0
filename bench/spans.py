"""Spans recorded from outside robkf, for the traced run.

``Tracer.installed()`` wraps every plain function in each robkf module's
``__all__`` and every function of ``scipy.linalg``. The wrapper is put in
place of the original wherever a robkf module (or ``scipy.linalg``)
binds it, so ``robkf.filters.solve_theta`` and ``robkf.solve_theta`` are
both traced, and everything is restored on exit. Each call records a
span: name, start, end and the span that was open when it started.
Spans stay in memory; ``write`` saves them at the end of a run.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import pkgutil
import sys
import time
from array import array
from collections import defaultdict

import scipy.linalg

import robkf


def traced_functions() -> dict:
    """{original function: span name} for every function to wrap.

    Span names are ``<module>.<function>`` with robkf's module names
    (``_linalg`` becomes ``linalg``) and ``scipy.linalg.<function>``.
    """
    targets = {}
    for info in pkgutil.iter_modules(robkf.__path__):
        module = importlib.import_module(f"robkf.{info.name}")
        for name in getattr(module, "__all__", ()):
            fn = getattr(module, name)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                targets[fn] = f"{info.name.lstrip('_')}.{name}"
    for name in scipy.linalg.__all__:
        fn = getattr(scipy.linalg, name, None)
        if inspect.isfunction(fn):
            targets[fn] = f"scipy.linalg.{name}"
    return targets


def layer_of(name: str) -> str:
    """robkf module of a span name; scipy.linalg kernels join ``linalg``."""
    if name.startswith("scipy.linalg."):
        return "linalg"
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of = array("l")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("l")
        self._open = [-1]

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _begin(self, nid: int) -> int:
        idx = len(self.starts)
        self.name_of.append(nid)
        self.parents.append(self._open[-1])
        self.ends.append(0)
        self._open.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._begin(self._id(name))
        try:
            yield
        finally:
            self._end(idx)

    def wrap(self, fn, name: str):
        nid = self._id(name)
        begin, end = self._begin, self._end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                end(idx)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced functions for the duration of the block."""
        targets = traced_functions()
        wrappers = {id(fn): (fn, self.wrap(fn, name)) for fn, name in targets.items()}
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "robkf" or n.startswith("robkf.")] + [scipy.linalg]
        replaced = []
        try:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    fn, wrapper = wrappers.get(id(value), (None, None))
                    if fn is value:
                        setattr(module, attr, wrapper)
                        replaced.append((module, attr, value))
            yield
        finally:
            for module, attr, value in reversed(replaced):
                setattr(module, attr, value)

    def __len__(self) -> int:
        return len(self.starts)

    def summary(self) -> dict:
        """Per span name: calls, total self ns, and calls under each parent
        name, as {(parent name, name): calls}.

        Self time is a span's duration minus its direct children's.
        """
        child_ns = defaultdict(int)
        for i in range(len(self)):
            if self.parents[i] >= 0:
                child_ns[self.parents[i]] += self.ends[i] - self.starts[i]
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        under = defaultdict(int)
        for i in range(len(self)):
            name = self.names[self.name_of[i]]
            calls[name] += 1
            self_ns[name] += self.ends[i] - self.starts[i] - child_ns[i]
            if self.parents[i] >= 0:
                under[(self.names[self.name_of[self.parents[i]]], name)] += 1
        return {"calls": dict(calls), "self_ns": dict(self_ns), "under": dict(under)}

    def write(self, path) -> None:
        """Spans as gzipped CSV: index, name, start_ns, end_ns, parent."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i in range(len(self)):
                fh.write(f"{i},{self.names[self.name_of[i]]},{self.starts[i]},"
                         f"{self.ends[i]},{self.parents[i]}\n")
