"""Span tracing of l1net's public functions, installed from outside the package.

``from .net import forward_batch`` binds ``forward_batch`` separately in every
importing module, so wrapping ``l1net.net.forward_batch`` alone would miss the
calls made from ``cli``, ``evaluate`` and ``datagen``.  :class:`Tracer` instead
replaces every binding of a public function, in every ``l1net`` module, by one
wrapper that records a span ``[name, start_ns, end_ns, parent, work, tag,
error]``.  ``work`` counts rows (batched net routines) or draws (sampling);
``tag`` carries the depth of ``laplacian_batch`` calls and whether a
``project_l1`` input lay outside the ball.

Spans stay in memory; :meth:`Tracer.dump` writes them out and
:func:`layer_stats` reduces them to per-function calls, busy time and self
time.  Self time is a span's duration minus the durations of its direct
children, so the self times of all spans add up to the time covered by the
outermost spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

import numpy as np

MODULES = ("cli", "datagen", "sparsity", "net", "evaluate", "bounds")


# Every caller in l1net passes these arguments positionally, except ``size``.
def _rows(args, kwargs):
    return int(np.shape(args[1])[0]), None


def _laplacian_rows(args, kwargs):
    return int(np.shape(args[1])[0]), f"L{args[0].depth}"


def _draws(args, kwargs):
    size = args[4] if len(args) > 4 else kwargs.get("size")
    return (1 if size is None else int(np.prod(size))), None


def _ball_side(args, kwargs):
    v, r = args[0], args[1]
    # Same test, with the same slack, as the early return in project_l1.
    outside = float(np.abs(np.asarray(v, dtype=float)).sum()) > r * (1.0 + 1e-12)
    return 1, "sort" if outside else "inside"


_MEASURES = {
    "net.forward_batch": _rows,
    "net.grad_input_batch": _rows,
    "net.laplacian_batch": _laplacian_rows,
    "datagen.sample_truncated_normal": _draws,
    "sparsity.project_l1": _ball_side,
}


def public_functions():
    """``{function: "module.name"}`` for every function in a traced module's
    ``__all__`` that the module itself defines."""
    found = {}
    for short in MODULES:
        module = importlib.import_module(f"l1net.{short}")
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[obj] = f"{short}.{name}"
    return found


class Tracer:
    """Collects spans from the wrapped public functions of ``l1net``."""

    def __init__(self):
        self.names = []
        self.spans = []
        self._stack = []
        self._patched = []

    def _wrap(self, fn, qualname):
        name_id = len(self.names)
        self.names.append(qualname)
        spans = self.spans
        stack = self._stack
        measure = _MEASURES.get(qualname)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            work, tag = measure(args, kwargs) if measure is not None else (0, None)
            span = [name_id, 0, 0, stack[-1] if stack else -1, work, tag, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        """Replace every binding of a public function in every loaded
        ``l1net`` module by its traced wrapper."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        originals = public_functions()
        wrappers = {fn: self._wrap(fn, name) for fn, name in originals.items()}
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "l1net" or modname.startswith("l1net.")):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start_ns", "end_ns", "parent", "work", "tag", "error"],
                "names": self.names,
                "spans": self.spans,
            }, fh, separators=(",", ":"))
            fh.write("\n")


def layer_stats(names, spans) -> dict:
    """Per-function totals: ``calls``, ``busy_ns`` (time inside the function,
    not counting a call nested in a call of the same function), ``self_ns``,
    ``work``, ``errors`` and per-tag ``calls``/``busy_ns``/``work``; plus
    ``covered_ns``, the time spent inside outermost spans."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_ns[span[3]] += span[2] - span[1]
    stats = {}
    covered = 0
    for i, (name_id, start, end, parent, work, tag, error) in enumerate(spans):
        dur = end - start
        name = names[name_id]
        entry = stats.setdefault(name, {
            "calls": 0, "busy_ns": 0, "self_ns": 0, "work": 0, "errors": {},
            "tags": {},
        })
        entry["calls"] += 1
        entry["self_ns"] += dur - child_ns[i]
        entry["work"] += work
        if error is not None:
            entry["errors"][error] = entry["errors"].get(error, 0) + 1
        if parent < 0:
            covered += dur
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name_id:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["busy_ns"] += dur
        if tag is not None:
            t = entry["tags"].setdefault(tag, {"calls": 0, "busy_ns": 0, "work": 0})
            t["calls"] += 1
            t["busy_ns"] += dur
            t["work"] += work
    return {"functions": stats, "covered_ns": covered}
