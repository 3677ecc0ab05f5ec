"""Outside-in tracing of homlab's public functions.

Nothing inside the package is edited.  Each traced function object is
replaced, in every ``homlab.*`` namespace that binds it, by a wrapper that
records one span (name, start, end, parent).  Methods are replaced on their
class.  Spans stay in flat in-memory arrays until the run ends; self time
is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np


def _homlab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "homlab" or name.startswith("homlab."))]


def _resolve(target):
    """(owner, attribute) for a 'module:attr' or 'module:Class.method' target.

    The module is looked up in sys.modules because the package namespace
    rebinds some submodule names: ``homlab.groebner`` is the function.
    """
    modname, _, qual = target.partition(":")
    owner = sys.modules[modname]
    parts = qual.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Patch:
    """Replace function objects across homlab namespaces; undo restores them."""

    def __init__(self):
        self._undo = []

    def replace(self, target, make_wrapper):
        owner, attr = _resolve(target)
        orig = getattr(owner, attr)
        wrapper = make_wrapper(orig)
        if isinstance(owner, type):
            self._set(owner, attr, wrapper)
            return
        for mod in _homlab_modules():
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, name, wrapper)

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def undo(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class Tracer:
    """Span recorder; ``install`` wraps targets, ``uninstall`` restores them.

    ``counters`` holds work counts taken at the same boundaries, e.g. the
    cells of each matrix handed to ``rank_mod``.
    """

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {}
        self._stack = []
        self._patch = Patch()

    def install(self, targets):
        """targets: iterable of (span name, 'module:attr', counter or None).

        A counter is called as counter(tracer, args, kwargs, result, before)
        where ``before`` is what ``counter.before(args, kwargs)`` returned,
        when the counter has such an attribute.
        """
        for span_name, target, counter in targets:
            self._patch.replace(
                target, lambda fn, n=span_name, c=counter: self._wrap(n, fn, c)
            )

    def uninstall(self):
        self._patch.undo()

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, span_name, fn, counter):
        nid = self._ids.get(span_name)
        if nid is None:
            nid = self._ids[span_name] = len(self.names)
            self.names.append(span_name)
        stack = self._stack
        name, parent, start, end = self.name, self.parent, self.start, self.end
        clock = time.perf_counter
        before_hook = getattr(counter, "before", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            before = before_hook(args, kwargs) if before_hook else None
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                if counter is not None:
                    counter(self, args, kwargs, out, before)
                return out
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1

        return traced

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        # copies, so the arrays can still grow after an analysis
        return (np.frombuffer(self.name, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy())

    def summary(self):
        """Per span name: calls, self seconds; root-span seconds; least self time."""
        name, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_by = np.bincount(name, weights=self_s, minlength=k)
        out = {n: {"calls": int(calls[i]), "self_s": float(self_by[i])}
               for i, n in enumerate(self.names)}
        least = float(self_s.min()) if len(self_s) else 0.0
        return out, float(dur[~has_parent].sum()), least

    def outermost_calls(self, span_names):
        """Calls of span_names whose parent span is not one of them."""
        name, parent, _, _ = self.arrays()
        ids = [self.names.index(n) for n in span_names if n in self.names]
        if not ids:
            return 0
        mine = np.isin(name, ids)
        parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
        return int((mine & ~np.isin(parent_name, ids)).sum())

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)
