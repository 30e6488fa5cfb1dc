"""Spans around the public functions of the seven cubicnls modules.

``Tracer.install`` replaces every public function of each module with a
wrapper that records one span per call: function id, parent span, start,
end and one number describing the call (array size or profile time).
``from ... import`` copies names into the importing modules, so every
module's namespace is searched for the originals and each copy replaced;
``ClosedFormSolution.eval`` is a separate alias of ``__call__`` and is
wrapped under the same name.  Spans stay in memory until ``save``.  While
``active`` is false the wrappers record nothing.

Self time of a span is its duration minus that of its child spans.  A
function's ``self_s`` adds, over its outermost calls, the self time of the
call and of every same-module call nested under it without leaving the
module; a module's ``self_s`` adds the self time of all its spans.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("elliptic", "standard_form", "quadratic_flow", "closed_form", "reconstruction", "profile", "cli")
CLI_FUNCTIONS = ("main", "cmd_standardize", "cmd_solve", "cmd_fixed_points", "cmd_profile")
# (module, class, attribute, span name)
METHODS = (
    ("closed_form", "ClosedFormSolution", "__call__", "eval"),
    ("closed_form", "ClosedFormSolution", "eval", "eval"),
    ("quadratic_flow", "Trajectory", "at", "trajectory_at"),
    ("profile", "FinalData", "interp", "FinalData.interp"),
)


def _size_of_first(args):
    return float(np.size(args[0])) if args else 0.0


def _aux_for(layer: str, name: str):
    """What the span records besides its times."""
    if layer == "elliptic":
        return _size_of_first
    if name == "eval":
        return lambda args: float(np.size(args[1]))
    if name == "uapp":
        return lambda args: float(args[2])
    return None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.aux = array("d")
        self._stack = [-1]
        self._undo: list = []
        self._active = [True]

    @property
    def active(self) -> bool:
        return self._active[0]

    @active.setter
    def active(self, on: bool) -> None:
        self._active[0] = on

    # -- recording ---------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        fid = len(self.names)
        self.names.append(f"{layer}.{name}")
        self.layer_of.append(LAYERS.index(layer))
        aux_fn = _aux_for(layer, name)
        stack, active = self._stack, self._active
        fids, parents, starts, ends, auxs = self.fid, self.parent, self.start, self.end, self.aux

        def traced(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            idx = len(starts)
            fids.append(fid)
            parents.append(stack[-1])
            auxs.append(aux_fn(args) if aux_fn is not None else 0.0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"cubicnls.{layer}") for layer in LAYERS}
        replace = {}
        for layer, mod in modules.items():
            names = CLI_FUNCTIONS if layer == "cli" else getattr(mod, "__all__", ())
            for name in names:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    replace[id(fn)] = (fn, self._wrap(layer, name, fn))
        # every module namespace holding a copy of a wrapped function
        for mod in [m for key, m in list(sys.modules.items()) if key.startswith("cubicnls")]:
            for key, val in list(vars(mod).items()):
                if id(val) in replace and replace[id(val)][0] is val:
                    self._undo.append((mod, key, val))
                    setattr(mod, key, replace[id(val)][1])
        wrapped_methods = {}
        for layer, cls_name, attr, span in METHODS:
            cls = getattr(modules[layer], cls_name)
            fn = cls.__dict__[attr]
            if id(fn) not in wrapped_methods:
                wrapped_methods[id(fn)] = self._wrap(layer, span, fn)
            self._undo.append((cls, attr, fn))
            setattr(cls, attr, wrapped_methods[id(fn)])

    def uninstall(self) -> None:
        for owner, key, val in reversed(self._undo):
            setattr(owner, key, val)
        self._undo.clear()

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            layers=np.array(LAYERS),
            layer_of=np.array(self.layer_of, dtype=np.int32),
            fid=np.frombuffer(self.fid, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            aux=np.frombuffer(self.aux, dtype=np.float64),
        )


class SpanSummary:
    """Per-function and per-module aggregates of the recorded spans."""

    def __init__(self, tr: Tracer):
        self.names = tr.names
        fid = np.frombuffer(tr.fid, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(tr.parent, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(tr.end, dtype=np.float64) - np.frombuffer(tr.start, dtype=np.float64)
        n = len(fid)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n) if n else np.zeros(0)
        own = dur - child
        layer_of = np.array(tr.layer_of, dtype=np.int64)
        layer = layer_of[fid] if n else fid
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -1)
        parent_fid = np.where(has_parent, fid[np.maximum(parent, 0)], -1)
        # own time plus that of same-module descendants reached without
        # leaving the module; parents precede children in the arrays
        incl = own.copy()
        same = np.nonzero(parent_layer == layer)[0]
        par = parent.tolist()
        incl_l = incl.tolist()
        for i in same[::-1].tolist():
            incl_l[par[i]] += incl_l[i]
        self.fid, self.parent, self.dur, self.own = fid, parent, dur, own
        self.incl = np.array(incl_l)
        self.layer, self.parent_layer, self.parent_fid = layer, parent_layer, parent_fid
        self.aux = np.frombuffer(tr.aux, dtype=np.float64)

    def _fid(self, name: str) -> int:
        return self.names.index(name)

    def mask(self, name: str) -> np.ndarray:
        return self.fid == self._fid(name)

    def calls(self, *names) -> int:
        return int(sum(np.count_nonzero(self.mask(n)) for n in names))

    def self_s(self, name: str) -> float:
        """Inclusive same-module time over the outermost calls of ``name``."""
        k = self._fid(name)
        outer = (self.fid == k) & (self.parent_fid != k)
        return float(np.sum(self.incl[outer]))

    def layer_self_s(self, layer: str) -> float:
        return float(np.sum(self.own[self.layer == LAYERS.index(layer)]))

    def layer_entries(self, layer: str) -> np.ndarray:
        k = LAYERS.index(layer)
        return (self.layer == k) & (self.parent_layer != k)

    def children_of(self, parent_name: str, child_name: str) -> int:
        return int(np.count_nonzero(self.mask(child_name) & (self.parent_fid == self._fid(parent_name))))
