"""Span recording for the traced run, from outside the library.

:func:`install` replaces the public functions of every ``ybrack`` module,
under every module attribute name that refers to them (so ``from .cochains
import coboundary`` inside ``homotopy`` is covered), plus the few methods
named in ``METHODS``, with wrappers that open a span around the call.  It
returns an :class:`Installation` whose ``remove`` puts the original objects
back.  The untraced run never calls it.

Spans live in memory as parallel lists (name id, start, end, parent index)
and are written out once the run ends.  A span's self time is its duration
minus the durations of its direct children; calls are synchronous and
single-threaded, so children never overlap each other.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
import types

import numpy as np

# (module, class, method, span name): methods traced besides module functions;
# ring arithmetic only over the truncated rings
METHODS = (
    ("linalg", "ExactMatrix", "submatrix", "linalg.submatrix"),
    ("rings", "SeriesRing", "mat_mul", "rings.mat_mul"),
    ("rings", "PadicRing", "mat_mul", "rings.mat_mul"),
    ("rings", "SeriesRing", "mat_kron", "rings.mat_kron"),
    ("rings", "PadicRing", "mat_kron", "rings.mat_kron"),
    ("rings", "SeriesRing", "mat_inv", "rings.mat_inv"),
    ("rings", "PadicRing", "mat_inv", "rings.mat_inv"),
)


class Tracer:
    """In-memory span store.  ``open`` returns the span index for ``close``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self._stack = [-1]
        self.counters: dict[str, float] = {}

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def arrays(self):
        """(durations, self times, parents, name ids) as int64 arrays in ns."""
        start = np.asarray(self.start, dtype=np.int64)
        dur = np.asarray(self.end, dtype=np.int64) - start
        parent = np.asarray(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.zeros(len(dur), dtype=np.int64)
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur, dur - child, parent, np.asarray(self.name_id, dtype=np.int64)

    def totals(self) -> dict:
        """{span name: {"calls", "self_s", "total_s"}}."""
        dur, own, _, nid = self.arrays()
        out = {}
        for i, name in enumerate(self.names):
            sel = nid == i
            out[name] = {"calls": int(sel.sum()), "self_s": own[sel].sum() / 1e9,
                         "total_s": dur[sel].sum() / 1e9}
        return out

    def child_count(self, child: str, parent: str) -> int:
        """Number of ``child`` spans whose direct parent is a ``parent`` span."""
        if child not in self._ids or parent not in self._ids:
            return 0
        nid = np.asarray(self.name_id, dtype=np.int64)
        par = np.asarray(self.parent, dtype=np.int64)
        sel = (nid == self._ids[child]) & (par >= 0)
        return int(np.sum(nid[par[sel]] == self._ids[parent]))

    def dump(self) -> dict:
        return {"names": self.names, "name_id": self.name_id, "start_ns": self.start,
                "end_ns": self.end, "parent": self.parent}


def _nnz(mat) -> int:
    """Stored nonzeros of an ExactMatrix, read from its storage:
    ``ExactMatrix.nnz`` walks a dense grid entry by entry in Python."""
    sparse = getattr(mat, "_sparse", None)
    if sparse is not None:
        return len(sparse)
    dense = getattr(mat, "_dense", None)
    if isinstance(dense, np.ndarray):
        return int(np.count_nonzero(dense))
    return mat.nnz()


def _rank_hook(tracer, args, kwargs, result):
    mat = args[0] if args else kwargs["mat"]
    tracer.peak("linalg.rank.max_cells", mat.rows * mat.cols)
    tracer.count("linalg.rank.nnz", _nnz(mat))


def _coboundary_matrix_hook(tracer, args, kwargs, result):
    tracer.count("cochains.coboundary_matrix.nnz", _nnz(result))


# counters read at the layer boundary, after the call returns
HOOKS = {"linalg.rank": _rank_hook,
         "cochains.coboundary_matrix": _coboundary_matrix_hook}


def _wrap(fn, name, tracer):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result
    return traced


def modules(package) -> list:
    """The package and every submodule, imported."""
    found = [package]
    for info in pkgutil.iter_modules(package.__path__):
        found.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return found


def public_functions(package) -> dict:
    """{span name: function} for the public functions each module defines,
    including ``functools`` caches."""
    out = {}
    for module in modules(package)[1:]:
        short = module.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(module).items():
            if attr.startswith("_"):
                continue
            is_function = isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")
            if is_function and getattr(obj, "__module__", None) == module.__name__:
                out[f"{short}.{attr}"] = obj
    return out


def caches(package) -> list:
    """Every ``functools`` cache the package's modules define."""
    return [obj for module in modules(package)[1:] for obj in vars(module).values()
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == module.__name__]


class Installation:
    """The attributes ``install`` replaced, so ``remove`` can restore them;
    an inherited method is shadowed on the subclass and deleted again."""

    def __init__(self):
        self._undo: list[tuple[object, str, object, bool]] = []

    def set(self, owner, attr, value):
        own = attr in vars(owner)
        self._undo.append((owner, attr, getattr(owner, attr), own))
        setattr(owner, attr, value)

    def remove(self):
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def install(package, tracer: Tracer) -> Installation:
    inst = Installation()
    originals = public_functions(package)
    by_id = {id(fn): _wrap(fn, name, tracer) for name, fn in originals.items()}
    for module in modules(package):
        for attr, obj in list(vars(module).items()):
            wrapper = by_id.get(id(obj))
            if wrapper is not None:
                inst.set(module, attr, wrapper)
    for module_name, class_name, method, span in METHODS:
        klass = getattr(importlib.import_module(f"{package.__name__}.{module_name}"), class_name)
        inst.set(klass, method, _wrap(getattr(klass, method), span, tracer))
    return inst
