"""Outside-in layer ledger: time and count calls into repro's layers.

The traced pass of every workload installs thin wrappers around the
public entry points of each layer (module functions and the methods
that bound a layer, such as ``MapSearch.__init__`` for solver setup).
Nothing under ``src/`` changes: the wrappers live here, are installed
into the already-imported modules and are removed afterwards.

Each wrapped call opens a span on a per-thread stack.  A layer is
charged its *self* time: the span's duration minus the time of spans
nested inside it, so ``sum(self times) <= wall`` per thread and the
coverage ratio is meaningful.  Counters (calls, vertices, bytes,
nodes) are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

class Ledger:
    """Per-layer self times and counters, safe across threads."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, layer: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` charging its self time to ``layer``."""
        stack = self._stack()
        frame = [0.0]  # time of nested spans
        stack.append(frame)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            with self._lock:
                self.seconds[layer] += elapsed - frame[0]

    def add(self, counter: str, value: int = 1) -> None:
        with self._lock:
            self.counts[counter] += value

    def covered_seconds(self) -> float:
        with self._lock:
            return sum(self.seconds.values())


# ----------------------------------------------------------------------
# Wrappers: one per layer boundary
# ----------------------------------------------------------------------
def _function_wrapper(ledger: Ledger, layer: str, fn: Callable,
                      after: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = ledger.timed(layer, fn, *args, **kwargs)
        if after is not None:
            after(ledger, args, kwargs, result)
        return result

    return wrapper


def _count_classify(ledger, args, kwargs, result):
    ledger.add("adversaries.classify_calls")


def _count_r_affine(ledger, args, kwargs, result):
    ledger.add("core.r_affine_calls")
    ledger.add("core.ra_vertices", len(result.complex.vertices))


def _count_digest(ledger, args, kwargs, result):
    ledger.add("engine.digest_calls")


def _canon_bytes_wrapper(ledger: Ledger, fn: Callable) -> Callable:
    """The ``serialize`` that ``digest`` looks up at call time.

    Counts the canonical text each digest hashes from the one
    ``serialize`` call the digest makes itself; its time stays in the
    enclosing ``engine.digest`` span.
    """

    @functools.wraps(fn)
    def wrapper(obj):
        text = fn(obj)
        ledger.add("engine.canon_bytes", len(text))
        return text

    return wrapper


def _count_request_bytes(ledger, args, kwargs, result):
    ledger.add("svc.request_bytes", len(result))


def _count_response_bytes(ledger, args, kwargs, result):
    ledger.add("svc.response_bytes", len(args[0]))


def _count_split(ledger, args, kwargs, result):
    ledger.add("solver.split_slices", len(result))


def _count_check(ledger, args, kwargs, result):
    ledger.add("certify.checked")
    ledger.add("certify.valid", 1 if result.valid else 0)
    ledger.add("certify.simplices_checked", result.simplices_checked)
    ledger.add("certify.nodes_replayed", result.nodes_replayed)


def _search_wrapper(ledger: Ledger, fn: Callable) -> Callable:
    """``search`` methods: charge solver.search and count nodes."""

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        before = self.nodes_explored
        try:
            return ledger.timed("solver.search", fn, self, *args, **kwargs)
        finally:
            ledger.add("solver.nodes", self.nodes_explored - before)

    return wrapper


#: Module-level functions, patched in every loaded ``repro`` module
#: that holds a reference to them (``from x import f`` copies included).
_FUNCTIONS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.adversaries.fairness", "is_fair", "adversaries.classify",
     _count_classify),
    ("repro.adversaries.setcon", "setcon", "adversaries.classify",
     _count_classify),
    ("repro.adversaries.agreement", "agreement_function_of",
     "adversaries.classify", _count_classify),
    ("repro.core.ra", "r_affine", "core.r_affine", _count_r_affine),
    ("repro.engine.serialize", "digest", "engine.digest", _count_digest),
    ("repro.solver.split", "split_request", "solver.split", _count_split),
    ("repro.certify.witness", "solvable_cert", "certify.extract", None),
    ("repro.certify.witness", "unsolvable_cert", "certify.extract", None),
    ("repro.certify.witness", "budget_stub", "certify.extract", None),
    ("repro.certify.witness", "cert_to_bytes", "certify.encode", None),
    ("repro.certify.checker", "check_bytes", "certify.check", _count_check),
)

#: Functions patched only in the one module named: the client's wire
#: codec is the same ``serialize`` the engine digests with, so a global
#: patch would charge engine digests to the service codec.
_LOCAL_FUNCTIONS = (
    ("repro.service.client", "serialize", "svc.encode",
     _count_request_bytes),
    ("repro.service.client", "deserialize", "svc.encode",
     _count_response_bytes),
)

#: Methods that bound a layer.
_METHODS = (
    ("repro.tasks.solvability", "MapSearch", "__init__", "solver.setup"),
    ("repro.solver.interning", "InternTable", "__init__", "solver.intern"),
    ("repro.sweep.driver", "SweepDriver", "_checkpoint_cell",
     "sweep.checkpoint"),
    ("repro.sweep.driver", "SweepDriver", "assemble_artifact",
     "sweep.checkpoint"),
)

_SEARCH_METHODS = (
    ("repro.tasks.solvability", "MapSearch"),
    ("repro.solver.kernel", "BitsetKernel"),
    ("repro.solver.kernel", "ForwardCheckingKernel"),
)


class Installed:
    """The patches one :func:`install` made, undone by :meth:`remove`."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def remove(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def install(ledger: Ledger) -> Installed:
    """Wrap every layer boundary; returns the handle that removes them."""
    installed = Installed()
    for module_name, attr, layer, after in _FUNCTIONS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        wrapper = _function_wrapper(ledger, layer, original, after)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    installed.set(loaded, key, wrapper)
    for module_name, attr, layer, after in _LOCAL_FUNCTIONS:
        module = importlib.import_module(module_name)
        installed.set(
            module, attr,
            _function_wrapper(ledger, layer, getattr(module, attr), after),
        )
    # Only ``digest`` reads this module global; other modules hold their
    # own reference to ``serialize`` and are left alone.
    serialize_module = importlib.import_module("repro.engine.serialize")
    installed.set(
        serialize_module, "serialize",
        _canon_bytes_wrapper(ledger, serialize_module.serialize),
    )
    for module_name, cls_name, method, layer in _METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        installed.set(
            cls, method,
            _function_wrapper(ledger, layer, vars(cls)[method]),
        )
    for module_name, cls_name in _SEARCH_METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        installed.set(cls, "search", _search_wrapper(ledger, vars(cls)["search"]))
    return installed
