"""Spans around the public functions of each hypoco layer, recorded from outside.

The tracer replaces every binding of a layer's public function, in every
layer module that holds one, with a wrapper that records a span: name,
start, end and the span that was open when it was called.  Modules import
functions by name (``models`` holds its own ``build_decomposition``), so
wrapping only the defining module would miss those calls.  Spans stay in
memory until the run ends; ``uninstall`` puts every original binding back.

Time spent in methods and private helpers counts toward the wrapped
function that called them.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import time
from dataclasses import dataclass, field

#: module -> layer; ``config`` belongs to the ``cli`` layer.  ``container``
#: only serves ``assemble --out``, which no workload runs.
LAYERS = {
    "hypoco.basis": "basis",
    "hypoco.operators": "operators",
    "hypoco.schur": "schur",
    "hypoco.constants": "constants",
    "hypoco.models": "models",
    "hypoco.cli": "cli",
    "hypoco.config": "cli",
}


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    start: float
    end: float = 0.0
    #: no enclosing span has the same name, so its time is not counted twice
    outermost: bool = True
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the wrapped functions while installed.

    ``probes`` maps a span name to ``probe(bound_arguments, result)``, which
    returns attributes for the span.  A probe runs after its span has ended.
    """

    def __init__(self, layers=None, probes=None, clock=time.perf_counter):
        self.layers = dict(LAYERS if layers is None else layers)
        self.probes = dict(probes or {})
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._ids = itertools.count()
        self._open: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def targets(self):
        """(module, attribute, function) for every binding to wrap."""
        modules = {name: importlib.import_module(name) for name in self.layers}
        found = []
        for module in modules.values():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ in self.layers
                        and not obj.__name__.startswith("_")):
                    found.append((module, attr, obj))
        return found

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for module, attr, fn in self.targets():
            if id(fn) not in wrappers:
                short = fn.__module__.rsplit(".", 1)[-1]
                wrappers[id(fn)] = self._wrap(fn, f"{short}.{fn.__name__}",
                                              self.layers[fn.__module__])
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrappers[id(fn)])
        return self

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, fn, name, layer):
        probe = self.probes.get(name)
        signature = inspect.signature(fn) if probe else None

        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(next(self._ids), name, layer, parent, 0.0,
                        outermost=not self._open.get(name))
            self._open[name] = self._open.get(name, 0) + 1
            self._stack.append(span)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
                self._open[name] -= 1
                self.spans.append(span)
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = probe(bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def self_seconds(spans) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    own = {s.id: s.seconds for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.seconds
    return own


def layer_self_seconds(spans) -> dict[str, float]:
    own = self_seconds(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + own[s.id]
    return out


def inclusive_seconds(spans, name) -> float:
    """Wall time inside ``name``, counting nested calls of it once."""
    return sum(s.seconds for s in spans if s.name == name and s.outermost)


def calls(spans, name) -> int:
    return sum(1 for s in spans if s.name == name)


def ancestor(span, by_id, name):
    """The nearest enclosing span called ``name``, or None."""
    parent = by_id.get(span.parent)
    while parent is not None and parent.name != name:
        parent = by_id.get(parent.parent)
    return parent
