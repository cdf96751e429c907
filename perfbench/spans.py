"""Layer spans recorded from outside the program.

The tracer replaces every function and method that a layer's modules
define (dunders, generators and coroutine functions excepted) with a
wrapper, and restores the originals afterwards.  A span opens only where
control crosses into a *different* layer; a call that stays inside the
current layer costs one wrapper frame and records nothing.  Each span's
duration minus the time its child spans cover is the layer's self time,
so the self times of all layers, the select() wait and the root
(``unattributed``) bucket add up exactly to the traced wall.

Code the tracer does not wrap — the ``repro`` entry points, the standard
library, lambdas and closures, and callables stored in tables before the
wrappers went in — counts toward the layer that called it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import selectors
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Optional

#: Layer name → module-name prefixes, matched longest first.  ``crypto``
#: and ``net`` collect the rest of their package, so that group algebra
#: or envelopes are not charged to whichever layer happened to call them.
LAYER_MODULES: dict[str, tuple[str, ...]] = {
    "net.codec": ("repro.net.codec",),
    "crypto.encoding": ("repro.crypto.encoding", "repro.crypto.hashing"),
    "crypto.verify_cache": ("repro.crypto.verify_cache",),
    "crypto.pairing": ("repro.crypto.pairing",),
    "crypto.reshare": ("repro.crypto.reshare",),
    "crypto": ("repro.crypto",),
    "net.metrics": ("repro.net.metrics",),
    "net.party": ("repro.net.party", "repro.net.protocol", "repro.net.conditions"),
    "net.runtime": ("repro.net.runtime",),
    "net.transport": ("repro.net.transport",),
    "net.tcp_runtime": ("repro.net.tcp_runtime",),
    "net": ("repro.net",),
    "broadcast": ("repro.broadcast",),
    "core": ("repro.core",),
    "storage": ("repro.storage",),
    "service": ("repro.service",),
}
LAYERS: tuple[str, ...] = tuple(LAYER_MODULES)
ROOT = "unattributed"
_ABSENT = object()
WAIT = "net.tcp_runtime.wait"

_PREFIXES = sorted(
    (
        (prefix, layer)
        for layer, prefixes in LAYER_MODULES.items()
        for prefix in prefixes
    ),
    key=lambda item: -len(item[0]),
)


def layer_of(module_name: str) -> Optional[str]:
    for prefix, layer in _PREFIXES:
        if module_name == prefix or module_name.startswith(prefix + "."):
            return layer
    return None


class Tracer:
    """Span stack plus per-layer self time, span counts and probes.

    ``probes`` maps ``"module:Qualname"`` to a hook called as
    ``hook(tracer, args, kwargs, result, seconds)`` after every call of
    that function, including calls that stay inside one layer.
    """

    def __init__(self, probes: Optional[dict[str, Callable]] = None) -> None:
        self.probes = dict(probes or {})
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: Counter = Counter()
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: Count and total wall of the traced operations.
        self.operations = 0
        self.wall_s = 0.0
        self._stack: list[list] = []
        self._restore: list[tuple[Any, str, Any]] = []
        self._probed: set[str] = set()

    # -- recording ----------------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def run(self, operation: Callable[[], Any]) -> tuple[Any, float]:
        """Run ``operation`` under the root span; return (result, wall)."""
        frame = [ROOT, 0.0]
        self._stack = [frame]
        start = time.perf_counter()
        try:
            result = operation()
        finally:
            wall = time.perf_counter() - start
            self.operations += 1
            self.wall_s += wall
            self.self_s[ROOT] += wall - frame[1]
            self._stack = []
        return result, wall

    def _wrap(self, fn: Callable, layer: str, probe: Optional[Callable]) -> Callable:
        stack_of = self
        self_s = self.self_s
        spans = self.spans
        clock = time.perf_counter

        if probe is None:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack = stack_of._stack
                if not stack or stack[-1][0] is layer:
                    return fn(*args, **kwargs)
                frame = [layer, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    self_s[layer] += elapsed - frame[1]
                    stack[-1][1] += elapsed
                    spans[layer] += 1

            return wrapper

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            stack = stack_of._stack
            if not stack:
                return fn(*args, **kwargs)
            opens = stack[-1][0] is not layer
            frame = [layer, 0.0]
            if opens:
                stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                if opens:
                    stack.pop()
                    self_s[layer] += elapsed - frame[1]
                    stack[-1][1] += elapsed
                    spans[layer] += 1
                probe(stack_of, args, kwargs, result, elapsed)

        return probed

    # -- installing ---------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer module of ``repro``; fail if a probe is missing."""
        import repro

        self._probed.clear()
        # Import every layer module now: modules imported lazily during
        # the operation would otherwise run unwrapped.
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if layer_of(info.name) is not None:
                importlib.import_module(info.name)
        modules = {
            name: module
            for name, module in sys.modules.items()
            if (name == "repro" or name.startswith("repro.")) and module is not None
        }
        replaced: dict[int, Callable] = {}
        for name, module in modules.items():
            layer = layer_of(name)
            if layer is None:
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value.__module__ == name:
                    wrapped = self._wrapped(value, layer, name)
                    if wrapped is not value:
                        replaced[id(value)] = wrapped
                elif inspect.isclass(value) and value.__module__ == name:
                    self._install_class(value, layer, name)
        # Rebind module-level functions wherever they were imported by name.
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapped = replaced.get(id(value))
                if wrapped is not None:
                    self._set(module, attr, wrapped)
        self._install_select()
        missing = set(self.probes) - self._probed
        if missing:
            self.uninstall()
            raise LookupError(f"probed functions not found: {sorted(missing)}")

    def _wrapped(self, fn: Callable, layer: str, module: str) -> Callable:
        if (
            fn.__name__.startswith("__")
            or inspect.isgeneratorfunction(fn)
            or inspect.iscoroutinefunction(fn)
            or inspect.isasyncgenfunction(fn)
        ):
            return fn
        key = f"{module}:{fn.__qualname__}"
        probe = self.probes.get(key)
        if probe is not None:
            self._probed.add(key)
        return self._wrap(fn, layer, probe)

    def _install_class(self, cls: type, layer: str, module: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("__"):
                continue
            if isinstance(value, (staticmethod, classmethod)):
                inner = value.__func__
                if inspect.isfunction(inner) and inner.__module__ == module:
                    wrapped = self._wrapped(inner, layer, module)
                    if wrapped is not inner:
                        self._set(cls, attr, type(value)(wrapped))
            elif inspect.isfunction(value) and value.__module__ == module:
                wrapped = self._wrapped(value, layer, module)
                if wrapped is not value:
                    self._set(cls, attr, wrapped)

    def _install_select(self) -> None:
        """Charge time blocked in the event loop's select() to ``WAIT``."""
        cls = selectors.DefaultSelector
        self._set(cls, "select", self._wrap(cls.select, WAIT, None))

    def _set(self, target: Any, attr: str, value: Any) -> None:
        self._restore.append((target, attr, vars(target).get(attr, _ABSENT)))
        setattr(target, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            target, attr, original = self._restore.pop()
            if original is _ABSENT:
                delattr(target, attr)
            else:
                setattr(target, attr, original)
