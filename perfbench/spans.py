"""Per-layer spans recorded from outside the package.

Every public function of each layer module is wrapped.  ``cli`` and
``truncated_oracle`` bind ``steady_state`` and ``build_liouvillian`` by name
(``from .dynamics import steady_state``), and the package ``__init__``
re-exports most functions, so a wrapper is installed under every name, in
every module, that refers to a wrapped function; patching only the defining
module would miss those calls.

Spans are aggregated as they close rather than stored: per function, the
call count, the inclusive time, the self time (the span minus the time its
child spans cover), the failures (calls that raised) and the largest
``nbytes`` of a returned array.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

LAYERS = (
    "fock_algebra", "model", "collective", "truncated_oracle",
    "dynamics", "observables", "dark_state", "cli",
)

CALLS, INCLUSIVE, SELF, FAILURES, NBYTES = range(5)


class Tracer:
    """Installs span-recording wrappers into the package and removes them."""

    def __init__(self) -> None:
        self.modules = [importlib.import_module("chiralqed")] + [
            importlib.import_module(f"chiralqed.{layer}") for layer in LAYERS
        ]
        self.stats: dict[tuple[str, str], list] = {}
        self._stack: list[float] = []  # child time accumulated by each open span
        self._pairs: list[tuple[object, object]] = []  # (original, wrapper)
        for layer, module in zip(LAYERS, self.modules[1:]):
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    self._pairs.append((obj, self._wrap(layer, name, obj)))

    def _wrap(self, layer: str, name: str, fn):
        record = self.stats.setdefault((layer, name), [0, 0.0, 0.0, 0, 0])
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                record[FAILURES] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                record[CALLS] += 1
                record[INCLUSIVE] += elapsed
                record[SELF] += elapsed - children
            record[NBYTES] = max(record[NBYTES], getattr(out, "nbytes", 0))
            return out

        return span

    def _swap(self, replacement: dict[int, object]) -> None:
        for module in self.modules:
            for name, obj in list(vars(module).items()):
                new = replacement.get(id(obj))
                if new is not None:
                    setattr(module, name, new)

    def install(self) -> None:
        self._swap({id(original): wrapper for original, wrapper in self._pairs})

    def remove(self) -> None:
        self._swap({id(wrapper): original for original, wrapper in self._pairs})

    def layer_self(self) -> dict[str, float]:
        """Total self time per layer, in seconds."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for (layer, _), record in self.stats.items():
            totals[layer] += record[SELF]
        return totals
