"""Layer spans recorded from outside the program.

Every public function of the drgcert modules is wrapped, under every
module attribute that refers to it (``drgcert.certify.automorphism_group``
and ``drgcert.tables.automorphism_group`` are the same function bound in
two places), and ``Certificate.to_json``/``from_json`` are wrapped on the
class.  Each call records a span (name, start, end, parent) in memory; a
layer's self time is its span time minus the time of its child spans.
Nothing under src/ is modified: the wrappers are installed on a live
process and removed again by ``uninstall``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

MODULES = (
    "autgroup", "certify", "cli", "drg", "expected", "families", "graph", "io", "knowledge", "tables",
)


def _observe_aut(counts, group):
    counts["autgroup.generators"] += len(group.generators)


def _observe_certify(counts, cert):
    counts["certify.classes_open"] += len(cert.open_classes)
    counts["certify.budget_exhausted"] += sum("search budget" in note for note in cert.notes)


def _observe_to_json(counts, text):
    counts["certify.cert_bytes"] += len(text)


# counters read off a layer's return value, keyed by span name
OBSERVERS = {
    "autgroup.automorphism_group": _observe_aut,
    "certify.certify": _observe_certify,
    "certify.to_json": _observe_to_json,
}


class Tracer:
    def __init__(self):
        # one [name, start, end, parent index] per call; parent -1 for a root
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(counts, result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module("drgcert")]
        modules += [importlib.import_module(f"drgcert.{name}") for name in MODULES]
        wrappers = {}
        for mod in modules[1:]:
            short = mod.__name__.split(".")[-1]
            for attr, value in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                ):
                    wrappers[value] = self._wrap(f"{short}.{attr}", value)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    self._undo.append((mod, attr, value))
        cert_cls = importlib.import_module("drgcert.certify").Certificate
        to_json = cert_cls.__dict__["to_json"]
        from_json = cert_cls.__dict__["from_json"]
        cert_cls.to_json = self._wrap("certify.to_json", to_json)
        cert_cls.from_json = classmethod(self._wrap("certify.from_json", from_json.__func__))
        self._undo += [(cert_cls, "to_json", to_json), (cert_cls, "from_json", from_json)]

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def summary(self) -> dict:
        """Calls and self seconds per layer."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for index, (name, start, end, parent) in enumerate(self.spans):
            row = layers[name]
            row["calls"] += 1
            row["self_s"] += end - start - child_time[index]
        return dict(layers)

    def roots(self) -> list[tuple[str, float]]:
        """(name, seconds) of every span that has no traced caller."""
        return [(name, end - start) for name, start, end, parent in self.spans if parent < 0]
