"""Spans around prismcat's public functions, recorded from outside the package.

The tracer replaces every binding of each target function -- in its home
module and in every prismcat module that copied it with ``from .x import f``
-- by a wrapper that records a span ``(name, parent, start, end)``.  A span's
parent is the span that was open when it started, so a layer's self time is
its duration minus the durations of its direct children.  Some wrappers also
update per-op counters (admitted labelings, square-and-multiply products,
bytes written or read, configurations checked).
"""

from __future__ import annotations

import os
import sys
import time
from typing import Callable, Optional


def _admitted(counters: dict, args: tuple, result) -> None:
    counters["labelings.is_admissible.admitted"] += bool(result)


def _products(counters: dict, args: tuple, result) -> None:
    # Repeated squaring of M^n takes floor(log2 n) squarings plus
    # popcount(n) - 1 multiplications.
    n = args[1]
    if n >= 1:
        counters["moebius.pow.products"] += n.bit_length() - 1 + bin(n).count("1") - 1


def _file_bytes(key: str) -> Callable[[dict, tuple, object], None]:
    def hook(counters: dict, args: tuple, result) -> None:
        if isinstance(args[-1], (str, os.PathLike)):
            counters[key] += os.path.getsize(args[-1])

    return hook


def _checked(counters: dict, args: tuple, result) -> None:
    counters["catalog.verify_catalog.checked"] += result.entries_checked


# (layer name, module, attribute, records a span, counter hook)
TARGETS: tuple[tuple[str, str, str, bool, Optional[Callable]], ...] = (
    ("labelings.enumerate_catalog", "prismcat.labelings", "enumerate_catalog", True, None),
    ("labelings.scan_admissible", "prismcat.labelings", "scan_admissible", True, None),
    ("labelings.is_admissible", "prismcat.labelings", "is_admissible", True, _admitted),
    ("geometry.realize", "prismcat.geometry", "realize", True, None),
    ("geometry.build_lines", "prismcat.geometry", "build_lines", True, None),
    ("geometry.verify_config", "prismcat.geometry", "verify_config", True, None),
    ("moebius.build_generators", "prismcat.moebius", "build_generators", True, None),
    ("moebius.verify_relations", "prismcat.moebius", "verify_relations", True, None),
    ("moebius.trace_check", "prismcat.moebius", "trace_check", True, None),
    ("moebius.pow", "prismcat.moebius", "MoebiusMatrix.pow", True, _products),
    ("catalog.build_entry", "prismcat.catalog", "build_entry", True, None),
    ("catalog.build_catalog", "prismcat.catalog", "build_catalog", True, None),
    ("catalog.dumps_catalog", "prismcat.catalog", "dumps_catalog", True, None),
    ("catalog.dump_catalog", "prismcat.catalog", "dump_catalog", False,
     _file_bytes("catalog.dump_catalog.bytes")),
    ("catalog.load_catalog", "prismcat.catalog", "load_catalog", True,
     _file_bytes("catalog.load_catalog.bytes")),
    ("catalog.verify_catalog", "prismcat.catalog", "verify_catalog", True, _checked),
)

SPAN_NAMES = tuple(name for name, _, _, is_span, _ in TARGETS if is_span)
COUNTER_NAMES = (
    "labelings.is_admissible.admitted",
    "moebius.pow.products",
    "catalog.dump_catalog.bytes",
    "catalog.load_catalog.bytes",
    "catalog.verify_catalog.checked",
)


class Tracer:
    """Records spans and counters for one op at a time while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, is_span: bool, hook: Optional[Callable]):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        if not is_span:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(counters, args, result)
                return result

            return counted

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end)
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of every target inside the prismcat package."""
        modules = [
            module
            for key, module in list(sys.modules.items())
            if key == "prismcat" or key.startswith("prismcat.")
        ]
        for name, module_name, attr, is_span, hook in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original, is_span, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, is_span, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def take(self) -> tuple[list, dict]:
        """The spans and counters recorded since the last call, then reset."""
        spans, counters = list(self.spans), dict(self.counters)
        self.spans.clear()
        for key in self.counters:
            self.counters[key] = 0
        return spans, counters


def self_times(spans: list) -> tuple[dict[str, tuple[int, float]], float]:
    """Per-name (calls, self seconds), and the summed duration of top-level spans.

    Self time is a span's duration minus the durations of its direct
    children, so the self times of all spans add up to the top-level total.
    """
    child = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    stats: dict[str, tuple[int, float]] = {}
    top = 0.0
    for index, (name, parent, start, end) in enumerate(spans):
        calls, total = stats.get(name, (0, 0.0))
        stats[name] = (calls + 1, total + (end - start) - child[index])
        if parent < 0:
            top += end - start
    return stats, top
