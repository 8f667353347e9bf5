"""Span tracing of qfluct's public functions, installed from outside the package.

Each wrapped function records a span; spans nest through a stack whose bottom
frame is the benchmark operation itself (the root span).  A function's self
time is its span's duration minus the time covered by its child spans, so the
time of private helpers counts under the nearest wrapped caller.  The wrappers
are meant to be installed only around root operations.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# (module, attribute path) of every function the traced run wraps.
TRACED = (
    ("operator_core", "spectral_decompose"),
    ("operator_core", "support_projector"),
    ("operator_core", "func_on_support"),
    ("operator_core", "compressed_exp"),
    ("operator_core", "require_projector"),
    ("operator_core", "group_eigenspaces"),
    ("measurement", "ExtendedObservable.create"),
    ("measurement", "observable_from_hermitian"),
    ("measurement", "naimark_dilate"),
    ("measurement", "measurement_channel"),
    ("channel", "apply_channel"),
    ("channel", "KrausChannel.create"),
    ("channel", "unitary_from_protocol"),
    ("ttm", "TwoTimeProtocol.create"),
    ("ttm", "joint_distribution"),
    ("ttm", "delta_a_distribution"),
    ("ttm", "efficacy"),
    ("ttm", "verify_ft"),
    ("ttm", "jarzynski_scenario"),
    ("holevo", "random_instance"),
    ("holevo", "prepare_instance"),
    ("holevo", "holevo_chi"),
    ("holevo", "gt_chain"),
    ("holevo", "equality_residual"),
    ("holevo", "analyze"),
    ("holevo", "optimize_measurement"),
    ("rand", "random_povm"),
    ("rand", "random_density_matrix"),
    ("scenario", "load_scenario"),
    ("scenario", "write_report"),
    ("cli", "main"),
)

SPAN_NAMES = tuple(f"{module}.{path}" for module, path in TRACED)


class Tracer:
    """Aggregates calls and self time per span name over root operations."""

    def __init__(self) -> None:
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self._stack: list[list[float]] = []  # per open span: [time covered by children]
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += duration - frame[0]
                stack[-1][0] += duration

        return wrapper

    def root(self, op, *args):
        """Run one operation as the root span.

        Returns (result, duration, time covered by child spans).  Raises
        whatever the operation raises, after closing the span.
        """
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = op(*args)
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
        return result, duration, frame[0]

    def install(self) -> None:
        """Wrap every function in TRACED at each qfluct attribute bound to it."""
        modules = [m for n, m in sys.modules.items() if n == "qfluct" or n.startswith("qfluct.")]
        for module_name, path in TRACED:
            name = f"{module_name}.{path}"
            owner = sys.modules[f"qfluct.{module_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = inspect.getattr_static(cls, attr)
                if not isinstance(raw, classmethod):
                    raise TypeError(f"{name} is not a classmethod")
                setattr(cls, attr, classmethod(self._span(name, raw.__func__)))
                self._restore.append((cls, attr, raw))
                continue
            original = getattr(owner, path)
            wrapper = self._span(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()
