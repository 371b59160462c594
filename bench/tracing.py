"""Spans and counters recorded around calls into the ptdimer layers.

Each hook replaces a name in the module that *looks it up* (for example
``ptdimer.cli.sample_curve``, not ``ptdimer.observables.sample_curve``),
because a module that did ``from .observables import sample_curve`` keeps its
own reference and never sees a patch of the defining module.  A hook whose
target no longer exists is recorded in ``Tracer.absent`` and skipped, so a
refactor that removes a layer leaves its metrics at zero instead of crashing
the benchmark.

Spans live in memory (name, start, end, parent index) and are only read
after the traced pass ends.  They use the process CPU clock, like every
timing of the benchmark (see ``workloads.Clock``).
"""

from __future__ import annotations

import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = math.nan
    ok: bool = True
    data: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Span and counter store; ``install_hooks`` fills it and ``restore`` undoes the patches."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.process_time(), parent)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        except BaseException:
            record.ok = False
            raise
        finally:
            record.end = time.process_time()
            self._stack.pop()

    def _patch(self, module: Any, attr: str, label: str, make: Callable) -> None:
        target = getattr(module, attr, None)
        if target is None:
            self.absent.add(label)
            return
        setattr(module, attr, make(target))
        self._undo.append(lambda: setattr(module, attr, target))

    def wrap(
        self,
        module: Any,
        attr: str,
        name: str,
        before: Callable[[Span, tuple, dict], None] | None = None,
        after: Callable[[Span, tuple, dict, Any], None] | None = None,
    ) -> None:
        """Replace ``module.attr`` with a wrapper that records a span ``name``."""

        def make(target: Callable) -> Callable:
            def traced(*args: Any, **kwargs: Any) -> Any:
                with self.span(name) as record:
                    if before is not None:
                        before(record, args, kwargs)
                    try:
                        result = target(*args, **kwargs)
                    except Exception as exc:
                        self.counts[f"{name}.errors.{type(exc).__name__}"] += 1
                        raise
                    if after is not None:
                        after(record, args, kwargs, result)
                    return result

            return traced

        self._patch(module, attr, f"{module.__name__}.{attr}", make)

    def count(self, module: Any, attr: str, name: str) -> None:
        """Replace ``module.attr`` with a wrapper that only counts calls (for hot paths)."""
        counts = self.counts

        def make(target: Callable) -> Callable:
            def counted(*args: Any, **kwargs: Any) -> Any:
                counts[name] += 1
                return target(*args, **kwargs)

            return counted

        self._patch(module, attr, f"{module.__name__}.{attr}", make)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def rk4_steps(zetas: Any, step: float) -> int:
    """RK4 steps an ``integrate_moments_path`` call takes, from its arguments.

    Each interval between consecutive marks takes its whole steps plus one
    shortened step for any remainder.
    """
    total, done = 0, 0.0
    for mark in zetas:
        span = float(mark) - done
        whole = math.floor(span / step + 1e-9)
        total += whole + (1 if span - whole * step >= step * 1e-9 else 0)
        done = float(mark)
    return total


def install_hooks(tracer: Tracer) -> None:
    """Hook every layer boundary the per-layer metrics read."""
    from ptdimer import cli, observables, verification

    def curve_start(record: Span, args: tuple, kwargs: dict) -> None:
        zetas = kwargs.get("zetas", args[3] if len(args) > 3 else ())
        record.data["points"] = len(zetas)
        record.data["entries0"] = tracer.counts["core.propagator_entries"]

    def curve_end(record: Span, args: tuple, kwargs: dict, result: Any) -> None:
        record.data["entries"] = tracer.counts["core.propagator_entries"] - record.data["entries0"]

    def csv_written(record: Span, args: tuple, kwargs: dict, result: Any) -> None:
        path = kwargs.get("path", args[0] if args else None)
        if path is not None:
            tracer.counts["cli.bytes_written"] += Path(path).stat().st_size

    def oracle_steps(record: Span, args: tuple, kwargs: dict) -> None:
        zetas = kwargs.get("zetas", args[2] if len(args) > 2 else ())
        step = kwargs.get("step", args[3] if len(args) > 3 else None)
        if step is None:
            from ptdimer.moments import DEFAULT_STEP as step
        tracer.counts["moments.rk4_steps"] += rk4_steps(zetas, float(step))

    tracer.wrap(
        cli, "sample_curve", "observables.sample_curve", before=curve_start, after=curve_end
    )
    tracer.wrap(cli, "write_curve_csv", "cli.write_curve_csv", after=csv_written)
    tracer.wrap(cli, "run_verification", "verification.run_verification")
    for module in (cli, verification):
        tracer.wrap(module, "effective_params", "configurations.effective_params")
    for module in (observables, verification):
        tracer.wrap(module, "vacuum_moments", "observables.vacuum_moments")
    tracer.count(observables, "propagator_entries", "core.propagator_entries")
    tracer.wrap(
        verification,
        "integrate_moments_path",
        "moments.integrate_moments_path",
        before=oracle_steps,
    )
