"""The three workloads, each a sequence of ptdimer CLI calls made in-process.

One client runs the calls one after another, each waiting for the last (a
closed loop with one client), so nothing competes for the two cores.

* ``figures``: ``ptdimer figure fig2 .. fig5`` with the bundled settings,
  42 panels x 300 points.  A call is one panel; its latency runs from the
  previous panel's CSV write (or the command start) to its own.
* ``verify``: ``ptdimer verify`` at the default tolerance.  A call is one run.
* ``long-reach``: 30 seeded 300-point ``ptdimer sweep`` calls per pass, each
  pass with fresh draws.  A call is one sweep.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import re
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import gate
from tracing import Tracer

FIGURE_IDS = ("fig2", "fig3", "fig4", "fig5")
FIGURE_STEPS = 300
TINY_FIGURE_STEPS = 14  # every 23rd point of the 300-point grid, so the reference still applies

KINDS = ("gain-loss", "gain-gain", "gain-passive", "passive-loss", "loss-loss")
TWO_SIGNED = ("gain-gain", "loss-loss")
OBSERVABLES = ("spont", "q00", "single", "noon_n", "q2002", "all")
GAMMA_RANGE = (0.2, 4.0)
ZETA_MAX_RANGE = (10.0, 300.0)
ZETA_MIN = 0.05
SWEEP_STEPS = 300
TINY_SWEEP_STEPS = 20
DESIGN_SEED = 37  # see long_reach_design
STRATA = len(KINDS) * len(OBSERVABLES)  # one sweep per (kind, observable) cell


@dataclass
class Call:
    """One ``ptdimer.cli.main`` invocation; ``exit_code`` is None when it raised."""

    argv: list[str]
    exit_code: int | None
    cpu_start: float
    cpu: float
    stdout: str
    stderr: str


@dataclass
class Outcome:
    """One unit of the workload (panel, verify run or sweep) as the gate saw it."""

    cpu: float
    points: int = 0
    ok: bool = False
    problems: list[str] = field(default_factory=list)
    runtime_error: str = ""
    cells: int = 0
    defined: int = 0
    margin: float = math.nan


@dataclass
class PassResult:
    cpu: float
    wall: float
    outcomes: list[Outcome]


class Clock:
    """CPU and wall seconds since creation.

    Timings use the process CPU clock: on a virtual machine the hypervisor's
    steal time moves wall-clock readings by up to 10% between runs, while the
    program is single-threaded and CPU-bound, so CPU time is what it costs.
    """

    def __init__(self) -> None:
        self.cpu0, self.wall0 = time.process_time(), time.perf_counter()

    def read(self) -> tuple[float, float]:
        return time.process_time() - self.cpu0, time.perf_counter() - self.wall0


def invoke(argv: list[str], tracer: Tracer | None = None) -> Call:
    """Run the CLI in this process with its output captured."""
    from ptdimer import cli

    out, err = io.StringIO(), io.StringIO()
    cpu_start = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
        try:
            with span:
                code: int | None = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad usage this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is reported, not fatal to the benchmark
            traceback.print_exc()
            code = None
    cpu = time.process_time() - cpu_start
    if tracer is not None:
        tracer.counts[f"cli.exit_{code}"] += 1
    return Call(argv, code, cpu_start, cpu, out.getvalue(), err.getvalue())


@contextlib.contextmanager
def observe(attr: str, record: Callable[[Any], None]) -> Iterator[None]:
    """Hand each result of ``ptdimer.cli.<attr>`` to ``record`` (no-op if the name is gone)."""
    from ptdimer import cli

    target = getattr(cli, attr, None)
    if target is None:
        yield
        return

    def observed(*args: Any, **kwargs: Any) -> Any:
        result = target(*args, **kwargs)
        record(result)
        return result

    setattr(cli, attr, observed)
    try:
        yield
    finally:
        setattr(cli, attr, target)


def _describe(call: Call) -> str:
    tail = call.stderr.strip().splitlines()[-1:] or [""]
    return f"ptdimer {' '.join(call.argv)} -> exit {call.exit_code}: {tail[0][:200]}"


class Figures:
    name = "figures"
    min_passes = 2  # the gate compares the bytes of two passes

    def __init__(self, seed: int, tiny: bool) -> None:
        self.reference = gate.load_reference()
        self.steps = TINY_FIGURE_STEPS if tiny else FIGURE_STEPS
        self.stride = (FIGURE_STEPS - 1) // (self.steps - 1)
        self.first_digests: dict[str, str] | None = None

    def argv(self, figure: str, out_dir: Path) -> list[str]:
        argv = ["figure", figure, "--out", str(out_dir)]
        return argv if self.steps == FIGURE_STEPS else argv + ["--steps", str(self.steps)]

    def run_pass(self, index: int, out_dir: Path, tracer: Tracer | None) -> PassResult:
        clock = Clock()
        calls = []
        for figure in FIGURE_IDS:
            stamps: list[float] = []  # CPU time at which each panel's CSV was written
            with observe("write_curve_csv", lambda _: stamps.append(time.process_time())):
                calls.append((figure, invoke(self.argv(figure, out_dir), tracer), stamps))
        cpu, wall = clock.read()
        outcomes, digests = [], {}
        for figure, call, stamps in calls:
            names = sorted(name for name in self.reference if name.startswith(f"{figure}_"))
            paths = [out_dir / f"{name}.csv" for name in names]
            written = [p for p in paths if call.exit_code == 0 and p.exists()]
            if len(stamps) == len(written):
                ends = [call.cpu_start] + stamps
                latencies = [b - a for a, b in zip(ends, ends[1:])]
            else:  # the panel writer was renamed: split the command evenly
                latencies = [call.cpu / max(len(written), 1)] * len(written)
            for path, latency in zip(written, latencies):
                outcome = Outcome(cpu=latency, points=self.steps)
                outcome.problems, outcome.cells, outcome.defined = gate.compare_to_reference(
                    path, self.reference[path.stem], self.stride
                )
                digests[path.stem] = hashlib.sha256(path.read_bytes()).hexdigest()
                if self.first_digests and self.first_digests.get(path.stem) != digests[path.stem]:
                    outcome.problems.append(f"{path.name}: bytes differ from the first pass")
                outcome.ok = not outcome.problems
                outcomes.append(outcome)
            for _ in range(len(paths) - len(written)):
                outcomes.append(Outcome(cpu=call.cpu, problems=[_describe(call)]))
        if self.first_digests is None:
            self.first_digests = digests
        return PassResult(cpu, wall, outcomes)


class Verify:
    name = "verify"
    min_passes = 1

    def __init__(self, seed: int, tiny: bool) -> None:
        pass

    def run_pass(self, index: int, out_dir: Path, tracer: Tracer | None) -> PassResult:
        clock = Clock()
        reports: list[Any] = []
        with observe("run_verification", reports.append):
            call = invoke(["verify"], tracer)
        cpu, wall = clock.read()
        outcome = Outcome(cpu=call.cpu)
        lines = call.stdout.strip().splitlines()
        report_ok = reports[0].ok if reports else lines[-1:] == ["OK"]
        if call.exit_code == 0 and report_ok:
            outcome.ok = True
        else:
            outcome.problems.append(_describe(call))
        if reports:
            outcome.points = len(reports[0].checks)
            outcome.margin = max(c.deviation / c.limit for c in reports[0].checks)
        elif lines:
            outcome.points = int(lines[0].split()[0])
        return PassResult(cpu, wall, [outcome])


def _log_uniform(bounds: tuple[float, float], u: float) -> float:
    low, high = bounds
    return math.exp(math.log(low) + u * (math.log(high) - math.log(low)))


def long_reach_design() -> list[tuple[str, str, int, int, float]]:
    """Fixed stratified design: (kind, observable, gamma stratum, zeta stratum, sign).

    Every kind meets every observable once.  |gamma| and zeta_max are each
    split into one log-width stratum per sweep, and a frozen shuffle pairs the
    strata with the cells (a Latin hypercube), so each pass covers both ranges
    evenly.  Kinds with two reachable signs get each sign three times.

    DESIGN_SEED is the smallest shuffle seed whose design reaches all three
    far-field behaviours for every run seed: an oscillatory gain-loss sweep
    past zeta 100, a gain sweep past the quadrature's "Non-finite values"
    limit, and a lossy q2002/all sweep past the "Numerical result out of
    range" limit.  bench/tests checks this coverage.
    """
    rng = random.Random(DESIGN_SEED)
    cells = [(kind, observable) for kind in KINDS for observable in OBSERVABLES]
    gamma_strata = list(range(len(cells)))
    zeta_strata = list(range(len(cells)))
    rng.shuffle(gamma_strata)
    rng.shuffle(zeta_strata)
    signs: dict[str, list[float]] = {}
    for kind in KINDS:
        if kind in TWO_SIGNED:
            pool = [-1.0, 1.0] * (len(OBSERVABLES) // 2)
        else:
            pool = [-1.0] * len(OBSERVABLES)
        rng.shuffle(pool)
        signs[kind] = pool
    return [
        (kind, observable, g, z, signs[kind].pop())
        for (kind, observable), g, z in zip(cells, gamma_strata, zeta_strata)
    ]


class LongReach:
    name = "long-reach"
    min_passes = 2  # one antithetic pair; 30 unlike sweeps alone are too few to be steady

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.steps = TINY_SWEEP_STEPS if tiny else SWEEP_STEPS
        design = long_reach_design()
        # tiny: the diagonal, one sweep per kind, each with another observable
        self.design = design[:: len(OBSERVABLES) + 1] if tiny else design

    def sweeps(self, index: int, out_dir: Path) -> list[list[str]]:
        """The pass's sweep command lines; the seed places each sweep inside its strata.

        Passes come in antithetic pairs: pass 2k+1 mirrors the in-stratum
        positions of pass 2k, so a pair's cost hardly depends on the seed
        while each pass alone still draws log-uniformly.
        """
        rng = random.Random(f"long-reach:{self.seed}:{index // 2}")

        def position() -> float:
            u = rng.random()
            return 1.0 - u if index % 2 else u

        commands = []
        for number, (kind, observable, g, z, sign) in enumerate(self.design):
            gamma = sign * _log_uniform(GAMMA_RANGE, (g + position()) / STRATA)
            zeta_max = _log_uniform(ZETA_MAX_RANGE, (z + position()) / STRATA)
            commands.append([
                "sweep", "--kind", kind, "--gamma", repr(gamma), "--observable", observable,
                "--zeta-min", repr(ZETA_MIN), "--zeta-max", repr(zeta_max),
                "--steps", str(self.steps), "--out", str(out_dir / f"sweep{number:02d}.csv"),
            ])  # fmt: skip
        return commands

    def run_pass(self, index: int, out_dir: Path, tracer: Tracer | None) -> PassResult:
        clock = Clock()
        calls = [invoke(argv, tracer) for argv in self.sweeps(index, out_dir)]
        cpu, wall = clock.read()
        outcomes = []
        for call in calls:
            outcome = Outcome(cpu=call.cpu)
            if call.exit_code == 0:
                path = Path(call.argv[call.argv.index("--out") + 1])
                outcome.problems, outcome.cells, outcome.defined = gate.check_sweep(
                    path, self.steps
                )
                outcome.points = self.steps
                outcome.ok = not outcome.problems
            elif call.exit_code == 1:  # documented runtime failure: counted, not a gate rejection
                message = (call.stderr.strip().splitlines() or [""])[-1]
                outcome.runtime_error = re.sub(r"-?\d[\d.e+-]*", "#", message)[:160]
            else:
                outcome.problems.append(_describe(call))
            outcomes.append(outcome)
        return PassResult(cpu, wall, outcomes)


WORKLOADS = {w.name: w for w in (Figures, Verify, LongReach)}
