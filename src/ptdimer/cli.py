"""Command-line front end: parameter sweeps, bundled figure datasets, checks.

Three subcommands:

    sweep    sample one observable for one device over a distance grid
    figure   write the bundled multi-panel datasets (fig2 .. fig5)
    verify   cross-check the closed form against the moment integrator

Sweeps write a single CSV with one row per propagation distance: a leading
'#' metadata line (kind, gamma, beta, nr, g, observable), a header row, then
17-significant-digit values separated by commas.  Identical inputs produce
byte-identical files; each figure panel is written as one such sweep.  A sweep
reaches at most MAX_ZETA = 1e8 coupling lengths, where the phase Omega zeta still
carries about 8 digits.  Exit codes: 0 success, 1 runtime failure (I/O, a failed
verify, an exponential overflow), 2 usage error (an option argparse rejects, a
bad config value, an --out that names no file such as "" or "sub/", --zeta-max
past MAX_ZETA, a grid too fine for its window, a device past the float range); a
usage error prints one 'usage error:' line and writes no file.  ``main`` returns
the code and never raises: only -h exits, with 0.
After the CSV is written, stderr gets one 'note: zeta=FIRST..LAST, COUNT points:
REASON' line per run of points gapped for one reason.  The argument parser is
built once per process and reused, so repeated in-process ``main`` calls pay for
it once; each call parses into a fresh namespace, so no value carries over.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

import numpy as np

from .configurations import Kind, effective_params, preset_realization
from .core import EffectiveParams
from .observables import (
    CURVE_COLUMNS,
    MAX_ZETA,
    ZERO_UNDEFINED,
    ObservableCurve,
    sample_curve,
)
from .verification import run_verification

GAMMA_MAGNITUDES = (0.5, 1.0, 1.2)
DEFAULT_FIGURE_STEPS = 300
# sample_curve holds every grid point at once (a peak of about 1.1 kB each,
# 64 bytes kept), so a mistyped --steps must fail before the grid is built
MAX_STEPS = 100_000

# Bundled figures: observable and device rows.  A panel is the default RunSpec of one
# device at one |gamma| and the figure's --steps, from zeta 0 where the observable is
# defined there (it is not in ZERO_UNDEFINED), to show the launch values.
FIGURES: dict[str, tuple[str, tuple[Kind, ...]]] = {
    "fig2": ("spont", (Kind.GAIN_LOSS, Kind.GAIN_GAIN, Kind.GAIN_PASSIVE)),
    "fig3": ("q00", (Kind.GAIN_LOSS, Kind.GAIN_GAIN, Kind.GAIN_PASSIVE)),
    "fig4": ("single", (Kind.GAIN_LOSS, Kind.GAIN_GAIN, Kind.GAIN_PASSIVE, Kind.PASSIVE_LOSS)),
    "fig5": ("q2002", (Kind.GAIN_LOSS, Kind.GAIN_GAIN, Kind.GAIN_PASSIVE, Kind.PASSIVE_LOSS)),
}


class UsageError(ValueError):
    """Invalid command line, config file, or parameter combination."""


@dataclass
class RunSpec:
    """One sweep: device preset, observable, distance grid, output path."""

    kind: str = "gain-loss"
    gamma: float = -0.5
    nr: float = 1.5
    g: float = 1.0
    observable: str = "spont"
    zeta_min: float = 0.05
    zeta_max: float = 10.0
    steps: int = 200
    out: str = "sweep.csv"

    def __post_init__(self) -> None:
        # JSON config values arrive untyped: str(None), float(True) and
        # int(20.7) would all pass silently
        if self.out is None:
            raise ValueError("out must be a path, got None")
        self.kind = str(self.kind)
        self.observable = str(self.observable)
        self.out = str(self.out)
        if not os.path.basename(self.out):  # "" or "sub/": pathlib would drop the slash
            raise ValueError(f"out must name a file, got {self.out!r}")
        for name in ("gamma", "nr", "g", "zeta_min", "zeta_max", "steps"):
            value = getattr(self, name)
            if isinstance(value, bool):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if name != "steps":
                setattr(self, name, float(value))
        if not isinstance(self.steps, numbers.Integral):
            raise ValueError(f"steps must be an integer, got {self.steps!r}")
        self.steps = int(self.steps)


def write_curve_csv(
    path: Path,
    kind: Kind,
    params: EffectiveParams,
    nr: float,
    g: float,
    curve: ObservableCurve,
) -> None:
    # every number prints as %.17g of value + 0.0, which folds negative zero,
    # so equal values always print identically
    head = (params.gamma, params.beta, nr, g)
    lines = [
        "# kind=%s, gamma=%.17g, beta=%.17g, nr=%.17g, g=%.17g, observable=%s"
        % (kind.value, *(value + 0.0 for value in head), curve.observable),
        ",".join(["zeta", *curve.data]),
    ]
    table = np.column_stack([curve.zetas, *curve.data.values()])
    row = ",".join(["%.17g"] * table.shape[1])
    lines.append("\n".join([row] * len(table)) % tuple((table + 0.0).ravel().tolist()))
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def _write_sweep(run: RunSpec) -> ObservableCurve:
    """Validate one sweep, sample its curve and write its CSV; a usage error writes no file."""
    try:
        kind = Kind(run.kind)
    except ValueError as exc:
        raise UsageError(
            f"unknown kind {run.kind!r}; choose from {[k.value for k in Kind]}"
        ) from exc
    if run.steps < 2:
        raise UsageError(f"steps must be at least 2, got {run.steps}")
    if run.steps > MAX_STEPS:
        raise UsageError(f"steps must be at most {MAX_STEPS}, got {run.steps}")
    if not (math.isfinite(run.zeta_min) and run.zeta_min >= 0.0):
        raise UsageError(f"zeta-min must be finite and non-negative, got {run.zeta_min}")
    if not (math.isfinite(run.zeta_max) and run.zeta_max > run.zeta_min):
        raise UsageError(f"zeta-max must exceed zeta-min, got {run.zeta_max}")
    if run.zeta_max > MAX_ZETA:
        raise UsageError(f"zeta-max must be at most {MAX_ZETA:g}, got {run.zeta_max}")
    if run.zeta_min == 0.0 and run.observable in ZERO_UNDEFINED:
        raise UsageError(
            f"observable {run.observable!r} is undefined at zeta=0; use zeta-min > 0"
        )
    grid = np.linspace(run.zeta_min, run.zeta_max, run.steps)
    if np.any(np.diff(grid) <= 0.0):  # linspace repeats a point
        raise UsageError(f"--zeta-min..--zeta-max is too narrow for --steps {run.steps}")
    # the library's own checks: an unreachable device and an unknown observable
    try:
        params = effective_params(preset_realization(kind, run.gamma, nr=run.nr, g=run.g))
        curve = sample_curve(params, run.observable, grid)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    path = Path(run.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_curve_csv(path, kind, params, run.nr, run.g, curve)
    return curve


def cmd_sweep(run: RunSpec) -> int:
    curve = _write_sweep(run)
    for start, stop, reason in curve.gaps:
        first, last = curve.zetas[start], curve.zetas[stop - 1]
        print(f"note: zeta={first:g}..{last:g}, {stop - start} points: {reason}", file=sys.stderr)
    print(f"wrote {Path(run.out)} ({curve.zetas.size} rows)")
    return 0


def cmd_figure(figure_id: str, out_dir: Path, steps: int = DEFAULT_FIGURE_STEPS) -> int:
    if figure_id not in FIGURES:
        raise UsageError(f"unknown figure {figure_id!r}; choose from {sorted(FIGURES)}")
    observable, kinds = FIGURES[figure_id]
    zeta_min = RunSpec.zeta_min if observable in ZERO_UNDEFINED else 0.0
    out_dir = Path(out_dir)
    panels = [(kind, magnitude) for kind in kinds for magnitude in GAMMA_MAGNITUDES]
    for kind, magnitude in panels:
        run = RunSpec(
            kind.value, magnitude, observable=observable, zeta_min=zeta_min, steps=steps,
            out=out_dir / f"{figure_id}_{kind.value}_gamma{magnitude:g}.csv",
        )  # fmt: skip
        _write_sweep(run)
    print(f"wrote {len(panels)} panel files to {out_dir}")
    return 0


def cmd_verify() -> int:
    report = run_verification()
    print(report.describe())
    return 0 if report.ok else 1


_RUNSPEC_DEFAULTS = dataclasses.asdict(RunSpec())


def _resolve_runspec(args: argparse.Namespace) -> RunSpec:
    values = dict(_RUNSPEC_DEFAULTS)
    if args.config is not None:
        config_path = Path(args.config)
        try:
            raw = json.loads(config_path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise UsageError("config file must hold a single JSON object")
        unknown = sorted(set(raw) - set(values))
        if unknown:
            raise UsageError(f"unknown config fields: {', '.join(unknown)}")
        values.update(raw)
    for name in values:
        override = getattr(args, name, None)
        if override is not None:
            values[name] = override
    try:
        return RunSpec(**values)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid sweep parameters: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejections raise UsageError instead of exiting."""

    def error(self, message: str) -> NoReturn:
        raise UsageError(message)


@functools.cache  # parse_args fills a fresh Namespace each call, so nothing carries over
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ptdimer",
        description="Photon propagation through linearly active two-guide couplers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser(
        "sweep", help="sample one observable for one device over a distance grid"
    )
    sweep.add_argument("--config", default=None, help="JSON file with sweep fields")
    sweep.add_argument("--kind", choices=[k.value for k in Kind], default=None)
    sweep.add_argument(
        "--gamma",
        type=float,
        default=None,
        help="target asymmetry; a positive value a kind cannot reach is read "
        "as the negative value it does reach",
    )
    sweep.add_argument("--nr", type=float, default=None, help="real refractive index")
    sweep.add_argument("--g", type=float, default=None, help="coupling strength")
    sweep.add_argument(
        "--observable", choices=sorted(CURVE_COLUMNS), default=None
    )
    sweep.add_argument("--zeta-min", dest="zeta_min", type=float, default=None)
    sweep.add_argument("--zeta-max", dest="zeta_max", type=float, default=None)
    sweep.add_argument("--steps", type=int, default=None)
    sweep.add_argument("--out", default=None, help="output CSV path")

    figure = sub.add_parser("figure", help="write one bundled figure dataset")
    figure.add_argument("figure", choices=sorted(FIGURES))
    figure.add_argument("--out", type=Path, default=Path("figures"))
    figure.add_argument("--steps", type=int, default=DEFAULT_FIGURE_STEPS)

    sub.add_parser("verify", help="cross-check the closed form against the moment integrator")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "sweep":
            return cmd_sweep(_resolve_runspec(args))
        if args.command == "figure":
            return cmd_figure(args.figure, args.out, args.steps)
        return cmd_verify()
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
