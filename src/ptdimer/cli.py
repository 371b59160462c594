"""Command-line front end: parameter sweeps, bundled figure datasets, checks.

Three subcommands:

    sweep    sample one observable for one device over a distance grid
    figure   write the bundled multi-panel datasets (fig2 .. fig5)
    verify   cross-check the closed form against the moment integrator

Sweeps write a single CSV with one row per propagation distance: a leading
'#' metadata line (kind, gamma, beta, nr, g, observable), a header row, then
17-significant-digit values separated by commas.  Identical inputs produce
byte-identical files.  A sweep reaches at most MAX_ZETA = 1e8 coupling lengths,
where the phase Omega zeta still carries about 8 digits.  Exit codes: 0 success,
1 runtime failure (I/O, a failed verify, moments breaking a bound), 2 usage
error (a bad option or config value, --zeta-max past MAX_ZETA); a usage error
prints one 'usage error:' line and writes no file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path

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

# Bundled figure presets: observable, device rows, and the distance window.
# The spontaneous and vacuum-correlation presets start just above zero where
# those renormalized quantities first become defined; the single-photon and
# two-photon presets start at zero to show the launch values.
FIGURES: dict[str, tuple[str, tuple[Kind, ...], float, float]] = {
    "fig2": (
        "spont",
        (Kind.GAIN_LOSS, Kind.GAIN_GAIN, Kind.GAIN_PASSIVE),
        0.05,
        10.0,
    ),
    "fig3": (
        "q00",
        (Kind.GAIN_LOSS, Kind.GAIN_GAIN, Kind.GAIN_PASSIVE),
        0.05,
        10.0,
    ),
    "fig4": (
        "single",
        (Kind.GAIN_LOSS, Kind.GAIN_GAIN, Kind.GAIN_PASSIVE, Kind.PASSIVE_LOSS),
        0.0,
        10.0,
    ),
    "fig5": (
        "q2002",
        (Kind.GAIN_LOSS, Kind.GAIN_GAIN, Kind.GAIN_PASSIVE, Kind.PASSIVE_LOSS),
        0.0,
        10.0,
    ),
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
        for name in ("gamma", "nr", "g", "zeta_min", "zeta_max", "steps"):
            value = getattr(self, name)
            if isinstance(value, bool):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if name != "steps":
                setattr(self, name, float(value))
        if not isinstance(self.steps, numbers.Integral):
            raise ValueError(f"steps must be an integer, got {self.steps!r}")
        self.steps = int(self.steps)


def _fmt(value: float) -> str:
    # The + 0.0 folds negative zero so equal values always print identically.
    return format(float(value) + 0.0, ".17g")


def write_curve_csv(
    path: Path,
    kind: Kind,
    params: EffectiveParams,
    nr: float,
    g: float,
    curve: ObservableCurve,
) -> None:
    lines = [
        f"# kind={kind.value}, gamma={_fmt(params.gamma)}, beta={_fmt(params.beta)}, "
        f"nr={_fmt(nr)}, g={_fmt(g)}, observable={curve.observable}"
    ]
    lines.append(",".join(("zeta",) + curve.columns))
    table = np.column_stack([curve.zetas] + [curve.column(name) for name in curve.columns])
    row = ",".join(["%.17g"] * table.shape[1])  # each cell as _fmt prints it
    lines.extend(row % tuple(cells) for cells in (table + 0.0).tolist())
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def _check_steps(steps: int) -> None:
    if steps < 2:
        raise UsageError(f"steps must be at least 2, got {steps}")
    if steps > MAX_STEPS:
        raise UsageError(f"steps must be at most {MAX_STEPS}, got {steps}")


def _sweep_curve(run: RunSpec) -> tuple[Kind, EffectiveParams, ObservableCurve]:
    try:
        kind = Kind(run.kind)
    except ValueError as exc:
        raise UsageError(
            f"unknown kind {run.kind!r}; choose from {[k.value for k in Kind]}"
        ) from exc
    if run.observable not in CURVE_COLUMNS:
        raise UsageError(
            f"unknown observable {run.observable!r}; choose from {sorted(CURVE_COLUMNS)}"
        )
    _check_steps(run.steps)
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
    try:
        realization = preset_realization(kind, run.gamma, nr=run.nr, g=run.g)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    params = effective_params(realization)
    grid = np.linspace(run.zeta_min, run.zeta_max, run.steps)
    curve = sample_curve(params, kind, run.observable, grid)
    return kind, params, curve


def cmd_sweep(run: RunSpec) -> int:
    kind, params, curve = _sweep_curve(run)
    path = Path(run.out)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    write_curve_csv(path, kind, params, run.nr, run.g, curve)
    for index, note in curve.gaps:
        print(f"note: zeta={curve.zetas[index]:g}: {note}", file=sys.stderr)
    print(f"wrote {path} ({curve.zetas.size} rows)")
    return 0


def cmd_figure(figure_id: str, out_dir: Path, steps: int = DEFAULT_FIGURE_STEPS) -> int:
    if figure_id not in FIGURES:
        raise UsageError(f"unknown figure {figure_id!r}; choose from {sorted(FIGURES)}")
    _check_steps(steps)
    observable, kinds, zeta_min, zeta_max = FIGURES[figure_id]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = np.linspace(zeta_min, zeta_max, steps)
    written = []
    for kind in kinds:
        for magnitude in GAMMA_MAGNITUDES:
            realization = preset_realization(kind, magnitude)
            params = effective_params(realization)
            curve = sample_curve(params, kind, observable, grid)
            path = out_dir / f"{figure_id}_{kind.value}_gamma{magnitude:g}.csv"
            write_curve_csv(path, kind, params, realization.nr, realization.g, curve)
            written.append(path)
    print(f"wrote {len(written)} panel files to {out_dir}")
    return 0


def cmd_verify(tolerance: float) -> int:
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise UsageError(f"tolerance must be positive, got {tolerance}")
    report = run_verification(tolerance)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        "as a magnitude with the conventional sign",
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

    verify = sub.add_parser(
        "verify", help="cross-check the closed form against the moment integrator"
    )
    verify.add_argument("--tolerance", type=float, default=1e-7)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            return cmd_sweep(_resolve_runspec(args))
        if args.command == "figure":
            return cmd_figure(args.figure, args.out, args.steps)
        return cmd_verify(args.tolerance)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, FloatingPointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
