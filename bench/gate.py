"""Correctness gate: decides whether a call's written output is acceptable.

* Figure panels must match the reference in ``reference/figures.json.gz``
  cell by cell, with a relative tolerance of 1e-7 (the default tolerance of
  ``ptdimer verify``) and an absolute floor of 1e-12; gaps (NaN) must stay
  gaps.  The ``#`` metadata line is not compared, so provenance may be added
  to it without touching the reference.
* Sweep outputs must hold finite defined values, ``0 <= q00 <= 1``,
  ``q2002 >= -1`` and ``share1 + share2 = 1``.  The two bounds get the 1e-9
  slack ``ptdimer verify`` allows on the same bound of q00.

Every check returns a list of problems; an empty list accepts the output.
Regenerate the reference with ``python3 bench/gate.py --write-reference``
(only after a change that is meant to move the figures).
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference" / "figures.json.gz"

RTOL = 1e-7
ATOL = 1e-12
BOUND_SLACK = 1e-9
SHARE_SUM_TOL = 1e-12
REFERENCE_DIGITS = 10  # rounding stays 200x below RTOL

Table = tuple[list[str], list[list[float]]]


def read_csv(path: Path) -> Table:
    """Header and numeric rows of a ptdimer CSV, skipping ``#`` lines."""
    lines = [
        line for line in path.read_text(encoding="utf-8").splitlines() if not line.startswith("#")
    ]
    if not lines:
        raise ValueError(f"{path.name}: no header row")
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    for number, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(
                f"{path.name}: row {number} has {len(row)} cells, header {len(header)}"
            )
    return header, rows


def _cell_matches(value: float, expected: float) -> bool:
    if math.isnan(expected):
        return math.isnan(value)
    return math.isclose(value, expected, rel_tol=RTOL, abs_tol=ATOL)


def compare_to_reference(
    path: Path, expected: Table, stride: int = 1
) -> tuple[list[str], int, int]:
    """Problems of one panel CSV against its reference (every ``stride``-th reference row),
    plus its cell count and defined (non-NaN) cell count."""
    try:
        header, rows = read_csv(path)
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable ({exc})"], 0, 0
    columns, reference_rows = expected
    reference_rows = reference_rows[::stride]
    cells = sum(len(row) for row in rows)
    defined = sum(not math.isnan(value) for row in rows for value in row)
    if header != columns:
        return [f"{path.name}: columns {header} differ from reference {columns}"], cells, defined
    if len(rows) != len(reference_rows):
        problem = f"{path.name}: {len(rows)} rows, reference has {len(reference_rows)}"
        return [problem], cells, defined
    problems = []
    for number, (row, reference_row) in enumerate(zip(rows, reference_rows)):
        for name, value, want in zip(header, row, reference_row):
            if not _cell_matches(value, want):
                problems.append(f"{path.name}: row {number} {name}={value!r}, reference {want!r}")
    return problems, cells, defined


def check_sweep(path: Path, steps: int) -> tuple[list[str], int, int]:
    """Problems of one sweep CSV, plus its cell count and defined (non-NaN) cell count."""
    try:
        header, rows = read_csv(path)
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable ({exc})"], 0, 0
    problems = []
    if len(rows) != steps:
        problems.append(f"{path.name}: {len(rows)} rows, expected {steps}")
    cells = defined = 0
    for number, row in enumerate(rows):
        record = dict(zip(header, row))
        for name, value in record.items():
            cells += 1
            if math.isnan(value):
                continue
            defined += 1
            if not math.isfinite(value):
                problems.append(f"{path.name}: row {number} {name}={value!r} is not finite")
        q00 = record.get("q00", math.nan)
        if not -BOUND_SLACK <= q00 <= 1.0 + BOUND_SLACK and not math.isnan(q00):
            problems.append(f"{path.name}: row {number} q00={q00!r} outside [0, 1]")
        q2002 = record.get("q2002", math.nan)
        if q2002 < -1.0 - BOUND_SLACK:
            problems.append(f"{path.name}: row {number} q2002={q2002!r} below -1")
        total = record.get("share1", math.nan) + record.get("share2", math.nan)
        if abs(total - 1.0) > SHARE_SUM_TOL:
            problems.append(f"{path.name}: row {number} share1 + share2 = {total!r}")
    return problems, cells, defined


def load_reference(path: Path = REFERENCE) -> dict[str, Table]:
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        panels = json.load(handle)["panels"]
    return {name: (panel["columns"], panel["rows"]) for name, panel in panels.items()}


def write_reference(path: Path = REFERENCE) -> int:
    """Run the four figure commands and store their cells at REFERENCE_DIGITS significant digits."""
    from ptdimer import cli

    from workloads import FIGURE_IDS

    panels = {}
    (BENCH / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / ".work") as tmp:
        for figure in FIGURE_IDS:
            if cli.main(["figure", figure, "--out", tmp]) != 0:
                raise RuntimeError(f"ptdimer figure {figure} failed")
        for csv_path in sorted(Path(tmp).glob("*.csv")):
            columns, rows = read_csv(csv_path)
            rounded = [[float(f"{v:.{REFERENCE_DIGITS}g}") for v in row] for row in rows]
            panels[csv_path.stem] = {"columns": columns, "rows": rounded}
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps({"digits": REFERENCE_DIGITS, "panels": panels}, separators=(",", ":"))
    with gzip.GzipFile(path, "wb", compresslevel=9, mtime=0) as handle:
        handle.write(payload.encode("utf-8"))
    print(f"wrote {len(panels)} panels to {path}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-reference", action="store_true", required=True)
    parser.parse_args()
    sys.path.insert(0, str(BENCH.parent / "src"))
    raise SystemExit(write_reference())
