"""The job manifest: a UTF-8 CSV with one row per (method, image pair)
evaluation, under the header

    method,pair_id,fixed_seg,moving_seg,field,landmarks_fixed,landmarks_moving,mask

Relative paths resolve against the manifest's directory; empty cells mark
absent optional inputs.  The literal ``field`` value ``ZERO`` selects the
ZeroDisplacement baseline, so no sentinel files are needed; in any other
column ``ZERO`` is a path like any other.  Cells are stripped of leading
and trailing blanks, every row has exactly one cell per column, and rows
whose every cell is blank are skipped.
"""
from __future__ import annotations

import csv
from dataclasses import astuple, dataclass, fields
from pathlib import Path

from .errors import UnpairedCases
from .volio import atomic_open, read_csv_rows

ZERO_FIELD = "ZERO"


@dataclass(frozen=True)
class Job:
    """One evaluation: a method's field applied to one image pair."""

    method: str
    pair_id: str
    fixed_seg: str
    moving_seg: str
    field: str
    landmarks_fixed: str | None = None
    landmarks_moving: str | None = None
    mask: str | None = None


MANIFEST_COLUMNS = tuple(f.name for f in fields(Job))


def read_manifest(path) -> list[Job]:
    """The jobs of a manifest file.  A row with more or fewer cells than
    the header raises UnpairedCases naming its line; a file that cannot be
    read or is not UTF-8 raises IoFailure."""
    base = Path(path).parent
    rows = read_csv_rows(path)
    header = rows[0][1] if rows else None
    if header is None or tuple(header) != MANIFEST_COLUMNS:
        raise UnpairedCases(f"manifest header must be {','.join(MANIFEST_COLUMNS)}, got {header}")
    jobs: list[Job] = []
    seen: set[tuple[str, str]] = set()
    for line, row in rows[1:]:
        if len(row) != len(MANIFEST_COLUMNS):
            raise UnpairedCases(
                f"{path}: line {line} has {len(row)} cells, the header {len(MANIFEST_COLUMNS)}"
            )
        cells = dict(zip(MANIFEST_COLUMNS, (c.strip() for c in row)))
        method, pair_id = cells["method"], cells["pair_id"]
        if not method or not pair_id:
            raise UnpairedCases(f"{path}: line {line} lacks a method or pair_id")
        if (method, pair_id) in seen:
            raise UnpairedCases(f"duplicate job for ({method}, {pair_id})")
        seen.add((method, pair_id))

        def resolve(column: str) -> str | None:
            cell = cells[column]
            if not cell:
                return None
            if column == "field" and cell == ZERO_FIELD:
                return ZERO_FIELD
            return str((base / cell) if not Path(cell).is_absolute() else Path(cell))

        jobs.append(Job(method, pair_id, *(resolve(c) for c in MANIFEST_COLUMNS[2:])))
    return jobs


def write_manifest(path, jobs) -> None:
    """Write ``jobs`` as a manifest that ``read_manifest`` reads back.

    Paths are written as given, so relative ones stay relative to the
    manifest's directory; ``None`` becomes an empty cell.  Lines end in
    ``\\n``, and a cell is quoted only where CSV needs it.  A cell with
    leading or trailing blanks, which the reader would strip, raises
    UnpairedCases before anything is written.
    """
    for job in jobs:
        for cell in astuple(job):
            if cell is not None and cell != cell.strip():
                raise UnpairedCases(f"manifest cell {cell!r} has leading or trailing blanks")
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MANIFEST_COLUMNS)
        for job in jobs:
            writer.writerow(["" if cell is None else cell for cell in astuple(job)])
