"""The job manifest: a UTF-8 CSV with one row per (method, image pair)
evaluation, under the header

    method,pair_id,fixed_seg,moving_seg,field,landmarks_fixed,landmarks_moving,mask

Relative paths resolve against the manifest's directory; empty cells mark
absent optional inputs.  The literal ``field`` value ``ZERO`` selects the
ZeroDisplacement baseline, so no sentinel files are needed; in any other
column ``ZERO`` is a path like any other.  Cells are stripped of leading
and trailing blanks.
"""
from __future__ import annotations

import csv
from dataclasses import astuple, dataclass, fields
from pathlib import Path

from .errors import IoFailure, UnpairedCases
from .volio import atomic_open

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
    base = Path(path).parent
    jobs: list[Job] = []
    seen: set[tuple[str, str]] = set()
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"could not read {path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != MANIFEST_COLUMNS:
            raise UnpairedCases(
                f"manifest header must be {','.join(MANIFEST_COLUMNS)}, got {reader.fieldnames}"
            )
        for row in reader:
            method, pair_id = row["method"].strip(), row["pair_id"].strip()
            if not method or not pair_id:
                raise UnpairedCases(f"manifest row missing method/pair_id: {row}")
            if (method, pair_id) in seen:
                raise UnpairedCases(f"duplicate job for ({method}, {pair_id})")
            seen.add((method, pair_id))

            def resolve(column: str) -> str | None:
                cell = row[column].strip()
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
