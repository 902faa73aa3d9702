"""The job manifest: a UTF-8 CSV with one row per (method, image pair)
evaluation, under the header

    method,pair_id,fixed_seg,moving_seg,field,landmarks_fixed,landmarks_moving,mask

Relative paths resolve against the manifest's directory; empty cells mark
absent optional inputs.  The literal ``field`` value ``ZERO`` selects the
ZeroDisplacement baseline, so no sentinel files are needed; in any other
column ``ZERO`` is a path like any other.  Cells are stripped of leading
and trailing blanks, every row has exactly one cell per column, and rows
whose every cell is blank are skipped.  A method or pair id may not be
empty or hold a path separator, and no two jobs may share a report name.
"""
from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from pathlib import Path

from .errors import UnpairedCases
from .volio import read_csv_rows, write_csv

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

    @property
    def report_name(self) -> str:
        """The file name of this job's report in an ``eval`` output directory."""
        return f"{self.method}__{self.pair_id}.json"


MANIFEST_COLUMNS = tuple(f.name for f in fields(Job))


def _check_ids(job: Job, where: str) -> None:
    """Method and pair id name the report: a separator would move it elsewhere."""
    for value in (job.method, job.pair_id):
        if not value or "/" in value or "\\" in value:
            raise UnpairedCases(f"{where}: the id {value!r} is empty or holds a path separator")


def read_manifest(path) -> list[Job]:
    """The jobs of a manifest file.  A row with more or fewer cells than
    the header, an empty id or one with a path separator, and a second job
    with the same report name raise UnpairedCases naming the line; a file that cannot be
    read or is not UTF-8 raises IoFailure."""
    base = Path(path).parent
    rows = read_csv_rows(path)
    header = rows[0][1] if rows else None
    if header is None or tuple(header) != MANIFEST_COLUMNS:
        raise UnpairedCases(f"manifest header must be {','.join(MANIFEST_COLUMNS)}, got {header}")
    jobs: list[Job] = []
    seen: dict[str, int] = {}
    for line, row in rows[1:]:
        if len(row) != len(MANIFEST_COLUMNS):
            raise UnpairedCases(
                f"{path}: line {line} has {len(row)} cells, the header {len(MANIFEST_COLUMNS)}"
            )
        cells = dict(zip(MANIFEST_COLUMNS, (c.strip() for c in row)))

        def resolve(column: str) -> str | None:
            cell = cells[column]
            if not cell:
                return None
            if column == "field" and cell == ZERO_FIELD:
                return ZERO_FIELD
            return str((base / cell) if not Path(cell).is_absolute() else Path(cell))

        job = Job(cells["method"], cells["pair_id"], *(resolve(c) for c in MANIFEST_COLUMNS[2:]))
        _check_ids(job, f"{path}: line {line}")
        if job.report_name in seen:
            raise UnpairedCases(
                f"{path}: line {line} has the report name {job.report_name} of line "
                f"{seen[job.report_name]}"
            )
        seen[job.report_name] = line
        jobs.append(job)
    return jobs


def write_manifest(path, jobs) -> None:
    """Write ``jobs`` as a manifest that ``read_manifest`` reads back.

    Paths are written as given, so relative ones stay relative to the
    manifest's directory, by ``volio.write_csv`` (``None`` as an empty
    cell).  A cell with leading or trailing blanks, which the reader would
    strip, or an empty method or pair id or one with a path separator
    raises UnpairedCases before anything is written.
    """
    jobs = list(jobs)  # an iterator too: checked whole, then written
    for job in jobs:
        _check_ids(job, "manifest job")
        for cell in astuple(job):
            if cell is not None and cell != cell.strip():
                raise UnpairedCases(f"manifest cell {cell!r} has leading or trailing blanks")
    write_csv(path, MANIFEST_COLUMNS, map(astuple, jobs))
