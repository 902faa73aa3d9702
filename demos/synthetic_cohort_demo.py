"""End-to-end pipeline on a generated cohort: synth, eval, rank, correlate.

Everything here also works from the shell:

    regeval --seed 3 --out cohort synth --cases 6 --dims 24 24 24
    regeval --jobs 2 --out reports eval cohort/manifest.csv
    regeval --out board rank reports
    regeval --out corr.csv correlate reports dsc tre

The cohort manifest pits the true deformation fields against the
ZeroDisplacement baseline, so the board must rank "truth" first.
"""
import csv
import json
import tempfile
from pathlib import Path

from regeval import cli

root = Path(tempfile.mkdtemp(prefix="regeval_demo_"))
cohort = root / "cohort"
reports = root / "reports"
board = root / "board"

print(f"working under {root}")
cli.main(["--seed", "3", "--out", str(cohort), "synth", "--cases", "6", "--dims", "24", "24", "24"])

code = cli.main(["--jobs", "2", "--out", str(reports), "eval", str(cohort / "manifest.csv")])
print(f"eval exit code {code}; {len(list(reports.glob('*__*.json')))} reports")

cli.main(["--out", str(board), "rank", str(reports)])
with open(board / "leaderboard.csv", newline="") as fh:
    for row in csv.DictReader(fh):
        print(
            f"  {row['method']:>6}: dsc {float(row['dsc_mean']):.3f} "
            f"hd95 {float(row['hd95_mean']):.3f} tre {float(row['tre_mean']):.3f} "
            f"acc {float(row['acc_score']):.3f} rank {row['final_rank']}"
        )

corr = root / "corr.csv"
cli.main(["--out", str(corr), "correlate", str(reports), "dsc", "tre"])
with open(corr, newline="") as fh:
    for row in csv.DictReader(fh):
        print(f"  correlate {row['method']}: r={row['r'] or 'n/a'} note={row['note']}")

manifest = json.loads((cohort / "manifest.json").read_text())
print(f"cohort manifest records {len(manifest['cases'])} cases with analytic facts, e.g.")
print(f"  {manifest['cases'][0]['case_id']}: {manifest['cases'][0]['facts']}")
