"""The commands that README.md and the demos show parse, and the demos run."""
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from regeval import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_documented_commands_parse():
    # a shown command is a line of its own that starts with `regeval `
    shown = [
        (path.name, line.strip())
        for path in [ROOT / "README.md", *DEMOS]
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip().startswith("regeval ")
    ]
    assert {name for name, _ in shown} == {"README.md", "synthetic_cohort_demo.py"}
    failed = []
    for name, line in shown:
        try:
            args = cli.build_parser().parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            failed.append((name, line, "does not parse"))
            continue
        if args.out_kind and not args.out:
            failed.append((name, line, "lacks --out"))
    assert failed == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
