"""Run the ``regeval`` command in a child process of the benchmark.

Usage: python3 perfbench/child.py [--losses FILE] REGEVAL-ARGS...

Equivalent to ``regeval REGEVAL-ARGS...``.  With ``--losses FILE`` the
per-level loss trace that ``refreg.register`` returns is saved as JSON, so
the benchmark can check that every level's losses are non-increasing (the
command itself prints only the final loss).  That wrapper costs one extra
Python call per registration.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from regeval import cli, refreg  # noqa: E402


def main(argv: list[str]) -> int:
    if argv[:1] == ["--losses"]:
        losses_path, argv = argv[1], argv[2:]
        register = refreg.register

        def register_and_save(*args, **kwargs):
            field, trace = register(*args, **kwargs)
            Path(losses_path).write_text(json.dumps(trace) + "\n")
            return field, trace

        refreg.register = register_and_save
        try:
            return cli.main(argv)
        finally:
            refreg.register = register
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
