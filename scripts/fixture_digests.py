#!/usr/bin/env python3
"""Print the SHA-256 of every output of the five CLI commands on the
committed fixtures, so that two checkouts can be compared with one ``diff``.

Each command runs in a fresh process on this checkout's ``src`` with
``--seed 42`` and its own output directory. The digests of its ``--out``
files and of its stdout are printed one per line, as
``<sha256>  <command>/<file>``. A command that exits nonzero stops the
script with its stderr.

    python3 scripts/fixture_digests.py > mine.txt
    (cd ../other && python3 scripts/fixture_digests.py) > theirs.txt
    diff mine.txt theirs.txt
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SERIES = "india_confirmed.csv"
PANEL = "india_panel.csv"

# command -> (fixture, extra flags)
COMMANDS = {
    "forecast": (SERIES, ["--horizon", "7", "--svg"]),
    "adjust": (PANEL, []),
    "shelflife": (SERIES, []),
    "r0": (SERIES, ["--population", "1.38e9"]),
    "monitor": (SERIES, ["--svg"]),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(command: str, out: Path) -> list[tuple[str, str]]:
    fixture, flags = COMMANDS[command]
    argv = [sys.executable, "-m", "epicast.cli", command,
            "--input", str(SRC / "epicast" / "data" / fixture),
            "--seed", "42", "--out", str(out), *flags]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(argv, env=env, capture_output=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr.decode(errors="replace"))
        raise SystemExit(f"{command} exited {done.returncode}")
    rows = [(sha256(done.stdout), f"{command}/stdout")]
    for path in sorted(out.iterdir()):
        rows.append((sha256(path.read_bytes()), f"{command}/{path.name}"))
    return rows


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            for digest, name in digests(command, Path(tmp) / command):
                print(f"{digest}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
