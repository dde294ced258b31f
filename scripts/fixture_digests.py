#!/usr/bin/env python3
"""Print the SHA-256 of every output of the five CLI commands on the
committed fixtures, ``adjust`` under each weight rule and ``forecast`` with
``arima`` too, so that two checkouts can be compared with one ``diff``.

Each command runs in a fresh process on this checkout's ``src`` with
``--seed 42`` and its own output directory. The digests of its ``--out``
files and of its stdout are printed one per line, as
``<sha256>  <label>/<file>``. A command that exits nonzero, or writes
anything to stderr (a numpy warning, say), stops the script with its
stderr.

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

# (label, command, fixture, extra flags); the label names the output lines.
# adjust runs once per weight rule, so that a diff covers every rule, and
# forecast once more with arima: its order sweep and MA-kernel forecast
# outside monitor
RUNS = [
    ("forecast", "forecast", SERIES, ["--horizon", "7", "--svg"]),
    ("adjust", "adjust", PANEL, []),
    ("shelflife", "shelflife", SERIES, []),
    ("r0", "r0", SERIES, ["--population", "1.38e9"]),
    ("monitor", "monitor", SERIES, ["--svg"]),
    ("adjust[window:3]", "adjust", PANEL, ["--weight-mode", "window:3"]),
    ("adjust[ewma:0.9]", "adjust", PANEL, ["--weight-mode", "ewma:0.9"]),
    ("forecast[arima]", "forecast", SERIES, ["--model", "arima"]),
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(label: str, command: str, fixture: str, flags: list[str],
            out: Path) -> list[tuple[str, str]]:
    argv = [sys.executable, "-m", "epicast.cli", command,
            "--input", str(SRC / "epicast" / "data" / fixture),
            "--seed", "42", "--out", str(out), *flags]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(argv, env=env, capture_output=True)
    if done.returncode != 0 or done.stderr:
        sys.stderr.write(done.stderr.decode(errors="replace"))
        raise SystemExit(f"{label} exited {done.returncode} and wrote "
                         f"{len(done.stderr)} bytes to stderr")
    rows = [(sha256(done.stdout), f"{label}/stdout")]
    for path in sorted(out.iterdir()):
        rows.append((sha256(path.read_bytes()), f"{label}/{path.name}"))
    return rows


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for i, run in enumerate(RUNS):
            for digest, name in digests(*run, Path(tmp) / str(i)):
                print(f"{digest}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
