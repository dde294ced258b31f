#!/usr/bin/env python3
"""epicast benchmark: one workload, one seed, one closed-loop run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload monitor --seed 1 --seconds 30 --trace 0

The run makes the workload's input CSVs from ``--seed`` (see inputs.py),
times a few set-up-only processes, then runs the ``epicast`` command one
invocation after another, each in a fresh process (invoke.py), as a closed
loop with one caller, until the next invocation would end after
``--seconds``; at least one always runs. Each invocation's process also
times a fixed reference loop (reference.py) just before and after the
command, and command times are reported in units of it. Every invocation's ``--out`` files are checked and hashed.
With ``--trace 0`` the
run reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced invocations and reports the per-layer metrics. The last
line of standard output is the result as one JSON object; the full record,
with the machine description and the spans, goes to ``.perfbench/results/``.

epicast runs one command at a time in one thread, so nothing in it waits on
a queue or a lock: the per-layer metrics report work and busy time only.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import inputs
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
STATE_DIR = ".perfbench"
INVOKE_TIMEOUT_S = 170
# Set-up-only processes before the loop, so that even a run of one command
# (monitor) reports setup_s as a median of several samples.
SETUP_PROBES = 2
MIN_COVERAGE = 0.99
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "units_per_ref": "1/ref",
    "peak_rss_mb": "MB",
    "ok_ratio": "1",
}


@dataclass
class Invocation:
    wall: float  # the command, from parsing its arguments to its return
    setup: float  # process spawn to epicast imported and its parser built
    rss_mb: float
    units: int
    failed: int
    rel_error: float
    digest: str
    out_bytes: int
    problems: list
    layers: dict | None = None  # traced only: name -> [value, unit]
    covered: float = 0.0  # traced only: summed self times of all spans
    ref: float = math.nan  # reference loop seconds, before and after (mean)

    @property
    def wall_ref(self) -> float:
        return self.wall / self.ref


def digest_dir(path: Path) -> tuple[str, int]:
    """SHA-256 over the relative names and bytes of every file, and their
    total size."""
    sha = hashlib.sha256()
    size = 0
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        data = file.read_bytes()
        sha.update(file.relative_to(path).as_posix().encode() + b"\0")
        sha.update(len(data).to_bytes(8, "little") + data)
        size += len(data)
    return sha.hexdigest(), size


def source_digest(root: Path) -> str:
    """Identifies the program under test, so output digests are compared
    only between runs of the same code."""
    sha = hashlib.sha256()
    package = root / "src" / "epicast"
    for file in sorted(package.rglob("*")):
        if file.is_file() and "__pycache__" not in file.parts:
            sha.update(file.relative_to(package).as_posix().encode() + b"\0")
            sha.update(file.read_bytes())
    return sha.hexdigest()


def spawn(root: Path, args: list):
    """invoke.py with ``args`` in a fresh process that imports epicast from
    the checkout's ``src/``. Returns the spawn time (``time.time``) and the
    finished process."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), EPICAST_LOG="warning")
    spawned = time.time()
    done = subprocess.run([sys.executable, str(HERE / "invoke.py"), *args],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=INVOKE_TIMEOUT_S)
    return spawned, done


def setup_probe(root: Path) -> float:
    """Seconds from spawning a process that runs no command to epicast
    imported and its parser built."""
    spawned, done = spawn(root, ["-", "--"])
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.splitlines()[-1])["ready"] - spawned


def invoke(root: Path, workload, data, out_dir: Path,
           spans: Path | None = None) -> Invocation:
    """One ``epicast`` command in a fresh process, then its output checks.
    With ``spans``, the command runs traced and its spans go there."""
    argv = workload.argv(data) + ["--out", str(out_dir)]
    units = workload.units(data)
    spawned, done = spawn(root, [str(spans or "-"), "--", *argv])
    try:
        report = json.loads(done.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        report = {"code": None, "wall": time.time() - spawned, "ready": spawned,
                  "rss_kb": 0, "error": done.stderr[-4000:]}
    problems = [report["error"]] if "error" in report else []
    expected = str((root / "src" / "epicast").resolve())
    if report.get("package", expected) != expected:
        problems.append(f"ran epicast from {report['package']}, not {expected}")
    failed, rel_error = units, math.inf
    if report["code"] != 0:
        problems.append(f"epicast {argv[0]} exited with {report['code']!r}")
    else:
        try:
            failed, rel_error, found = workload.check(out_dir, data)
            problems += found
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    digest, out_bytes = digest_dir(out_dir) if out_dir.exists() else ("", 0)
    shutil.rmtree(out_dir, ignore_errors=True)
    return Invocation(
        wall=report["wall"], setup=report["ready"] - spawned,
        rss_mb=report["rss_kb"] / 1024.0, units=units, failed=failed,
        rel_error=rel_error, digest=digest, out_bytes=out_bytes,
        problems=problems, layers=report.get("layers"),
        covered=report.get("covered", 0.0), ref=report.get("ref", math.nan))


def closed_loop(root: Path, workload, data, work: Path, seconds: float,
                spans: Path | None):
    """Invocations back to back until the next one would end after
    ``seconds``. With ``spans``, each step is an untraced invocation
    followed by a traced one. Returns (untraced, traced) invocation lists."""
    plain, traced = [], []
    steps = []
    start = time.perf_counter()
    while True:
        step_start = time.perf_counter()
        plain.append(invoke(root, workload, data, work / f"out{len(steps)}a"))
        if spans:
            traced.append(invoke(root, workload, data,
                                 work / f"out{len(steps)}b", spans))
        steps.append(time.perf_counter() - step_start)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(steps) > seconds:
            return plain, traced


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def machine() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def check_digests(root: Path, key: str, runs: list) -> list:
    """Every invocation of one seed on one program must write the same
    bytes, within this run and against earlier runs in this checkout."""
    digests = {inv.digest for inv in runs}
    problems = []
    if len(digests) != 1:
        problems.append(f"output digests differ between invocations: {digests}")
    record = root / STATE_DIR / "digests.json"
    known = json.loads(record.read_text()) if record.exists() else {}
    digest = runs[0].digest
    if known.setdefault(key, digest) != digest:
        problems.append(f"output digest {digest} differs from an earlier run "
                        f"of this seed ({known[key]})")
    record.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return problems


def end_to_end(runs: list, setups: list) -> dict:
    attempted = sum(inv.units for inv in runs)
    failed = sum(inv.failed for inv in runs)
    return {
        "setup_s": statistics.median(setups + [inv.setup for inv in runs]),
        "wall_ref": statistics.median(inv.wall_ref for inv in runs),
        "units_per_ref": (attempted - failed) / sum(inv.wall_ref for inv in runs),
        "peak_rss_mb": max(inv.rss_mb for inv in runs),
        "ok_ratio": (attempted - failed) / attempted,
    }


def per_layer(plain: list, traced: list) -> tuple[dict, list]:
    """Layer metrics of the traced invocations: counts must repeat exactly,
    times are medians over the traced invocations."""
    problems = []
    metrics = {}
    for name, (_, unit) in traced[0].layers.items():
        values = [inv.layers[name][0] for inv in traced]
        if unit == "count" and len(set(values)) != 1:
            problems.append(f"{name} differs between traced invocations: {values}")
        metrics[name] = (statistics.median(values), unit)
    coverage = [inv.covered / inv.wall for inv in traced]
    if min(coverage) < MIN_COVERAGE:
        problems.append(f"layer self times cover only {min(coverage):.4f} "
                        "of the traced wall time")
    metrics["trace.coverage_ratio"] = (statistics.median(coverage), "1")
    metrics["trace.overhead_ratio"] = (
        statistics.median(inv.wall_ref for inv in traced)
        / statistics.median(inv.wall_ref for inv in plain), "1")
    metrics["cli.out_bytes"] = (traced[0].out_bytes, "B")
    return metrics, problems


def report(workload, seed, trace, metrics: dict, record: dict) -> None:
    """Human-readable summary; the JSON result line follows it."""
    print(f"perfbench {workload.name} seed={seed} trace={trace}: "
          f"{record['invocations']} invocation(s) of {record['units_each']} "
          f"unit(s), one unit = one {workload.unit}; closed loop, one caller")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:>16.6g} {unit}")
    print(f"  raw wall time: median {statistics.median(record['walls_s']):.3f} s"
          f"; reference loop: median {statistics.median(record['reference_s']):.3f} s")
    m = record["machine"]
    print(f"  machine: python {m['python']}, numpy {m['numpy']}, scipy "
          f"{m['scipy']}, {m['blas']} {m['blas_version']} "
          f"({m['blas_threads']} threads), nproc {m['nproc']}, load "
          f"{record['load_start']:.2f} -> {record['load_end']:.2f}")
    print("  no waiting: commands run one at a time in one thread")
    for problem in record["problems"]:
        print(f"  FAILED CHECK: {problem.strip()}")


def run(root: Path, workload, seed: int, seconds: float, trace: bool) -> dict:
    load_start = os.getloadavg()[0]
    state = root / STATE_DIR
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    spans = results / f"{stem}-spans.jsonl" if trace else None
    if spans:
        spans.unlink(missing_ok=True)
    work = Path(tempfile.mkdtemp(prefix=stem + "-", dir=state))
    try:
        data = inputs.make_inputs(root, seed, work / "inputs")
        setups = [setup_probe(root) for _ in range(SETUP_PROBES)]
        plain, traced = closed_loop(root, workload, data, work, seconds, spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = plain + traced
    source = source_digest(root)
    problems = [p for inv in runs for p in inv.problems]
    problems += check_digests(root, f"{workload.name}:{seed}:{source}", runs)
    if trace and all(inv.layers for inv in traced):
        metrics, found = per_layer(plain, traced)
        problems += found
        rel = next((i.rel_error for i in runs if math.isfinite(i.rel_error)), 0.0)
        metrics["check.rel_error"] = (rel, "1")
    elif trace:
        metrics = {}
        problems.append("a traced invocation reported no layer metrics")
    else:
        metrics = {k: (v, END_TO_END_UNITS[k])
                   for k, v in end_to_end(runs, setups).items()}

    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "invocations": len(runs),
        "units_each": workload.units(data),
        "walls_s": [inv.wall for inv in plain],
        "traced_walls_s": [inv.wall for inv in traced],
        "reference_s": [inv.ref for inv in runs],
        "setup_s": setups + [inv.setup for inv in runs],
        "rel_error": [i.rel_error if math.isfinite(i.rel_error) else None
                      for i in runs],
        "output_sha256": runs[0].digest,
        "source_sha256": source,
        "problems": problems,
        "machine": machine(),
        "load_start": load_start,
        "load_end": os.getloadavg()[0],
        "spans": spans.name if spans else None,
    }
    result = {
        "correct": not problems,
        "attempted": sum(inv.units for inv in runs),
        "failed": sum(inv.failed for inv in runs) or (1 if problems else 0),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    (results / f"{stem}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    report(workload, seed, int(trace), metrics, record)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    for needed in ("src/epicast/cli.py", "scripts/make_fixtures.py"):
        if not (root / needed).is_file():
            print(f"perfbench: {needed} not found; run from the root of an "
                  "epicast checkout", file=sys.stderr)
            return 2
    result = run(root, WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
