"""Run one epicast command in this fresh process and report it as one JSON
line on standard output.

    python3 perfbench/invoke.py SPANS -- ARGS...

``SPANS`` is ``-`` for an untraced run, else the file the spans are appended
to. Without ``ARGS`` the process only sets up, as a set-up probe. The
report holds the command's exit code and wall time, the moment the process
had imported ``epicast`` and built its parser (``ready``, on the
``time.time`` clock, so the caller can subtract its spawn time), the mean
time of the reference loop (reference.py) run in this process just before
and after the command, the peak RSS and, when traced, the per-layer
metrics.

Each command gets its own process, as it does for a user, so a run's
medians are taken over processes and do not hang on one memory layout.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    import epicast.cli as cli

    cli.build_parser()
    ready = time.time()
    spans, argv = sys.argv[1], sys.argv[3:]
    report = {"ready": ready,
              "package": str(Path(cli.__file__).resolve().parent)}
    if not argv:  # a set-up probe: nothing to run once the parser is built
        print(json.dumps(report))
        return 0
    import reference

    before = reference.duration()
    tracer = None
    if spans != "-":
        import tracing

        tracer = tracing.Tracer()
    with tracer if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer:
                    with tracer.span(tracing.ROOT_SPAN):
                        code = cli.main(argv)
                else:
                    code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            report["error"] = traceback.format_exc()
        report["wall"] = time.perf_counter() - start
    report["ref"] = (before + reference.duration()) / 2
    report["code"] = code
    report["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        report["layers"] = tracing.layer_metrics(tracer)
        report["covered"] = sum(tracing.self_times(tracer.spans))
        tracer.write_jsonl(spans, tracer.spans[0][1])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
