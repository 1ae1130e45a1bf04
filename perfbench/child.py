"""One fraclab CLI run in a fresh interpreter, timed from inside.

Usage: ``python3 perfbench/child.py RESULT.json SRC_DIR TRACE|PLAIN|SETUP [CLI ARGS...]``

Writes RESULT.json with the moment ``fraclab.cli`` finished importing
(``time.monotonic``, comparable with the parent's clock), the exit code, the
wall and CPU time spent in ``cli.main`` and the process's peak RSS.  In
TRACE mode it also writes the layer summary and the spans.  SETUP mode only
imports the CLI.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time


def main() -> None:
    result_path, src_dir, mode, *cli_args = sys.argv[1:]
    sys.path.insert(0, os.path.abspath(src_dir))
    import fraclab.cli

    ready = time.monotonic()
    result = {"ready": ready}
    if mode != "SETUP":
        tracer = None
        if mode == "TRACE":
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from layertrace import Tracer

            tracer = Tracer(run_id=os.path.basename(os.path.dirname(result_path)))
            tracer.install()
        log_path = os.path.join(os.path.dirname(result_path), "stdout.txt")
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            with open(log_path, "w", encoding="utf-8") as log, contextlib.redirect_stdout(log):
                rc = fraclab.cli.main(cli_args)
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        after = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            rc=rc,
            wall_s=wall,
            cpu_s=(after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
            peak_rss_mb=after.ru_maxrss / 1024.0,
        )
        if tracer is not None:
            result["layers"] = tracer.summary()
            with open(os.path.join(os.path.dirname(result_path), "spans.json"), "w") as fh:
                json.dump(tracer.span_records(), fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
