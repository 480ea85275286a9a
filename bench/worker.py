"""One benchmark worker: import hybridsim, then run one CLI experiment in-process.

Usage: python3 bench/worker.py TRACE [CLI ARGS...]

With no CLI arguments the worker only imports hybridsim (a set-up sample).
It prints one JSON line: ``ready`` (time.monotonic() once hybridsim is
imported, comparable with the parent's clock on Linux), and for an
experiment the ``cli.main`` exit code, its in-process time, the worker's
peak RSS and, with TRACE=1, the spans of the outside-in tracer.
"""

import json
import resource
import sys
import time
import traceback

from hybridsim import cli

ready = time.monotonic()


def main() -> None:
    trace, argv = sys.argv[1] == "1", sys.argv[2:]
    result = {"ready": ready, "hybridsim": cli.__file__}
    if argv:
        channel, sys.stdout = sys.stdout, sys.stderr  # keep the CLI's prints off the result channel
        recorder = None
        if trace:
            import tracer

            recorder = tracer.Tracer()
            tracer.install(recorder)
        started = time.perf_counter()
        try:
            result["rc"] = cli.main(argv)
        except Exception:  # a traceback is a failed experiment, reported to the parent
            result["rc"] = None
            result["error"] = traceback.format_exc()
        result["wall_s"] = time.perf_counter() - started
        result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if recorder is not None:
            result["spans"] = recorder.spans
        sys.stdout = channel
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
