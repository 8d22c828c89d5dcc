"""Run ``vitalchirp.cli.main(argv)`` in this fresh interpreter with tracing on.

    python bench/traced_cli.py SPANS_JSON ITERATION -- CLI_ARGS...

Writes the spans to SPANS_JSON and exits with the CLI's exit code.  The
package import is recorded as a ``cli.import`` span so that the spans
account for the process's wall time.
"""

import sys
import time

from tracer import Tracer


def run(spans_path: str, iteration: int, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.iteration = iteration
    start = time.perf_counter()
    import vitalchirp.cli

    tracer.add_span("cli.import", start, time.perf_counter())
    tracer.install()
    try:
        code = vitalchirp.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        sys.exit("usage: traced_cli.py SPANS_JSON ITERATION -- CLI_ARGS...")
    sys.exit(run(sys.argv[1], int(sys.argv[2]), sys.argv[4:]))
