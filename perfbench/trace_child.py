"""Run one diagchan CLI invocation under the tracer and save the trace.

Usage: python3 perfbench/trace_child.py TRACE_OUT N ARGS...

TRACE_OUT receives the tracer's dump as JSON; N is the channel dimension
the spans are attributed to; ARGS are passed to ``diagchan.cli.main``. The
exit code is the CLI's.
"""

import json
import sys

import diagchan.cli

from tracer import Tracer


def main() -> int:
    out, n, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.n = n
    tracer.install()
    code = diagchan.cli.main(argv)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
