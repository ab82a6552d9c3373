"""Run one harqscale CLI command with spans recorded (traced cli-oneshot run).

Usage: python bench/tracechild.py SPANS_PATH [harqscale arguments ...]

Behaves as ``python -m harqscale.cli`` (same stdout, stderr and exit code),
and writes the command's spans as JSON to SPANS_PATH when it ends, also when
the command raises.  The import of ``harqscale.cli`` is the first span.
"""

import json
import sys

from spans import Tracer, install


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    try:
        with tracer.span("cli.import"):
            import harqscale.cli as cli
        install(tracer)
        return tracer.wrap(cli.main, "cli.main")(argv)
    finally:
        with open(path, "w") as fh:
            json.dump([list(span[1:]) for span in tracer.end_op()], fh)


if __name__ == "__main__":
    sys.exit(main())
