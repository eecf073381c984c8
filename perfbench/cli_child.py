"""``python -m dircrawl`` with the layer tracer installed.

Used by the traced ``cli`` workload: runs ``dircrawl.cli.main`` on the
given arguments, leaves stdout and the exit code untouched, and writes the
import time and the per-layer totals as JSON to ``$PERFBENCH_TRACE_OUT``.
"""

from __future__ import annotations

import json
import os
import sys

from layertrace import Tracer, import_dircrawl


def main() -> int:
    dc, import_ns = import_dircrawl()
    tracer = Tracer(dc)
    tracer.install()
    try:
        code = dc.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
        json.dump({"import_ns": import_ns, **tracer.snapshot()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
