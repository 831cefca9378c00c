"""Traced stand-in for ``python -m weakmeas.cli`` used by the cli_cold traced run.

Usage: ``python cli_child.py SPANS_PATH OP_ID -- <weakmeas arguments>`` with
the repository's ``src`` on PYTHONPATH.  Times ``import weakmeas.cli`` as the
``cli.import`` span, runs ``weakmeas.cli.main`` with the library wrapped by
``spans.Tracer``, writes the spans to SPANS_PATH and exits with the command's
exit code.
"""

import sys
import time

t_start = time.perf_counter()
import weakmeas.cli  # noqa: E402  (the import is what this span measures)

t_imported = time.perf_counter()

from spans import Tracer, dump  # noqa: E402


def main() -> int:
    spans_path, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_child.py SPANS_PATH OP_ID -- ARGS...")
    tracer = Tracer()
    tracer.op_id = int(op_id)
    tracer.spans.append(["cli.import", t_start, t_imported, -1, tracer.op_id, None])
    try:
        with tracer:
            code = weakmeas.cli.main(argv)
    finally:
        dump(tracer.spans, spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
