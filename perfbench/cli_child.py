"""Traced CLI child: ``python -X importtime cli_child.py TRACE_PATH <cli args>``.

Runs ``minkgeom.cli.main`` with the layer hooks installed, under one
``cli.main`` span, then writes the spans to TRACE_PATH and exits with the
CLI's own code.  Used only by traced runs of the cli-cold workload; untraced
runs start ``python -m minkgeom.cli`` directly.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    from minkgeom import cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    idx = tracer.begin(tracer.name_id("cli.main"))
    try:
        rc = cli.main(argv)
    finally:
        tracer.end(idx)
        tracer.dump(trace_path)
    return rc


if __name__ == "__main__":
    sys.exit(main())
