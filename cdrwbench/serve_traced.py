"""Run ``repro serve`` with the benchmark's layer tracer installed.

    python3 cdrwbench/serve_traced.py DUMP.json serve --graph-file G.csr ...

The traced pass of the ``wire_file`` workload starts its server this way, so
the layers that run inside the server process (δ resolution, search, walk,
session waves) are timed there.  The totals are written to DUMP.json when
the server exits.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402


def main() -> int:
    dump = Path(sys.argv[1])
    tracer = layers.Tracer()
    layers.install(tracer)
    from repro.cli import main as repro_main

    try:
        return repro_main(sys.argv[2:])
    finally:
        tracer.dump(dump)


if __name__ == "__main__":
    sys.exit(main())
