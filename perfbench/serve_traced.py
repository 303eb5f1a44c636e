"""``python -m repro serve`` with the benchmark's layer spans installed.

Traced service rounds start the daemon through this script, so the
process topology matches untraced rounds: one daemon process running
``repro.__main__.main``. The spans and counters are written to the file
named by the first argument when the daemon exits.

    python3 perfbench/serve_traced.py OUT.json serve --jobs 1 --state-dir D
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    from repro.__main__ import main as repro_main

    try:
        return repro_main(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
