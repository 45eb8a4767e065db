"""Entry point: ``python -m benchmarks.perf`` or ``python3 benchmarks/perf/__main__.py``."""

import sys

if __package__:
    from .cli import main
else:
    # launched by path (the BENCHMARK.json command): import the package by
    # its directory name from the directory that holds it
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perf.cli import main

if __name__ == "__main__":
    sys.exit(main())
