"""Entry point that needs no ``PYTHONPATH``: puts the checkout root and
``src/`` on ``sys.path``, then hands over to :mod:`cli`.

``BENCHMARK.json`` names this file; repetitions re-enter through it too,
so a child interpreter finds the same code without environment help.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))


def bootstrap():
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


if __name__ == "__main__":
    bootstrap()
    from benchmarks.gcsbench.cli import main

    sys.exit(main())
