"""``python -m benchmarks.gcsbench`` (see :mod:`benchmarks.gcsbench.cli`)."""

import sys

from benchmarks.gcsbench.run import bootstrap

bootstrap()

from benchmarks.gcsbench.cli import main  # noqa: E402

sys.exit(main())
