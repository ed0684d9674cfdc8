"""``python -m augdecomp``: the benchmark CLI, ``augdecomp.bench.main``."""
import sys

from .bench import main

sys.exit(main())
