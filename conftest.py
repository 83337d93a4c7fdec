"""Test-session set-up shared by ``tests/`` and ``bench/``.

OpenBLAS starts a second thread for the dense power-flow solves; when
another busy process shares a 2-vCPU host, that thread makes case57
solves two to three times slower. Pin one thread before anything imports
numpy; an explicit setting in the environment still wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
