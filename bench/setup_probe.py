"""Time what `sdwigner run` pays before stepping, in this fresh interpreter.

Usage: python3 setup_probe.py <src directory> <config.json>

Prints the seconds from before `import sdwigner` (which imports numpy) to
after the config is loaded and validated and the grid, field, solver
config, initial state and kernel coefficient tables are built.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from sdwigner.config import load_config  # noqa: E402
from sdwigner.kernels import linear_coefficients  # noqa: E402

cfg = load_config(sys.argv[2])
grid = cfg.build_grid()
field = cfg.build_field()
cfg.build_solver_config()
cfg.build_initial_state(grid)
linear_coefficients(field, grid)
print(repr(time.perf_counter() - start))
