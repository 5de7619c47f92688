"""Memory probes shared by the working-set tests."""

import tracemalloc

from sdwigner.solvers import common as solver_common


def allocation_peak(call):
    """Bytes `call()` held at its peak under tracemalloc, beyond what was held before."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def bound_workspace(rhs):
    """The Workspace a route's make_rhs bound into its closure."""
    return next(cell.cell_contents for cell in rhs.__closure__
                if isinstance(cell.cell_contents, solver_common.Workspace))
