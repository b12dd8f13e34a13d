"""A fixed probe of the machine's speed, timed between the operations.

On a shared host the speed of a CPU second drifts by 20 % or more within
seconds, as other tenants load the same cores, caches and memory.  The probe
is fixed work that never calls `permpml`: an interpreted Python loop and a
500 x 500 dense solve.  Of the kinds of work tried (also many small numpy
calls, numpy scalar arithmetic, a 120 x 120 solve and a pass over 32 MB),
these two slowed down most nearly in proportion to the `oracle`, `perm`
and `pml` operations when the host was loaded; the others slowed down more,
or less.  A run times the probe between operations; the run's times,
multiplied by `REFERENCE_S` over the probe's median time in the run, are the
times at one fixed speed of the machine.  Each probe makes one untimed pass first, so
that it does not measure the caches an operation has left behind.
"""

from __future__ import annotations

import time

import numpy as np

# the probe's median time on the machine the benchmark was tuned on (2-core
# VM, 2.1 GHz, numpy 2.4); it only sets the scale of the reported times
REFERENCE_S = 0.0050


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.uniform(0.1, 1.0, size=(500, 500)) + 500.0 * np.eye(500)
        self.rhs = rng.uniform(size=500)
        for _ in range(5):
            self.run()

    def run(self) -> float:
        """Thread CPU time of the second of two passes of the fixed work."""
        self._work()
        start = time.thread_time()
        self._work()
        return time.thread_time() - start

    def _work(self) -> None:
        acc = 0
        for i in range(4000):
            acc += i * i % 7
        np.linalg.solve(self.matrix, self.rhs)
