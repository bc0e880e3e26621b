"""Machine-speed reference used to normalise wall times.

On a shared machine the speed of the interpreter drifts by 25-100% over
minutes, and a raw wall time then measures the neighbours as much as the
flow.  Every timed unit is therefore bracketed by a fixed pure-Python
reference workload (graph walk, dict accumulation, sort; nothing from
``src/``, so no change to the program can move it), and the unit's time
is scaled by ``NOMINAL_S / reference time``: seconds at the speed where
the reference takes ``NOMINAL_S``.  Measured on a 2-core shared VM, one
flow's raw times had a quartile spread of 0.36 of their median while the
normalised times had 0.08 (the two series correlated at 0.94).
"""

import gc
import random
import time
from typing import List

#: the reference's run time at the speed normalised times are quoted at,
#: close to its time on a quiet 2-core 2 GHz VM
NOMINAL_S = 0.05


def _reference_work() -> int:
    rng = random.Random(12345)
    n = 20000
    adj = [[rng.randrange(n) for _ in range(3)] for _ in range(n)]
    seen = bytearray(n)
    order: List[int] = []
    stack = [0]
    while stack:
        v = stack.pop()
        if seen[v]:
            continue
        seen[v] = 1
        order.append(v)
        stack.extend(adj[v])
    acc: dict = {}
    for i, v in enumerate(order):
        acc[v] = acc.get(v, 0) + i
    return len(sorted(acc.items(), key=lambda kv: kv[1]))


def reference_s() -> float:
    """Wall time of one run of the reference workload."""
    gc.collect()
    t0 = time.perf_counter()
    _reference_work()
    return time.perf_counter() - t0


class SpeedMeter:
    """Brackets measured units with reference runs.

    Create it just before the first unit; call :meth:`factor` just after
    each unit for the scale to apply to that unit's time.
    """

    def __init__(self) -> None:
        self._last = reference_s()
        self.factors: List[float] = []

    def factor(self) -> float:
        now = reference_s()
        f = NOMINAL_S / ((self._last + now) / 2.0)
        self._last = now
        self.factors.append(f)
        return f
