"""Reference work that measures the host's speed next to each job run.

On a shared host the speed of a core moves by up to half within seconds,
as other tenants load the same physical cores, and CPU time does not see
it.  The benchmark runs this fixed work right before and right after every
timed job run and scales the job's CPU time by it (see ``run.py``).  The
work uses no hybridad code, so a change to hybridad moves the job times and
not the reference.  It mixes the kinds of work the jobs do: a scalar Euler
march, evaluation of an expression tree through a dispatch table, building
small objects in a dict, and small numpy vector steps.
"""

from __future__ import annotations

import gc
import random
import time

NOMINAL_CPU_S = 2.0e-3               # CPU time of one run the figures are scaled to

_rng = random.Random(0)
_TREE = [("in", i % 8, 0) if i < 8 else
         (_rng.choice(("add", "mul", "sub", "neg")), _rng.randrange(i), _rng.randrange(i))
         for i in range(300)]
_OPS = {"add": lambda a, b: a + b, "mul": lambda a, b: 0.5 * a * b,
        "sub": lambda a, b: a - b, "neg": lambda a, b: -a}


class _Item:
    __slots__ = ("key", "label")

    def __init__(self, key, label):
        self.key = key
        self.label = label


def work() -> float:
    import numpy as np          # imported here: importing this module must not
                                # take numpy's import out of the timed set-up
    x, v = 0.0, 1.0
    for _ in range(2500):
        a = -x - 0.1 * v
        x += 1e-3 * v
        v += 1e-3 * a
    for r in range(4):
        inputs = [0.1 * r + 0.01 * k for k in range(8)]
        vals = []
        for op, a, b in _TREE:
            vals.append(inputs[a] if op == "in" else _OPS[op](vals[a], vals[b]) % 7.0)
        x += vals[-1]
    items = {("k", i): _Item(i, str(i)) for i in range(1200)}
    x += sum(item.key for item in items.values())
    y = np.zeros(4)
    for _ in range(120):
        y = y + 1e-3 * (np.sin(y) + 1.0)
    return x + float(y.sum())


def cpu_s() -> float:
    """CPU seconds of one run of ``work``, with the garbage collector off so
    that garbage a job left behind is not collected inside it."""
    gc.disable()
    try:
        c0 = time.process_time()
        work()
        return time.process_time() - c0
    finally:
        gc.enable()
