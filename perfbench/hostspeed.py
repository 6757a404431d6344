"""Host-speed reference for the timed loop.

On a shared host the CPU speed available to one process drifts by up to
about 1.5x over seconds to minutes, which moves a run's median solve time
more than any bound worth keeping.  The benchmark therefore times a fixed
reference task before the first job and after every job, and scales each
job's wall time by how slow the reference ran around it:

    scaled = wall * NOMINAL_S / mean(reference before, reference after)

A scaled time is the job's wall time on a host where the reference takes
NOMINAL_S seconds.  The reference is the kernel that dominates both
workloads, naive matrix products, once over Fractions and once over small
ints modulo 7, written with the standard library only.  It never calls
jnf, so a change to the program moves the scaled times exactly as much as
the wall times.  Of the candidate references tried, this pair tracked the
host's drift best on both workloads.
"""

import time
from fractions import Fraction

# seconds the reference task takes at nominal speed; a definition, not a
# measurement (about its time on a 2-vCPU Xeon KVM guest)
NOMINAL_S = 0.025

_QQ = [[Fraction((7 * i + 3 * j) % 19 - 9, 1 + (i + 2 * j) % 4)
        for j in range(8)] for i in range(8)]
_FP = [[(5 * i + 3 * j + i * j) % 7 for j in range(16)] for i in range(16)]


def _reference_task():
    m = _QQ
    for _ in range(6):
        m = [[sum(x * y for x, y in zip(row, col)) for col in zip(*_QQ)]
             for row in m]
    f = _FP
    for _ in range(28):
        f = [[sum(x * y for x, y in zip(row, col)) % 7 for col in zip(*_FP)]
             for row in f]
    return m, f


def reference_s():
    """Wall seconds of one reference task."""
    start = time.perf_counter()
    _reference_task()
    return time.perf_counter() - start


def scale(walls, refs):
    """Scaled seconds of each job; ``refs`` holds the reference seconds
    before the first job and after each job, one more than ``walls``."""
    return [wall * 2 * NOMINAL_S / (before + after)
            for wall, before, after in zip(walls, refs, refs[1:])]
