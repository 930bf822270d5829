"""Host speed: a fixed pure-Python kernel timed between ops.

This machine shares its cores with other tenants, and their load slows our
code by 10-70% for minutes at a time (CPU time slows as much as wall time,
so it is not time spent descheduled).  A 45 s run that falls into such a
period reads slow whatever statistic it reports, and ten runs of the same
code then spread past any useful bound.

So the worker times this kernel before every op, outside the op's timed
region, and multiplies each op's time of a cycle by
``(REFERENCE_S / median kernel time of the cycle) ** ELASTICITY``.

* The kernel imports nothing from ``agreetree``, so a change to the program
  does not change it.  It intersects nested frozenset leaf sets, as the
  program does, and only reads data it built on first use: a kernel that
  allocates its sets anew took 5,400 page faults per run in a fresh heap and
  none in the fragmented heap a big op leaves behind, which doubled its time
  and would have tied the scale to the program's memory use.
* ``ELASTICITY``: over 20 s windows of one 240 s run per workload while
  the host's speed moved (the kernel's log-time sd between windows was
  0.20-0.24), the ops' log-times rose 0.5-0.85x as much as the kernel's
  for ``agree``, ``match1`` (wide), ``match2`` and ``gen``, 1.1x for
  ``decompose`` and 0.37x for ``match1`` on deep, whose 370 MB of leaf
  caches wait on memory.  At 0.7 the sd between windows of the mean op time
  fell from 0.112 unscaled to 0.068 (deep) and from 0.159 to 0.063 (wide);
  at 1 it was 0.114 and 0.108.  The ``agree`` ops, which set the median
  latency, varied least at 0.6-0.8.

The raw wall-clock figures stay in the report.
"""

from __future__ import annotations

import functools
import statistics
import time

# The kernel's time when the host is quiet: the fastest 5% of its times
# between ops on a 2.1 GHz core under Python 3.11.
REFERENCE_S = 0.0032
ELASTICITY = 0.7


@functools.cache
def _data():
    """The leaf sets of a 512-leaf caterpillar (131,328 set entries) and a
    probe set, built once."""
    leaves, sets = frozenset(), []
    for leaf in range(1, 513):
        leaves = leaves | {leaf}
        sets.append(leaves)
    return tuple(sets), frozenset(range(1, 1025, 3))


def kernel():
    """Intersect every leaf set with the probe, twice.  Returns a checksum."""
    sets, probe = _data()
    return sum(len(s & probe) for s in sets) + sum(len(probe & s) for s in sets)


def sample():
    """One timed run of the kernel, in seconds."""
    _data()
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(kernel_times):
    """The factor that takes times measured while the kernel took
    ``kernel_times`` to the reference host speed."""
    return (REFERENCE_S / statistics.median(kernel_times)) ** ELASTICITY
