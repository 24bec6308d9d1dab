"""A fixed reference probe that measures how fast this host runs Python
at the moment it is called.

The benchmark's host is shared: a busy neighbour slows this process by
up to 70%, in phases that last from tenths of a second to minutes.  The
episode therefore runs this probe every :data:`EVERY_SEC` of set-up and
of the run phase, between two bytecodes of the program, so its mean time
covers the same instants as the program's own time.  Host times are then
scaled to the probe's time on a calm host (:data:`NOMINAL_S`,
:data:`ELASTICITY`).  The probe uses only the standard library (heap
pushes and pops, dict updates: the kind of work the simulator does), so
no change to the program can alter it.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Probe time, in seconds, that host times are scaled to: about its time
#: on a calm 2-vCPU Xeon VM with Python 3.11, so a scaled number reads
#: as host time on that box when nothing else runs.
NOMINAL_S = 0.00045
#: Wall seconds between probes during a timed phase.
EVERY_SEC = 0.02
#: How the program's time follows the probe's, per workload: a host time
#: is scaled by ``(NOMINAL_S / probe time) ** ELASTICITY[workload]``.
#: The probe's working set is a few KiB.  Workloads with a small heap
#: (rpc_keepalive, bulk_stream: 60-70 MiB) slow about as much as it
#: does; fleet_churn, with a 1.1 GiB heap, slows less.  Over 10 runs of
#: 30 s each, the run-to-run spread of ops_per_s was smallest near these
#: exponents (rpc_keepalive 6% and bulk_stream 3% at 1.0, against 10% and
#: 9% at 0.75; fleet_churn 2% at 0.75, against 7% at 1.0).
ELASTICITY = {"rpc_keepalive": 1.0, "bulk_stream": 1.0, "fleet_churn": 0.75}

_ITEMS = 600


def probe() -> float:
    """Wall seconds for one pass of the fixed reference work.  The
    collector is held off meanwhile: a collection started by the probe's
    allocations would walk the program's objects and belongs to it."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    heap, counts = [], {}
    for item in range(_ITEMS):
        heapq.heappush(heap, ((item * 7919) % 1000, item))
        counts[item & 63] = counts.get(item & 63, 0) + 1
    while heap:
        heapq.heappop(heap)
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed
