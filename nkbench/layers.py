"""Attribute cProfile self time to the simulator's layers.

A profiled function belongs to the layer of its module, looked up in
:data:`MODULE_LAYERS` by the longest matching ``repro.*`` prefix.
Functions outside the package (builtins, the standard library) have no
layer of their own: their self time is charged to whichever callers
invoked them, edge by edge, using the per-caller times cProfile keeps.
cProfile accounts a resumed generator frame to the generator's own
function, so socket ops written as coroutines are attributed correctly.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

#: ``repro`` module prefix -> layer name (longest prefix wins).
MODULE_LAYERS = {
    "repro.sim": "sim",
    "repro.stack.tcp": "stack.tcp",
    "repro.stack.cc": "stack.tcp",
    "repro.stack": "stack.other",
    "repro.net": "net",
    "repro.core.coreengine": "core.coreengine",
    "repro.core.overload": "core.coreengine",
    "repro.core.guestlib": "core.guestlib",
    "repro.core.sockets": "core.guestlib",
    "repro.core.servicelib": "core.servicelib",
    "repro.core.nqe": "core.nqe",
    "repro.core.nk_device": "core.nk_device",
    "repro.core.queues": "core.queues",
    "repro.core.sharding": "core.sharding",
    "repro.core.conn_table": "core.conn_table",
    "repro.core": "core.other",
    "repro.mem.hugepages": "mem.hugepages",
    "repro.mem.ring": "mem.ring",
    "repro.mem": "mem.other",
    "repro.cpu": "cpu",
    "repro.apps": "apps",
    "repro.obs": "obs",
    "repro": "other",
}

#: Every layer reported, in report order (``bench`` is this harness).
LAYERS = tuple(dict.fromkeys(MODULE_LAYERS.values())) + ("bench",)

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

Func = Tuple[str, int, str]


def module_of(filename: str) -> str:
    """Dotted ``repro.*`` module name of a source file, or ``""``."""
    parts = os.path.normpath(filename).split(os.sep)
    if "repro" not in parts:
        return ""
    index = len(parts) - 1 - parts[::-1].index("repro")
    dotted = parts[index:]
    dotted[-1] = os.path.splitext(dotted[-1])[0]
    if dotted[-1] == "__init__":
        dotted.pop()
    return ".".join(dotted)


def own_layer(func: Func) -> str:
    """The layer a function belongs to by its module, or ``""`` when it
    has none (builtins and the standard library)."""
    filename = func[0]
    if os.path.dirname(os.path.abspath(filename)) == _BENCH_DIR:
        return "bench"
    module = module_of(filename)
    while module:
        if module in MODULE_LAYERS:
            return MODULE_LAYERS[module]
        module = module.rpartition(".")[0]
    return ""


def self_time_by_layer(stats) -> Dict[str, float]:
    """Self seconds per layer from ``pstats.Stats(profile).stats``."""
    totals = {layer: 0.0 for layer in LAYERS}
    resolved: Dict[Func, Dict[str, float]] = {}

    def shares(func: Func, active: frozenset) -> Dict[str, float]:
        """How one second of ``func``'s self time splits over layers."""
        layer = own_layer(func)
        if layer:
            return {layer: 1.0}
        if func in resolved:
            return resolved[func]
        callers = stats[func][4] if func in stats else {}
        edges = {caller: times[2] for caller, times in callers.items()
                 if caller not in active}
        weight = sum(edges.values())
        if not edges or weight <= 0:
            return {"other": 1.0}
        split: Dict[str, float] = {}
        for caller, seconds in edges.items():
            for name, share in shares(caller, active | {func}).items():
                split[name] = split.get(name, 0.0) + share * seconds / weight
        if not active:
            resolved[func] = split
        return split

    for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        for layer, share in shares(func, frozenset()).items():
            totals[layer] += tottime * share
    return totals


def call_count(stats, funcname: str, module: str) -> int:
    """Calls made to ``funcname`` defined in ``repro`` module ``module``."""
    return sum(entry[1] for func, entry in stats.items()
               if func[2] == funcname and module_of(func[0]) == module)
