"""Layer map and cProfile attribution for the traced benchmark pass.

Every module under ``src/repro`` belongs to exactly one layer, named
after the repository's packages.  The traced pass runs a workload under
``cProfile`` and folds the profile into per-layer self time and
entry-point call counts:

* a function defined in ``src/repro`` is charged to its module's layer;
* a function defined anywhere else (C builtins, NumPy, the standard
  library) has its self time charged up the call graph to the nearest
  calling repo function's layer, split by the profiler's caller edges;
* what reaches no repo function (the benchmark's own glue, interpreter
  roots) stays ``unattributed``.
"""

from __future__ import annotations

import importlib
import pstats
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

#: the layers, in report order
LAYERS: Tuple[str, ...] = (
    "sim",
    "hw.cpu",
    "hw",
    "osim.vm",
    "osim.swap",
    "optical",
    "disk",
    "core.trace",
    "service",
    "core",
)

#: module-name prefix -> layer; the longest matching prefix wins
LAYER_PREFIXES: Dict[str, str] = {
    "repro.sim": "sim",
    "repro.hw": "hw",
    "repro.hw.cpu": "hw.cpu",
    "repro.osim": "osim.vm",
    "repro.osim.swap": "osim.swap",
    "repro.optical": "optical",
    "repro.disk": "disk",
    "repro.core.trace": "core.trace",
    "repro.apps": "core.trace",
    "repro.service": "service",
    "repro.core.batch": "service",
    "repro.core.cache": "service",
    "repro.ioutil": "service",
    "repro": "core",
}

#: each layer's public entry points, as ``(module, qualified name)``;
#: ``<layer>.calls`` sums the profiler's call counts over them (a
#: generator's resumptions count as calls).  Hot callers inline
#: ``MeshNetwork.transfer`` and take the optimal-prefetch shortcut past
#: ``DiskController.read``, so those layers also count the entry points
#: that do run.
ENTRY_POINTS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "sim": (("repro.sim.engine", "Engine.run"),),
    "hw.cpu": (
        ("repro.hw.cpu", "Cpu.run"),
        ("repro.hw.cpu", "Cpu.run_compiled"),
        ("repro.hw.cpu", "Cpu.run_epochs"),
    ),
    "hw": (
        ("repro.hw.network", "MeshNetwork.transfer"),
        ("repro.hw.network", "MeshNetwork.try_jump_transfer"),
    ),
    "osim.vm": (
        ("repro.osim.vm", "VmSystem.resolve"),
        ("repro.osim.vm", "VmSystem.fast_access"),
    ),
    "osim.swap": (("repro.osim.swap", "SwapManager.swap_out"),),
    "optical": (("repro.optical.ring", "CacheChannel.insert"),),
    "disk": (
        ("repro.disk.controller", "DiskController.read"),
        ("repro.disk.controller", "DiskController.note_optimal_read"),
        ("repro.disk.controller", "DiskController.try_accept_write"),
    ),
    "core.trace": (("repro.core.trace", "get_trace"),),
    "service": (
        ("repro.service.lease", "SweepQueue.claim"),
        ("repro.service.lease", "SweepQueue.complete"),
        ("repro.service.journal", "Journal.replay"),
        ("repro.service.journal", "Journal.append"),
        ("repro.core.cache", "ResultCache.put"),
    ),
    "core": (("repro.core.machine", "Machine.run"),),
}

#: harness counters surfaced on their own (``service.journal_*``):
#: every claim and compaction check replays the whole journal, and
#: ``_append_unlocked`` is the one fsync'd write path
JOURNAL_COUNTERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "service.journal_replays": (("repro.service.journal", "Journal.replay"),),
    "service.journal_appends": (
        ("repro.service.journal", "Journal._append_unlocked"),
    ),
}

UNATTRIBUTED = "unattributed"

Func = Tuple[str, int, str]  # pstats key: (filename, first line, name)


def layer_of(module: str) -> Optional[str]:
    """The layer of a ``repro`` module name (None outside ``repro``)."""
    best: Optional[str] = None
    for prefix in LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > len(best):
                best = prefix
    return None if best is None else LAYER_PREFIXES[best]


def repro_modules(src: Path) -> List[str]:
    """Dotted names of every module file under ``src/repro``."""
    out = []
    for path in sorted((src / "repro").rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        out.append(".".join(parts))
    return out


def _module_of_file(filename: str, src: Path) -> Optional[str]:
    path = Path(filename)
    try:
        rel = path.resolve().relative_to(src.resolve())
    except (ValueError, OSError):
        return None
    if rel.suffix != ".py" or rel.parts[0] != "repro":
        return None
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _entry_func(module: str, qualname: str) -> Func:
    """The pstats key of a function named by module and qualified name."""
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    code = obj.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def attribute(stats: pstats.Stats, src: Path) -> Dict[str, float]:
    """Self seconds per layer (plus :data:`UNATTRIBUTED`) from a profile."""
    raw = stats.stats  # func -> (cc, nc, tt, ct, callers)
    home: Dict[Func, Optional[str]] = {}
    for func in raw:
        module = _module_of_file(func[0], src)
        home[func] = None if module is None else layer_of(module)

    # share of a foreign function's time owed to each layer, by the
    # cumulative time its callers spent in it; memoized, cycle-safe
    shares: Dict[Func, Dict[str, float]] = {}
    visiting = set()

    def share_of(func: Func) -> Dict[str, float]:
        if home.get(func) is not None:
            return {home[func]: 1.0}
        if func in shares:
            return shares[func]
        if func in visiting or func not in raw:
            return {UNATTRIBUTED: 1.0}
        visiting.add(func)
        callers = raw[func][4]
        total = sum(edge[3] for edge in callers.values())
        out: Dict[str, float] = {}
        if total <= 0:
            out[UNATTRIBUTED] = 1.0
        else:
            for caller, edge in callers.items():
                weight = edge[3] / total
                for layer, frac in share_of(caller).items():
                    out[layer] = out.get(layer, 0.0) + weight * frac
        visiting.discard(func)
        shares[func] = out
        return out

    self_s = {layer: 0.0 for layer in LAYERS}
    self_s[UNATTRIBUTED] = 0.0
    for func, (_cc, _nc, tt, _ct, callers) in raw.items():
        if tt <= 0:
            continue
        layer = home[func]
        if layer is not None:
            self_s[layer] += tt
            continue
        # first hop: split by the time this function spent per caller
        edge_total = sum(edge[2] for edge in callers.values())
        if edge_total <= 0:
            self_s[UNATTRIBUTED] += tt
            continue
        for caller, edge in callers.items():
            part = tt * edge[2] / edge_total
            for owner, frac in share_of(caller).items():
                self_s[owner] += part * frac
    return self_s


def call_counts(
    stats: pstats.Stats, named: Dict[str, Iterable[Tuple[str, str]]]
) -> Dict[str, int]:
    """Σ profiler call counts over each name's functions."""
    raw = stats.stats
    out = {}
    for name, funcs in named.items():
        total = 0
        for module, qualname in funcs:
            entry = raw.get(_entry_func(module, qualname))
            if entry is not None:
                total += entry[1]
        out[name] = total
    return out
