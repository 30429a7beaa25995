"""Experiment runner: one cell (or pair) of the paper's evaluation grid.

Handles the two knobs the paper fixes per configuration:

* **min free frames** — Section 5 determined the best settings
  empirically: 12 (standard/optimal), 4 (standard/naive), and 2 for the
  NWCache machine under either prefetcher.  :data:`BEST_MIN_FREE`
  applies them automatically.
* **scale** — experiments can be run at a fraction of the paper's data
  size; :func:`experiment_config` scales memory and ring capacity with
  the data (as the paper itself scaled memory by 256x and ring/disk
  cache by 32x versus real machines) so that out-of-core behaviour is
  preserved, and each workload's problem dimensions are shrunk according
  to its dimensionality.
"""

from __future__ import annotations

import math
import os
from typing import Any, Dict, Optional, Tuple

from repro.apps import make_app
from repro.apps.base import Workload
from repro.config import SimConfig
from repro.core.machine import Machine, RunResult, SYSTEM_NWCACHE, SYSTEM_STANDARD

#: Section 5's best minimum-free-frames per (system, prefetch); the
#: "stream" entries interpolate the paper's values for our realistic
#: middle-ground prefetcher.
BEST_MIN_FREE: Dict[Tuple[str, str], int] = {
    (SYSTEM_STANDARD, "optimal"): 12,
    (SYSTEM_STANDARD, "naive"): 4,
    (SYSTEM_STANDARD, "stream"): 8,
    (SYSTEM_NWCACHE, "optimal"): 2,
    (SYSTEM_NWCACHE, "naive"): 2,
    (SYSTEM_NWCACHE, "stream"): 2,
}

#: data-size exponent of each app's linear dimension (for scaling);
#: apps not listed — e.g. the open-loop generators, whose catalog and
#: request counts are linear in ``scale`` — default to 1.0
DATA_EXPONENT: Dict[str, float] = {
    "sor": 2.0,
    "gauss": 2.0,
    "lu": 2.0,
    "fft": 2.0,
    "mg": 3.0,
    "radix": 1.0,
    "em3d": 1.0,
}


def linear_scale(app_name: str, data_scale: float) -> float:
    """Linear-dimension scale producing ``data_scale`` of the data size."""
    if data_scale <= 0:
        raise ValueError(f"data_scale must be positive, got {data_scale}")
    exp = DATA_EXPONENT.get(app_name, 1.0)
    return data_scale ** (1.0 / exp)


def scaled_min_free(min_free: int, data_scale: float, frames: int) -> int:
    """Scale a paper min-free-frames setting with the memory size.

    The paper's values (12 / 4 / 2) are fractions of a 64-frame node;
    keeping the *ratio* preserves the replacement dynamics at small scale.
    """
    if data_scale < 1.0:
        min_free = max(1, math.ceil(min_free * data_scale))
    return min(min_free, max(1, frames // 2))


def experiment_config(
    data_scale: float = 1.0, min_free: Optional[int] = None, **overrides: Any
) -> SimConfig:
    """Table 1 machine scaled so memory/ring track the data size."""
    cfg = SimConfig.paper()
    raw_frames = cfg.memory_per_node // cfg.page_size
    frames = max(8, round(raw_frames * data_scale))
    slots = max(2, round(cfg.ring_slots_per_channel * data_scale))
    params: Dict[str, Any] = dict(
        memory_per_node=frames * cfg.page_size,
        ring_channel_bytes=slots * cfg.page_size,
    )
    if min_free is not None:
        usable = max(2, frames - round(frames * cfg.os_reserved_fraction))
        params["min_free_frames"] = scaled_min_free(min_free, data_scale, usable)
    params.update(overrides)
    return SimConfig(**params)


def _audit_default() -> bool:
    """Audit experiments when ``NWCACHE_AUDIT`` is set (CI audit mode)."""
    return os.environ.get("NWCACHE_AUDIT", "").lower() not in ("", "0", "false", "no")


def env_fault_spec() -> Optional[str]:
    """The ``NWCACHE_FAULTS`` fault spec, or None when unset/empty."""
    return os.environ.get("NWCACHE_FAULTS") or None


def run_experiment(
    app: str | Workload,
    system: str = SYSTEM_STANDARD,
    prefetch: str = "optimal",
    data_scale: float = 1.0,
    min_free: Optional[int] = None,
    cfg: Optional[SimConfig] = None,
    drain_policy: str = "most-loaded",
    audit: Optional[bool] = None,
    compiled_traces: bool = True,
    faults: Any = None,
    **app_params: Any,
) -> RunResult:
    """Run one (application, system, prefetch) experiment.

    Parameters
    ----------
    app:
        Application name (see :data:`repro.apps.ALL_APP_NAMES`) or a
        pre-built :class:`~repro.apps.base.Workload`.
    system:
        ``"standard"`` or ``"nwcache"``.
    prefetch:
        ``"optimal"`` or ``"naive"``.
    data_scale:
        Fraction of the paper's data size (1.0 = Table 2 inputs).
    min_free:
        Override the minimum free frames; default = the paper's best
        value for this (system, prefetch) pair.
    cfg:
        Fully explicit machine configuration (overrides ``data_scale``).
    audit:
        Run the machine with the invariant auditor installed
        (:mod:`repro.core.auditing`).  ``None`` defers to ``cfg.audit``
        or the ``NWCACHE_AUDIT`` environment variable.
    compiled_traces:
        Feed the CPUs from the compiled reference trace
        (:mod:`repro.core.trace`, the default); ``False`` runs the live
        driver generators instead.  Trajectory-neutral: the generator
        path is the reference the equivalence tests compare against.
    faults:
        Fault-injection plan: a :class:`~repro.sim.faults.FaultPlan`, a
        spec string (see :func:`~repro.sim.faults.parse_fault_spec`), or
        None.  ``None`` defers to the ``NWCACHE_FAULTS`` environment
        variable, then to ``cfg.faults``.
    """
    if audit is None:
        audit = _audit_default()
    if min_free is None:
        min_free = BEST_MIN_FREE[(system, prefetch)]
    if cfg is None:
        cfg = experiment_config(data_scale, min_free=min_free)
    else:
        # min_free is a paper-scale setting: scale it with the machine's
        # memory exactly as experiment_config does.
        cfg = cfg.replace(
            min_free_frames=scaled_min_free(
                min_free, data_scale, cfg.frames_per_node
            )
        )
    if audit and not cfg.audit:
        cfg = cfg.replace(audit=True)
    if faults is None:
        faults = env_fault_spec()
    if faults is not None:
        # replace() re-runs validation and normalizes spec strings.
        cfg = cfg.replace(faults=faults)
    if isinstance(app, Workload):
        workload = app
    else:
        workload = make_app(
            app,
            scale=linear_scale(app, data_scale),
            page_size=cfg.page_size,
            **app_params,
        )
    machine = Machine(
        cfg,
        system=system,
        prefetch=prefetch,
        drain_policy=drain_policy,
        compiled_traces=compiled_traces,
    )
    return machine.run(workload)


def run_pair(
    app: str,
    prefetch: str = "optimal",
    data_scale: float = 1.0,
    **kwargs: Any,
) -> Tuple[RunResult, RunResult]:
    """Run the standard and NWCache machines on the same experiment."""
    std = run_experiment(
        app, SYSTEM_STANDARD, prefetch, data_scale=data_scale, **kwargs
    )
    nwc = run_experiment(
        app, SYSTEM_NWCACHE, prefetch, data_scale=data_scale, **kwargs
    )
    return std, nwc
