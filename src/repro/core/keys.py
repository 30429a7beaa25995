"""Deterministic encoding of inputs for content-addressed digests.

The result cache's keys (:func:`repro.core.cache.cache_key`), the trace
memo's keys (:func:`repro.core.trace.trace_key`) and checkpoint state
digests all hash JSON built from :func:`canonical`, so equal inputs
digest equally in every process.
"""

from __future__ import annotations

import json
from typing import Any


def _sort_token(obj: Any) -> str:
    """Total order over canonical values (already JSON-encodable)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def canonical(obj: Any) -> Any:
    """Reduce ``obj`` to deterministic JSON-encodable primitives.

    Key-order of dicts and element-order of sets must not leak into the
    digest: equal containers hash equal regardless of insertion order or
    ``PYTHONHASHSEED``.  Dicts are encoded as sorted ``[key, value]``
    pair lists (plain ``sorted(obj.items())`` raises on mixed-type keys,
    and coercing keys to ``str`` would collide ``1`` with ``"1"``).
    """
    if isinstance(obj, dict):
        items = [[canonical(k), canonical(v)] for k, v in obj.items()]
        items.sort(key=lambda kv: _sort_token(kv[0]))
        return {"__dict__": items}
    if isinstance(obj, (set, frozenset)):
        return {"__set__": sorted((canonical(v) for v in obj), key=_sort_token)}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, float):
        # repr() round-trips floats exactly; avoids json float formatting drift
        return repr(obj)
    return repr(obj)
