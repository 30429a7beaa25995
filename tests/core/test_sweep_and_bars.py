"""Tests for the sweep harness and the ASCII figure bars."""

import pytest

from repro.core.report import figure_bars
from repro.core.runner import run_pair
from repro.core.sweep import sweep, tabulate


@pytest.fixture(scope="module")
def sor_pair():
    return {"sor": run_pair("sor", prefetch="optimal", data_scale=0.1)}


def test_figure_bars_renders(sor_pair):
    text = figure_bars(sor_pair, "optimal", width=40)
    assert "Figure 3 (bars)" in text
    lines = [l for l in text.splitlines() if "|" in l]
    assert len(lines) == 2  # std + nwc
    std_bar = lines[0].split("|")[1]
    # the standard bar is normalized to full width (rounding slack)
    assert abs(len(std_bar) - 40) <= 3
    # nwcache bar is shorter (it wins)
    nwc_bar = lines[1].split("|")[1]
    assert len(nwc_bar) < len(std_bar)


def test_sweep_requires_exactly_one_axis():
    with pytest.raises(ValueError):
        sweep("sor", ring_channel_bytes=16 * 1024)  # no list
    with pytest.raises(ValueError):
        sweep("sor", ring_channel_bytes=[1, 2], disk_cache_bytes=[1, 2])


class _Captured(Exception):
    pass


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(ring_channel_bytes=[2 * 4096, 8 * 4096]),
        dict(system="standard", prefetch="naive",
             disk_cache_bytes=[16 * 1024, 64 * 1024]),
        dict(min_free=12, data_scale=0.5, victim_caching=False,
             ring_channel_bytes=[4 * 4096]),
    ],
)
def test_sweep_point_keys_match_explicit_config_keys(monkeypatch, kwargs):
    """Every sweep point keys exactly as an explicit SimConfig built from
    ``experiment_config`` (then min-free rescaled against the configured
    node, as ``run_experiment`` does with a ``cfg``) would key it, so
    declarative sweep specs hit the same cache entries."""
    import sys

    from repro.core.cache import cache_key
    from repro.core.runner import (
        BEST_MIN_FREE,
        experiment_config,
        scaled_min_free,
    )

    monkeypatch.delenv("NWCACHE_FAULTS", raising=False)
    monkeypatch.delenv("NWCACHE_AUDIT", raising=False)
    captured = []

    def capture(specs, **_kw):
        captured.extend(specs)
        raise _Captured

    # (the package re-exports sweep(), shadowing the module attribute)
    monkeypatch.setattr(sys.modules["repro.core.sweep"], "run_batch", capture)
    with pytest.raises(_Captured):
        sweep("sor", **kwargs)

    system = kwargs.pop("system", "nwcache")
    prefetch = kwargs.pop("prefetch", "optimal")
    data_scale = kwargs.pop("data_scale", 0.25)
    min_free = kwargs.pop("min_free", None) or BEST_MIN_FREE[(system, prefetch)]
    (axis,) = [k for k, v in kwargs.items() if isinstance(v, list)]
    values = kwargs.pop(axis)
    assert len(captured) == len(values)
    for spec, value in zip(captured, values):
        cfg = experiment_config(
            data_scale, min_free=min_free, **{axis: value}, **kwargs
        )
        cfg = cfg.replace(
            min_free_frames=scaled_min_free(
                min_free, data_scale, cfg.frames_per_node
            )
        )
        assert spec.key() == cache_key(
            cfg, "sor", system, prefetch,
            drain_policy="most-loaded", data_scale=data_scale, app_params={},
        )


def test_sweep_runs_each_point():
    rows = sweep(
        "sor",
        system="nwcache",
        prefetch="optimal",
        data_scale=0.1,
        keep_results=True,
        ring_channel_bytes=[2 * 4096, 8 * 4096],
    )
    assert len(rows) == 2
    assert rows[0]["ring_channel_bytes"] == 2 * 4096
    assert all(r["exec_mpcycles"] > 0 for r in rows)
    assert rows[0]["result"].cfg.ring_slots_per_channel == 2


def test_sweep_rows_flat_and_json_safe_by_default():
    import json

    rows = sweep("sor", data_scale=0.1, ring_channel_bytes=[2 * 4096])
    assert "result" not in rows[0]
    json.dumps(rows)  # every default row value is a JSON primitive


def test_sweep_more_ring_does_not_hurt():
    rows = sweep(
        "sor",
        data_scale=0.1,
        ring_channel_bytes=[2 * 4096, 16 * 4096],
    )
    assert rows[1]["exec_mpcycles"] <= rows[0]["exec_mpcycles"] * 1.1


def test_tabulate():
    rows = sweep("sor", data_scale=0.1, ring_channel_bytes=[2 * 4096])
    text = tabulate(rows, title="ring sweep")
    assert "ring sweep" in text
    assert "8192" in text
    with pytest.raises(ValueError):
        tabulate([])
