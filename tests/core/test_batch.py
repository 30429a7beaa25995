"""Batch runner + result cache: determinism, cache hits, serialization."""

import json
import pickle

import pytest

from repro.config import SimConfig
from repro.core.batch import (
    ExperimentSpec,
    default_jobs,
    grid_specs,
    run_batch,
    run_pairs_batch,
)
from repro.core.cache import ResultCache, cache_key, default_cache_dir
from repro.core.export import (
    load_full_results,
    result_from_full_dict,
    result_to_full_dict,
    save_full_results,
)
from repro.core.runner import run_experiment

SCALE = 0.1


def _fingerprint(res) -> str:
    """Canonical byte-level identity of a result's measurements."""
    return json.dumps(result_to_full_dict(res), sort_keys=True)


# ------------------------------------------------------------- determinism
def test_pooled_batch_matches_serial_run():
    serial = run_experiment("sor", "nwcache", "optimal", data_scale=SCALE)
    spec = ExperimentSpec("sor", "nwcache", "optimal", data_scale=SCALE)
    (pooled,) = run_batch([spec], jobs=2, cache=False)
    assert _fingerprint(pooled) == _fingerprint(serial)


def test_batch_results_keep_spec_order():
    specs = [
        ExperimentSpec("sor", system, "optimal", data_scale=SCALE)
        for system in ("standard", "nwcache")
    ]
    results = run_batch(specs, jobs=2, cache=False)
    assert [r.system for r in results] == ["standard", "nwcache"]
    assert results[0].app == results[1].app == "sor"


def test_run_pairs_batch_shape():
    pairs = run_pairs_batch(["sor"], prefetch="optimal", data_scale=SCALE,
                            jobs=1, cache=False)
    std, nwc = pairs["sor"]
    assert std.system == "standard" and nwc.system == "nwcache"


# ------------------------------------------------------------------ caching
def test_cache_hit_on_rerun(tmp_path):
    cache = ResultCache(tmp_path)
    spec = ExperimentSpec("sor", "nwcache", "optimal", data_scale=SCALE)
    (cold,) = run_batch([spec], jobs=1, cache=cache)
    assert cache.stats() == {"hits": 0, "misses": 1}
    assert len(cache) == 1

    rerun_cache = ResultCache(tmp_path)
    (warm,) = run_batch([spec], jobs=1, cache=rerun_cache)
    assert rerun_cache.stats() == {"hits": 1, "misses": 0}
    assert _fingerprint(warm) == _fingerprint(cold)


def test_duplicate_specs_simulate_once(tmp_path):
    cache = ResultCache(tmp_path)
    spec = ExperimentSpec("sor", "nwcache", "optimal", data_scale=SCALE)
    first, second = run_batch([spec, spec], jobs=1, cache=cache)
    assert _fingerprint(first) == _fingerprint(second)
    assert cache.stats() == {"hits": 0, "misses": 1}


def test_cache_miss_on_config_change(tmp_path):
    cache = ResultCache(tmp_path)
    base = ExperimentSpec("sor", "nwcache", "optimal", data_scale=SCALE)
    run_batch([base], jobs=1, cache=cache)

    changed = ExperimentSpec(
        "sor", "nwcache", "optimal", data_scale=SCALE,
        config={"disk_cache_bytes": 32 * 1024},
    )
    assert changed.key() != base.key()
    probe = ResultCache(tmp_path)
    run_batch([changed], jobs=1, cache=probe)
    assert probe.stats()["misses"] == 1


def test_cache_key_covers_every_grid_axis():
    base = ExperimentSpec("sor", "nwcache", "optimal", data_scale=SCALE)
    variants = [
        ExperimentSpec("lu", "nwcache", "optimal", data_scale=SCALE),
        ExperimentSpec("sor", "standard", "optimal", data_scale=SCALE),
        ExperimentSpec("sor", "nwcache", "naive", data_scale=SCALE),
        ExperimentSpec("sor", "nwcache", "optimal", data_scale=SCALE / 2),
        ExperimentSpec("sor", "nwcache", "optimal", data_scale=SCALE,
                       drain_policy="round-robin"),
        # 12 still differs from the default (2) after min-free scaling
        ExperimentSpec("sor", "nwcache", "optimal", data_scale=SCALE,
                       min_free=12),
    ]
    keys = {base.key(), *[v.key() for v in variants]}
    assert len(keys) == len(variants) + 1


def test_cache_key_is_stable():
    a = ExperimentSpec("sor", "nwcache", "optimal", data_scale=SCALE)
    b = ExperimentSpec("sor", "nwcache", "optimal", data_scale=SCALE)
    assert a.key() == b.key()


def test_cache_rejects_garbage_entry(tmp_path):
    cache = ResultCache(tmp_path)
    key = cache_key(SimConfig.tiny(), "sor", "nwcache", "optimal")
    path = cache._path(key)
    path.parent.mkdir(parents=True)
    path.write_bytes(b"not a pickle")
    assert cache.get(key) is None
    path.write_bytes(pickle.dumps({"not": "a RunResult"}))
    assert cache.get(key) is None


def test_cache_dir_from_environment(monkeypatch, tmp_path):
    monkeypatch.setenv("NWCACHE_CACHE_DIR", str(tmp_path / "custom"))
    assert default_cache_dir() == tmp_path / "custom"
    monkeypatch.delenv("NWCACHE_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == tmp_path / "xdg" / "nwcache"


def test_cache_clear(tmp_path):
    cache = ResultCache(tmp_path)
    spec = ExperimentSpec("sor", "nwcache", "optimal", data_scale=SCALE)
    run_batch([spec], jobs=1, cache=cache)
    assert cache.clear() == 1
    assert len(cache) == 0


def test_default_jobs_env(monkeypatch):
    monkeypatch.setenv("NWCACHE_JOBS", "3")
    assert default_jobs() == 3
    monkeypatch.delenv("NWCACHE_JOBS")
    assert default_jobs() >= 1


# ------------------------------------------------------------ serialization
def test_runresult_pickle_roundtrip():
    res = run_experiment("sor", "nwcache", "optimal", data_scale=SCALE)
    clone = pickle.loads(pickle.dumps(res))
    assert _fingerprint(clone) == _fingerprint(res)


def test_runresult_json_roundtrip(tmp_path):
    res = run_experiment("sor", "nwcache", "optimal", data_scale=SCALE)
    clone = result_from_full_dict(
        json.loads(json.dumps(result_to_full_dict(res)))
    )
    assert clone.exec_time == res.exec_time
    assert clone.cfg == res.cfg
    assert clone.metrics.summary() == res.metrics.summary()
    assert clone.combining.n == res.combining.n
    assert clone.combining.mean == res.combining.mean
    assert [a.as_dict() for a in clone.per_cpu] == [
        a.as_dict() for a in res.per_cpu
    ]
    assert clone.breakdown_fractions() == res.breakdown_fractions()

    path = tmp_path / "results.json"
    assert save_full_results(path, [res]) == 1
    (loaded,) = load_full_results(path)
    assert _fingerprint(loaded) == _fingerprint(res)


def test_grid_specs_cross_product():
    specs = grid_specs(["sor", "lu"], ("standard", "nwcache"),
                       ("optimal", "naive"), data_scale=SCALE)
    assert len(specs) == 8
    assert len({(s.app, s.system, s.prefetch) for s in specs}) == 8


def test_non_string_app_has_no_cache_key():
    with pytest.raises(TypeError):
        # cache keys need a string app name; Workload objects go through
        # run_experiment directly instead.
        ExperimentSpec(object()).key()  # type: ignore[arg-type]
