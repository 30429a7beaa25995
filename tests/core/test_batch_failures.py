"""Crash safety of the batch runner.

A batch must survive individual cells that raise, hang, or kill their
worker process outright: the failing cell comes back as a ``FailedSpec``
and every sibling cell still returns a real ``RunResult``.  Workers are
exercised by monkeypatching :func:`repro.core.batch.run_experiment` —
with the ``fork`` start method the patched module state is inherited by
the child processes.
"""

import multiprocessing
import os
import signal
import time

import pytest

import repro.core.batch as batch_mod
from repro.core.batch import (
    CellProcesses,
    ExperimentSpec,
    FailedSpec,
    batch_timeout,
    raise_failures,
    run_batch,
    run_pairs_batch,
)
from repro.core.cache import ResultCache
from repro.core.runner import RunResult, run_experiment

SCALE = 0.05

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="worker patching relies on the fork start method"
)


def _spec(app="sor", **kw):
    return ExperimentSpec(app, "nwcache", "naive", data_scale=SCALE, **kw)


# ----------------------------------------------------------- error reporting
def test_bad_app_becomes_failed_spec():
    bad, good = _spec(app="no-such-app"), _spec()
    failed, ok = run_batch([bad, good], jobs=2, cache=False)
    assert isinstance(failed, FailedSpec)
    assert failed.kind == "error"
    assert failed.spec is bad
    assert failed.attempts == 2  # the first try plus one retry
    assert not failed  # falsy, so `if result:` filters failures
    assert isinstance(ok, RunResult) and ok.app == "sor"


def test_serial_path_reports_errors_too():
    (failed,) = run_batch([_spec(app="no-such-app")], jobs=1, cache=False)
    assert isinstance(failed, FailedSpec)
    assert failed.kind == "error" and failed.attempts == 2


def test_raise_failures_is_all_or_nothing():
    results = run_batch(
        [_spec(), _spec(app="no-such-app")], jobs=2, cache=False
    )
    with pytest.raises(RuntimeError, match="no-such-app/nwcache/naive"):
        raise_failures(results)
    clean = run_batch([_spec()], jobs=1, cache=False)
    assert raise_failures(clean) == clean


# ------------------------------------------------------------- worker crash
@needs_fork
def test_worker_crash_is_contained(monkeypatch):
    real = run_experiment

    def crashy(app, *args, **kwargs):
        if app == "lu":
            os._exit(13)  # hard death: no exception, no pipe message
        return real(app, *args, **kwargs)

    monkeypatch.setattr(batch_mod, "run_experiment", crashy)
    dead, alive = run_batch(
        [_spec(app="lu"), _spec()], jobs=2, cache=False
    )
    assert isinstance(dead, FailedSpec)
    assert dead.kind == "crash"
    assert "exitcode 13" in dead.error
    assert dead.attempts == 2
    assert isinstance(alive, RunResult)


@needs_fork
def test_hung_worker_hits_the_deadline(monkeypatch):
    real = run_experiment

    def sleepy(app, *args, **kwargs):
        if app == "lu":
            time.sleep(60)
        return real(app, *args, **kwargs)

    monkeypatch.setattr(batch_mod, "run_experiment", sleepy)
    monkeypatch.setenv("NWCACHE_BATCH_TIMEOUT", "1.5")
    start = time.monotonic()
    hung, alive = run_batch(
        [_spec(app="lu"), _spec()], jobs=2, cache=False
    )
    elapsed = time.monotonic() - start
    assert isinstance(hung, FailedSpec)
    assert hung.kind == "timeout"
    assert "1.5s deadline" in hung.error
    assert hung.attempts == 2
    assert isinstance(alive, RunResult)
    assert 2 * 1.5 <= elapsed < 30  # both attempts hit the deadline


@needs_fork
def test_single_miss_still_gets_process_isolation(monkeypatch):
    """jobs>1 with one cell must not silently fall back to in-process."""
    monkeypatch.setattr(
        batch_mod, "run_experiment",
        lambda *a, **k: os._exit(13),
    )
    (dead,) = run_batch([_spec()], jobs=4, cache=False)
    assert isinstance(dead, FailedSpec) and dead.kind == "crash"


@needs_fork
def test_serial_batch_isolates_crashes_too(monkeypatch):
    """jobs=1 runs one child at a time, not in the calling process: a
    cell that kills its process outright fails alone."""
    real = run_experiment

    def crashy(app, *args, **kwargs):
        if app == "lu":
            os._exit(13)
        return real(app, *args, **kwargs)

    monkeypatch.setattr(batch_mod, "run_experiment", crashy)
    dead, alive = run_batch([_spec(app="lu"), _spec()], jobs=1, cache=False)
    assert isinstance(dead, FailedSpec) and dead.kind == "crash"
    assert dead.attempts == 2
    assert isinstance(alive, RunResult)


def _running(pid):
    """Whether ``pid`` is a live process (a zombie counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@needs_fork
@pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="reads process states from /proc"
)
def test_child_exits_when_its_parent_dies(tmp_path):
    """A cell's child does not outlive the process that started it: a
    SIGKILLed parent's child notices the re-parenting and exits."""
    pidfile = tmp_path / "child.pid"

    def announce_and_hang():
        pidfile.write_text(str(os.getpid()))
        while True:
            time.sleep(60)

    def parent():
        with CellProcesses() as cells:
            cells.start("hung", announce_and_hang)
            cells.wait()

    proc = multiprocessing.get_context("fork").Process(target=parent)
    proc.start()
    deadline = time.monotonic() + 30
    while not pidfile.exists() or not pidfile.read_text():
        assert time.monotonic() < deadline, "the child never started"
        time.sleep(0.01)
    child = int(pidfile.read_text())
    os.kill(proc.pid, signal.SIGKILL)
    proc.join()
    try:
        deadline = time.monotonic() + 5
        while _running(child):
            assert time.monotonic() < deadline, "the orphaned child lives on"
            time.sleep(0.05)
    finally:
        if _running(child):
            os.kill(child, signal.SIGKILL)


# ----------------------------------------------------------- cache + pairs
def test_failures_are_never_cached(tmp_path):
    cache = ResultCache(tmp_path)
    run_batch([_spec(app="no-such-app"), _spec()], jobs=2, cache=cache)
    assert len(cache) == 1  # only the successful cell
    probe = ResultCache(tmp_path)
    failed, ok = run_batch(
        [_spec(app="no-such-app"), _spec()], jobs=2, cache=probe
    )
    assert probe.stats()["hits"] == 1  # the good cell came from cache
    assert isinstance(failed, FailedSpec)  # the bad one re-ran and re-failed


def test_pairs_batch_returns_surviving_half(monkeypatch):
    if not HAS_FORK:
        pytest.skip("worker patching relies on the fork start method")
    real = run_experiment

    def half_crashy(app, system, *args, **kwargs):
        if system == "standard":
            raise RuntimeError("boom")
        return real(app, system, *args, **kwargs)

    monkeypatch.setattr(batch_mod, "run_experiment", half_crashy)
    pairs = run_pairs_batch(
        ["sor"], prefetch="naive", data_scale=SCALE, jobs=2, cache=False
    )
    std, nwc = pairs["sor"]
    assert isinstance(std, FailedSpec) and std.kind == "error"
    assert "boom" in std.error
    assert isinstance(nwc, RunResult)


def test_progress_callback_sees_failures():
    seen = []
    bad = _spec(app="no-such-app")
    run_batch(
        [bad], jobs=1, cache=False,
        progress=lambda event, spec, key: seen.append((event, spec.app, key)),
    )
    # two attempts, each claimed and then failed
    assert [event for event, _app, _key in seen] == [
        "claim", "fail", "claim", "fail"
    ]
    assert {(app, key) for _event, app, key in seen} == {
        ("no-such-app", bad.key())
    }


# ------------------------------------------------------------- environment
def test_batch_timeout_env(monkeypatch):
    monkeypatch.delenv("NWCACHE_BATCH_TIMEOUT", raising=False)
    assert batch_timeout() is None
    monkeypatch.setenv("NWCACHE_BATCH_TIMEOUT", "12.5")
    assert batch_timeout() == 12.5
    # empty/whitespace means "unset": the deadline is simply off
    monkeypatch.setenv("NWCACHE_BATCH_TIMEOUT", "  ")
    assert batch_timeout() is None


@pytest.mark.parametrize("bad", ["0", "-3", "nan", "inf", "5 minutes", "x"])
def test_batch_timeout_env_rejects_non_deadlines(monkeypatch, bad):
    # Zero, negative, non-finite, and non-numeric values are config
    # mistakes, not requests to disable the deadline; each raises with
    # the variable named so the sweep fails loudly up front.
    monkeypatch.setenv("NWCACHE_BATCH_TIMEOUT", bad)
    with pytest.raises(ValueError, match="NWCACHE_BATCH_TIMEOUT"):
        batch_timeout()


def test_failed_spec_reports_retry_count():
    f = FailedSpec(_spec(), kind="error", error="boom", attempts=3)
    assert f.retries == 2
    assert FailedSpec(_spec(), "error", "boom", attempts=1).retries == 0
    assert FailedSpec(_spec(), "error", "boom", attempts=0).retries == 0


def test_faults_are_part_of_the_cache_key(monkeypatch):
    monkeypatch.delenv("NWCACHE_FAULTS", raising=False)
    plain = _spec()
    faulted = _spec(faults="disk_transient_rate=0.1")
    assert plain.key() != faulted.key()
    # the env default reaches resolved_config(), keeping keys honest
    monkeypatch.setenv("NWCACHE_FAULTS", "disk_transient_rate=0.1")
    assert _spec().key() == faulted.key()
