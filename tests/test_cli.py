"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_describe(capsys):
    assert main(["describe"]) == 0
    out = capsys.readouterr().out
    assert "Number of Nodes" in out
    assert "sor" in out and "em3d" in out


def test_run(capsys):
    rc = main(["run", "sor", "--scale", "0.1", "--system", "nwcache"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "system=nwcache" in out
    assert "swap-out" in out
    assert "breakdown" in out


def test_compare(capsys):
    rc = main(["compare", "sor", "--scale", "0.1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "system=standard" in out
    assert "system=nwcache" in out
    assert "improvement" in out


def test_table3_single_app(capsys):
    rc = main(["table", "3", "--scale", "0.1", "--apps", "sor"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Table 3" in out
    assert "sor" in out


def test_table7_single_app(capsys):
    rc = main(["table", "7", "--scale", "0.1", "--apps", "sor"])
    assert rc == 0
    assert "Table 7" in capsys.readouterr().out


def test_figure4_single_app(capsys):
    rc = main(["figure", "4", "--scale", "0.1", "--apps", "sor"])
    assert rc == 0
    assert "Figure 4" in capsys.readouterr().out


def test_bad_table_number(capsys):
    assert main(["table", "99", "--apps", "sor"]) == 2


def test_bad_figure_number(capsys):
    assert main(["figure", "9", "--apps", "sor"]) == 2


def test_unknown_app_rejected():
    with pytest.raises(SystemExit):
        main(["run", "doom"])


def test_stream_prefetch_via_cli(capsys):
    rc = main(["run", "sor", "--scale", "0.1", "--prefetch", "stream"])
    assert rc == 0
    assert "prefetch=stream" in capsys.readouterr().out


def test_sweep_command(capsys):
    rc = main(["sweep", "sor", "ring_channel_bytes", "8192", "32768",
               "--scale", "0.1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ring_channel_bytes sweep" in out
    assert "8192" in out and "32768" in out


def test_trace_record_and_replay(tmp_path, capsys):
    path = tmp_path / "sor.trace"
    rc = main(["trace", "record", "sor", str(path), "--scale", "0.1"])
    assert rc == 0
    assert path.exists()
    rc = main(["trace", "replay", str(path), "--scale", "0.1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "app=sor-trace" in out


def test_run_with_report_and_json(tmp_path, capsys):
    out_json = tmp_path / "res.json"
    rc = main(["run", "sor", "--scale", "0.1", "--system", "nwcache",
               "--report", "--json", str(out_json)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Per-node utilization" in out
    assert "NWCache ring channels" in out
    import json

    data = json.loads(out_json.read_text())
    assert data[0]["app"] == "sor"


def test_run_with_profile_table(tmp_path, capsys):
    rc = main(["run", "lu", "--scale", "0.05", "--profile"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "system=nwcache" in captured.out
    assert "cumulative" in captured.err  # pstats table on stderr


def test_run_with_profile_dump(tmp_path, capsys):
    out = tmp_path / "run.pstats"
    rc = main(["run", "lu", "--scale", "0.05", "--profile", str(out)])
    assert rc == 0
    assert out.exists()
    import pstats

    stats = pstats.Stats(str(out))
    assert stats.total_calls > 0


def test_run_without_compiled_traces_matches(capsys):
    assert main(["run", "lu", "--scale", "0.05"]) == 0
    compiled = capsys.readouterr().out
    assert main(["run", "lu", "--scale", "0.05",
                 "--no-compiled-traces"]) == 0
    generator = capsys.readouterr().out
    assert generator == compiled  # trajectory-neutral


def test_trace_compile_command(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NWCACHE_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("NWCACHE_TRACE_CACHE", "1")
    rc = main(["trace", "compile", "sor", "--scale", "0.1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "compiled sor" in out
    assert "trace key" in out
    assert list((tmp_path / "traces").glob("*/*.pkl"))
