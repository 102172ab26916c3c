"""Diff tool + export round-trips: every exporter's output must load
back through ``load_snapshot`` and self-diff to zero deltas."""

import json

import pytest

from repro.apps import HelloWorld
from repro.cluster import cluster_a
from repro.core import Job, RuntimeConfig
from repro.obs import (
    diff_snapshots,
    format_diff,
    load_snapshot,
    series_final,
    series_peak,
    timeline_csv,
)
from repro.obs.__main__ import main as obs_main


@pytest.fixture(scope="module")
def telemetry():
    job = Job(npes=8, config=RuntimeConfig.proposed(),
              cluster=cluster_a(8, ppn=2),
              observe={"timeline": {"interval_us": 2000.0}})
    return job.run(HelloWorld()).telemetry


def _assert_zero_self_diff(report):
    for entry in report["series"].values():
        assert entry["only_in"] is None
        assert entry["peak_delta"] == 0.0 and entry["final_delta"] == 0.0
    for entry in report["counters"].values():
        assert entry["only_in"] is None and entry["delta"] == 0
    for entry in report["histograms"].values():
        assert entry["only_in"] is None
        for field in ("count", "mean", "p50", "p99"):
            assert entry[f"{field}_delta"] == 0


class TestRoundTrips:
    def test_telemetry_json(self, telemetry, tmp_path):
        path = tmp_path / "tele.json"
        path.write_text(json.dumps(telemetry))
        snap = load_snapshot(str(path))
        assert snap["series"] and snap["counters"] and snap["histograms"]
        _assert_zero_self_diff(diff_snapshots(snap, snap))
        # Raw telemetry dicts diff directly too (normalised inside).
        _assert_zero_self_diff(diff_snapshots(telemetry, telemetry))

    def test_timeline_csv(self, telemetry, tmp_path):
        path = tmp_path / "tl.csv"
        path.write_text(timeline_csv(telemetry["timeline"]))
        snap = load_snapshot(str(path))
        original = telemetry["timeline"]["series"]
        assert sorted(snap["series"]) == sorted(original)
        for key, buf in original.items():
            assert series_peak(snap["series"][key]) == series_peak(buf)
            assert series_final(snap["series"][key]) == series_final(buf)
        _assert_zero_self_diff(diff_snapshots(snap, snap))

    def test_cross_format_diff_is_zero_on_series(self, telemetry, tmp_path):
        """JSON and CSV views of the same run agree exactly."""
        j = tmp_path / "t.json"
        c = tmp_path / "t.csv"
        j.write_text(json.dumps(telemetry))
        c.write_text(timeline_csv(telemetry["timeline"]))
        report = diff_snapshots(load_snapshot(str(j)), load_snapshot(str(c)))
        for entry in report["series"].values():
            assert entry["only_in"] is None
            assert entry["peak_delta"] == 0.0


class TestDiffSemantics:
    def test_series_deltas_and_only_in(self):
        a = {"series": {
            "conn": {"kind": "gauge", "max": [3.0, 5.0], "last": [5.0, 2.0]},
            "gone": {"kind": "gauge", "max": [1.0], "last": [1.0]},
        }}
        b = {"series": {
            "conn": {"kind": "gauge", "max": [9.0], "last": [4.0]},
            "new": {"kind": "gauge", "max": [2.0], "last": [2.0]},
        }}
        report = diff_snapshots(a, b)
        conn = report["series"]["conn"]
        assert conn["peak_delta"] == 4.0 and conn["final_delta"] == 2.0
        assert report["series"]["gone"]["only_in"] == "a"
        assert report["series"]["new"]["only_in"] == "b"

    def test_counter_delta(self):
        report = diff_snapshots(
            {"metrics": {"counters": {"evictions": 10}}},
            {"metrics": {"counters": {"evictions": 3}}},
        )
        assert report["counters"]["evictions"]["delta"] == -7

    def test_format_diff_mentions_everything(self):
        report = diff_snapshots(
            {"series": {"x": {"max": [1.0], "last": [1.0]}},
             "metrics": {"counters": {"c": 1}}},
            {"series": {"x": {"max": [4.0], "last": [0.0]}},
             "metrics": {"counters": {"c": 5}}},
        )
        text = format_diff(report, label_a="base", label_b="new")
        assert "A=base" in text and "B=new" in text
        assert "x: peak 1 -> 4 (+3)" in text
        assert "c: 1 -> 5 (+4)" in text

    def test_format_diff_empty(self):
        text = format_diff(diff_snapshots({}, {}))
        assert "(no overlapping telemetry)" in text


class TestLoadSnapshotErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_snapshot(str(tmp_path / "nope.json"))

    @pytest.mark.parametrize("content,why", [
        ("", "empty"),
        ("{not json", "corrupt JSON"),
        ("[1, 2]", "must be an object"),
        ("what even is this", "unrecognised"),
    ])
    def test_bad_content(self, tmp_path, content, why):
        path = tmp_path / "bad.txt"
        path.write_text(content)
        with pytest.raises(ValueError, match=why):
            load_snapshot(str(path))


class TestCli:
    def test_diff_subcommand_self_diff(self, telemetry, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(telemetry))
        assert obs_main(["diff", str(path), str(path)]) == 0
        out = capsys.readouterr().out
        assert "telemetry diff" in out

    def test_diff_missing_file_one_line_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert obs_main(["diff", missing, missing]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_diff_corrupt_file_one_line_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{{{")
        assert obs_main(["diff", str(bad), str(bad)]) == 2
        err = capsys.readouterr().err
        assert "corrupt JSON" in err and "Traceback" not in err

    def test_run_output_path_validated_before_running(self, capsys):
        assert obs_main(["--npes", "4", "--out", "/no/such/dir/x.json"]) == 2
        err = capsys.readouterr().err
        assert "--out" in err and "does not exist" in err

    def test_csv_requires_timeline(self, capsys):
        assert obs_main(["--npes", "4", "--csv", "x.csv"]) == 2
        assert "--csv requires --timeline" in capsys.readouterr().err

    def test_diff_output_flag_validated(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text("{}")
        assert obs_main(["diff", str(path), str(path),
                         "--output", "/no/such/dir/report.txt"]) == 2
        assert "--output" in capsys.readouterr().err
