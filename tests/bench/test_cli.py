"""The experiment registry and its entry points: the `python -m
repro.bench` CLI, `scripts/run_full_experiments.py` and the
`benchmarks/` harness."""

import dataclasses
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

from repro.bench import ExperimentResult
from repro.bench.__main__ import main
from repro.bench.experiments import EXPERIMENTS, full_suite

ROOT = Path(__file__).resolve().parents[2]


def _load_script():
    path = ROOT / "scripts" / "run_full_experiments.py"
    spec = importlib.util.spec_from_file_location("run_full_experiments", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def script(monkeypatch, tmp_path):
    module = _load_script()
    monkeypatch.setattr(module, "OUT", tmp_path)
    return module


@pytest.fixture
def calls(monkeypatch):
    """Swap every registry entry's ``run`` for a recorder of
    ``(name, quick)``."""
    seen = []
    for name, entry in EXPERIMENTS.items():
        def run(quick, name=name):
            seen.append((name, quick))
            return ExperimentResult(name, "stub", ["a"], [[1]])
        monkeypatch.setitem(EXPERIMENTS, name,
                            dataclasses.replace(entry, run=run))
    return seen


def test_list_mode(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert f"  {name}\n" in out


def test_no_args_lists(capsys):
    assert main([]) == 0
    assert "available experiments" in capsys.readouterr().out


def test_unknown_experiment():
    assert main(["nope"]) == 2


def test_runs_small_experiment(capsys):
    assert main(["fig6c"]) == 0
    out = capsys.readouterr().out
    assert "Figure 6(c)" in out
    assert "fadd" in out


def test_every_registered_name_is_callable():
    stems = [e.stem for e in EXPERIMENTS.values()]
    assert len(set(stems)) == len(stems)
    for name, entry in EXPERIMENTS.items():
        assert entry.name == name
        assert "quick" in inspect.signature(entry.run).parameters, name


def test_full_suite_is_every_name_but_fig5_scale(script, calls):
    assert script.main([]) == 0
    expected = [n for n in EXPERIMENTS if n != "fig5-scale"]
    assert calls == [(n, False) for n in expected]
    assert [e.name for e in full_suite()] == expected


def test_cli_and_script_resolve_names_alike(script, calls):
    for name in EXPERIMENTS:
        assert main(["--full", name]) == 0
        assert script.main([name]) == 0
        assert main([name]) == 0
        assert calls == [(name, False), (name, False), (name, True)]
        assert (script.OUT / f"{EXPERIMENTS[name].stem}.txt").exists()
        calls.clear()


def test_script_rejects_unknown_names(script, calls, capsys):
    assert script.main(["fig5a_startup"]) == 2
    assert "fig5a_startup" in capsys.readouterr().out
    assert calls == []


def test_script_reports_failures(script, calls, monkeypatch):
    def boom(quick):
        raise RuntimeError("boom")
    monkeypatch.setitem(EXPERIMENTS, "fig1",
                        dataclasses.replace(EXPERIMENTS["fig1"], run=boom))
    assert script.main(["fig1", "fig2"]) == 1
    assert calls == [("fig2", False)]


def test_every_suite_entry_has_a_benchmark():
    """Each default-suite experiment is asserted by a benchmarks/ test."""
    named = set()
    for path in (ROOT / "benchmarks").glob("test_*.py"):
        named.update(re.findall(r'run_experiment\("([^"]+)"\)',
                                path.read_text()))
    assert named == {e.name for e in full_suite()}
