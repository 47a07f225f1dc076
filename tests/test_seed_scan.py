"""Smoke test of scripts/seed_scan.py, run in this process."""

import importlib.util
from pathlib import Path

import pytest

from lieharm import harness
from lieharm.lie import SPACE_FAMILIES

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "seed_scan.py"


@pytest.fixture(scope="module")
def seed_scan():
    spec = importlib.util.spec_from_file_location("seed_scan", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def n2_spaces(seed_scan, monkeypatch):
    monkeypatch.setattr(seed_scan, "DEFAULT_SPACES", tuple((f, 2) for f in SPACE_FAMILIES))


def test_seed_scan_passes_two_seeds(seed_scan, capsys):
    assert seed_scan.main(["--seeds", "100", "101"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "worst dual: residual" in out and "worst crosscheck: residual" in out
    assert "tau2_scaled dual: max" in out and "99th percentile" in out and "over 8 records" in out
    assert "0 of 16 records failed" in out


def test_seed_scan_prints_replay_command_and_exits_1(seed_scan, capsys, monkeypatch):
    monkeypatch.setitem(harness.SUITE_DEFAULTS["dual"], "tau2_tol", 1e-30)
    assert seed_scan.main(["--seeds", "100", "100"]) == 1
    out = capsys.readouterr().out
    assert "lieharm dual --space sun_son:2 --samples 2 --seed 100" in out
    assert "4 of 8 records failed" in out


def test_seed_scan_runs_the_spaces_at_each_given_n(seed_scan, capsys, monkeypatch):
    # --n replaces the n of the default spaces, for every family of them
    seen = []
    run = seed_scan.run

    def spy(cfg):
        seen.append(cfg.spaces)
        return run(cfg)

    monkeypatch.setattr(seed_scan, "run", spy)
    assert seed_scan.main(["--seeds", "100", "100", "--n", "4"]) == 0
    assert seen == [tuple((f, 4) for f in SPACE_FAMILIES)]
    assert "0 of 8 records failed" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        seed_scan.main(["--seeds", "100", "100", "--n", "1"])
    assert exc.value.code == 2
