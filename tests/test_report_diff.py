"""Smoke test of scripts/report_diff.py, run in this process."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

from lieharm.harness import RunConfig, run
from lieharm.lie import SUN_SON

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "report_diff.py"


@pytest.fixture(scope="module")
def report_diff():
    spec = importlib.util.spec_from_file_location("report_diff", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def report():
    cfg = RunConfig(suites=("eigen", "pharmonic"), spaces=((SUN_SON, 2),), p_max=1,
                    suite_overrides={"eigen": {"samples": 2, "draws": 2}})
    return run(cfg).to_dict()


def _write(tmp_path, name, report):
    path = tmp_path / name
    path.write_text(json.dumps(report))
    return str(path)


def test_identical_reports_diff_clean(report_diff, report, tmp_path, capsys):
    a = _write(tmp_path, "a.json", report)
    assert report_diff.main([a, a]) == 0
    out = capsys.readouterr().out
    assert "fingerprints match" in out and "config keys" not in out
    assert "0 verdict flips, 0 missing and 0 added records" in out
    # 2 eigen draws, 1 + 2 pharmonic records (sun_son and the two synthetic pairs)
    assert "eigen              2       2" in out and "pharmonic          3       3" in out
    assert "ms old -> new" in out


def test_changed_residual_flip_and_missing_record(report_diff, report, tmp_path, capsys):
    old, new = copy.deepcopy(report), copy.deepcopy(report)
    for rec in old["records"]:
        rec["ms"] = 1.25
    for rec in new["records"]:
        rec["ms"] = 2.5
    new["config"]["out"] = "elsewhere.json"  # a run-only key: not in the fingerprint
    eigen = [r for r in new["records"] if r["name"] == "eigen/sun_son"]
    eigen[0]["residual"] *= 2
    eigen[1]["pass"] = False
    new["records"].remove(next(r for r in new["records"] if r["name"].startswith("pharmonic/")))
    assert report_diff.main([_write(tmp_path, "a.json", old), _write(tmp_path, "b.json", new)]) == 1
    out = capsys.readouterr().out
    lines = {line.split()[0]: line for line in out.splitlines() if line.startswith(("eigen ", "pharmonic "))}
    # summed record ms over the records both reports have: 2 eigen, 2 of the 3 pharmonic
    assert lines["eigen"].endswith("       2.5 ->     5.0")
    assert lines["pharmonic"].endswith("       2.5 ->     5.0")
    assert "fingerprints differ" in out
    assert "config keys that differ: none" in out
    assert "verdict flip: eigen/sun_son n=2 draw=1 pass True -> False" in out
    assert "missing in new: pharmonic/sun_son n=2 p=1" in out
    assert "eigen              2       1       x2.00 - x2.00" in out
    assert "1 verdict flips, 1 missing and 0 added records" in out


def test_duplicate_key_is_an_error(report_diff, report, tmp_path):
    dup = copy.deepcopy(report)
    dup["records"].append(dup["records"][0])
    with pytest.raises(ValueError, match="duplicate record key"):
        report_diff.main([_write(tmp_path, "a.json", report), _write(tmp_path, "d.json", dup)])


def test_changed_config_names_its_keys(report_diff, report, tmp_path, capsys):
    new = copy.deepcopy(report)
    new["config"].update(seed=7, p_max=2, jobs=3)
    new["config"]["explicit"] = ["jobs"]  # run-only, so the same as ()
    assert report_diff.main([_write(tmp_path, "a.json", report), _write(tmp_path, "b.json", new)]) == 0
    out = capsys.readouterr().out
    assert "fingerprints differ" in out
    assert "config keys that differ: p_max, seed" in out
