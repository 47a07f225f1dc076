"""Smoke test of scripts/report_diff.py, run in this process and, for a\nclosed pipe, as a script."""

import copy
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lieharm.harness import RunConfig, report_fingerprint, run
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


def test_a_changed_param_is_counted_where_the_residuals_agree(report_diff, report, tmp_path, capsys):
    # a record whose residual keeps its bits but one of whose params moved
    new = copy.deepcopy(report)
    eigen = next(r for r in new["records"] if r["name"] == "eigen/sun_son")
    eigen["params"]["tau2_scaled"] = 1e-12
    assert report_diff.main([_write(tmp_path, "a.json", report), _write(tmp_path, "b.json", new)]) == 0
    out = capsys.readouterr().out
    assert "fingerprints differ" in out and "config keys that differ: none" in out
    assert "suite        records bitwise       new/old ratio  params" in out
    lines = {line.split()[0]: line for line in out.splitlines() if line.startswith(("eigen ", "pharmonic "))}
    assert lines["eigen"].startswith(f"{'eigen':12} {2:7} {2:7} {'-':>19} {1:7} ")
    assert lines["pharmonic"].startswith(f"{'pharmonic':12} {3:7} {3:7} {'-':>19} {3:7} ")


def test_differing_fingerprints_are_printed_old_to_new(report_diff, report, tmp_path, capsys):
    new = copy.deepcopy(report)
    new["records"][0]["residual"] *= 2
    a, b = (report_fingerprint(r)[:8] for r in (report, new))
    assert a != b
    assert report_diff.main([_write(tmp_path, "a.json", report), _write(tmp_path, "b.json", new)]) == 0
    assert f"fingerprints differ: {a} -> {b}\n" in capsys.readouterr().out


def test_each_record_prints_its_ms_ratio(report_diff, report, tmp_path, capsys):
    old, new = copy.deepcopy(report), copy.deepcopy(report)
    for i, (a, b) in enumerate(zip(old["records"], new["records"])):
        a["ms"], b["ms"] = 2.0 * (i + 1), 3.0 * (i + 1) if i else 0.5
    assert report_diff.main([_write(tmp_path, "a.json", old), _write(tmp_path, "b.json", new)]) == 0
    out = capsys.readouterr().out
    rows = out[out.index("ms old -> new    ratio"):].splitlines()[1:-1]
    assert len(rows) == len(report["records"])
    assert rows[0] == f"{'eigen/sun_son n=2 draw=0':44}        2.0 ->     0.5    x0.25"
    assert rows[1] == f"{'eigen/sun_son n=2 draw=1':44}        4.0 ->     6.0    x1.50"


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


@pytest.mark.parametrize("flip", [False, True])
def test_a_reader_closing_the_pipe_early_keeps_the_exit_code(report, tmp_path, flip):
    # `report_diff.py A B | head -3`: no BrokenPipeError traceback, and the
    # exit code of a full read, 1 only for a verdict flip
    new = copy.deepcopy(report)
    new["records"][0]["pass"] = not flip
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, str(_SCRIPT), _write(tmp_path, "a.json", report),
                               _write(tmp_path, "b.json", new)], stdout=write, stderr=subprocess.PIPE,
                              text=True, timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (int(flip), "")
