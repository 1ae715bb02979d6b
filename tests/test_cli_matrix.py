"""The CLI equivalence matrix's compare mode reports what differs, and by how much."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "cli_matrix.py"
_spec = importlib.util.spec_from_file_location("cli_matrix", _PATH)
cli_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_matrix)


def _tree(root, codes, files):
    root.mkdir()
    (root / "exit_codes.json").write_text(json.dumps(codes))
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    return str(root)


def test_identical_runs_compare_equal(tmp_path, capsys):
    files = {"case/weights.csv": "unit,weight\nu1,0.5\nu2,0.5\n"}
    a = _tree(tmp_path / "a", {"case": 0}, files)
    b = _tree(tmp_path / "b", {"case": 0}, files)
    assert cli_matrix.compare(a, b) == 0
    assert "2 of 2 files byte-identical" in capsys.readouterr().out


def test_reports_numeric_drift_new_keys_and_exit_codes(tmp_path, capsys):
    a = _tree(tmp_path / "a", {"case": 0, "bad": 0}, {
        "case/weights.csv": "unit,weight\nu1,0.5\nu2,0.5\n",
        "case/manifest.json": json.dumps({"config": {"lambda": 1.0}}),
    })
    b = _tree(tmp_path / "b", {"case": 0, "bad": 3}, {
        "case/weights.csv": "unit,weight\nu1,0.5000000001\nu2,0.4999999999\n",
        "case/manifest.json": json.dumps({"config": {"lambda": 1.0, "zeta": None}}),
    })
    assert cli_matrix.compare(a, b) == 1
    out = capsys.readouterr().out
    assert "EXIT    bad: 0 != 3" in out
    (weights,) = [line for line in out.splitlines() if "weights.csv" in line]
    assert float(weights.split("max_rel=")[1]) == pytest.approx(2e-10, rel=1e-3)
    assert "only in B: ['config.zeta']" in out
