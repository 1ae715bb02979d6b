"""The CLI equivalence matrix's compare mode reports what differs, and by how much."""

import importlib.util
import json
import sys
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


def test_reports_absolute_drift_and_ignores_round_off_values(tmp_path, capsys):
    # a zero residual that moves by round-off has a relative difference of 1,
    # which the max_rel(|v|>=1e-13) column leaves out
    a = _tree(tmp_path / "a", {"case": 0}, {"case/checks.csv": "check,value\nc,0\nd,1000\n"})
    b = _tree(tmp_path / "b", {"case": 0}, {"case/checks.csv": "check,value\nc,1e-16\nd,1000.5\n"})
    assert cli_matrix.compare(a, b) == 1
    (line,) = [line for line in capsys.readouterr().out.splitlines() if "checks.csv" in line]
    fields = {key: value for key, _, value in (f.rpartition("=") for f in line.split()[2:])}
    assert float(fields["max_abs"]) == 0.5
    assert float(fields["max_rel(|v|>=1e-13)"]) == pytest.approx(0.5 / 1000.5, rel=1e-3)
    assert float(fields["max_rel"]) == 1.0


def test_manifests_must_be_strict_json(tmp_path, capsys):
    root = tmp_path / "run"
    for case, text in {"ok": '{"seed": null}', "inf": '{"lambda": Infinity}',
                       "nan": '{"alpha": NaN}'}.items():
        (root / case).mkdir(parents=True)
        (root / case / "manifest.json").write_text(text)
    assert cli_matrix.check_manifests(str(root)) == 1
    out = capsys.readouterr().out
    assert "BAD JSON inf/manifest.json" in out and "BAD JSON nan/manifest.json" in out
    assert "ok/" not in out
    (root / "inf" / "manifest.json").unlink()
    (root / "nan" / "manifest.json").unlink()
    assert cli_matrix.check_manifests(str(root)) == 0


def test_refused_cases_must_leave_no_files(tmp_path, capsys):
    root = tmp_path / "run"
    files = {"ok": ["weights.csv", "manifest.json"], "clean": ["stderr.txt"],
             "partial": ["stderr.txt", "weights.csv"], "nested": ["stderr.txt", "sub/gap.csv"]}
    for case, names in files.items():
        for name in names:
            (root / case / name).parent.mkdir(parents=True, exist_ok=True)
            (root / case / name).write_text("x")
    (root / "empty").mkdir()
    codes = {"ok": 0, "clean": 3, "partial": 3, "nested": 2, "empty": 3}
    assert cli_matrix.check_refusals(str(root), codes) == 1
    out = capsys.readouterr().out
    assert "REFUSED WITH FILES partial (exit 3): weights.csv" in out
    assert "REFUSED WITH FILES nested (exit 2): sub/gap.csv" in out
    assert "ok " not in out and "clean" not in out and "empty" not in out
    (root / "partial" / "weights.csv").unlink()
    (root / "nested" / "sub" / "gap.csv").unlink()
    assert cli_matrix.check_refusals(str(root), codes) == 0


def test_an_uncaught_exception_is_not_a_clean_refusal(tmp_path, capsys):
    def refuses(argv):
        print("error: no such input", file=sys.stderr)
        return 1

    def dies(argv):
        raise FileNotFoundError("no-such-dir/small.csv")

    assert cli_matrix.run_case(refuses, "case", []) == (1, ["error: no such input"])
    assert cli_matrix.run_case(dies, "case", []) == ("uncaught FileNotFoundError", [])
    assert "FileNotFoundError: no-such-dir/small.csv" in capsys.readouterr().err
    # compare mode reads a traceback against a clean refusal as a difference
    files = {"case/stderr.txt": "error: no such input\n"}
    a = _tree(tmp_path / "a", {"case": "uncaught FileNotFoundError"}, {})
    b = _tree(tmp_path / "b", {"case": 1}, files)
    assert cli_matrix.compare(a, b) == 1
    out = capsys.readouterr().out
    assert "EXIT    case: uncaught FileNotFoundError != 1" in out
    assert "exit codes differ" in out
    # and such a case counts as refused: it must leave no files but stderr.txt
    (tmp_path / "a" / "case").mkdir()
    (tmp_path / "a" / "case" / "gap.csv").write_text("x")
    assert cli_matrix.check_refusals(a, {"case": "uncaught FileNotFoundError"}) == 1
