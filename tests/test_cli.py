"""Command-line surface: subcommands, exit codes, and deterministic
JSON output."""

import json

import numpy as np
import pytest

import lpcuntz as lp
from lpcuntz.cli import main, rep_from_descriptor
from lpcuntz.spatial import matrix_to_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_nf(capsys):
    code, out, _ = run(capsys, "nf", "-d", "2", "s2*t2")
    assert code == 0 and out.strip() == "1 - s1*t1"
    code, out, _ = run(capsys, "nf", "-d", "2", "--kind", "cohn", "s2*t2")
    assert code == 0 and out.strip() == "s2*t2"
    code, out, _ = run(capsys, "nf", "-d", "2", "s1*t1 + s2*t2")
    assert code == 0 and out.strip() == "1"


def test_nf_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "nf", "-d", "2", "s1 +")
    assert code == 2 and "parse error" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("norm", "--p", "abc", "s1"),
        ("norm", "--rep", "nope", "s1"),
        ("norm", "--rep", "free:sequence:x", "s1"),
        ("norm", "--p", "0.5", "s1"),
        ("norm", "--rep", "tensor:sequence:0", "s1"),
        ("report-spatiality", "--rep", "tensor:sequence:0"),
        ("eval", "--level", "-1", "1"),
        ("lamperti", "no-such-dir/missing.json"),
    ],
)
def test_bad_input_exit_code(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and err.startswith("error:") and out == ""


def test_mul(capsys):
    code, out, _ = run(capsys, "mul", "-d", "2", "s1*t2", "s2*t1")
    assert code == 0 and out.strip() == "s1*t1"


def test_eval_json(capsys):
    code, out, _ = run(
        capsys, "eval", "--rep", "sequence", "-d", "2", "--p", "3",
        "--level", "1", "--format", "json", "1",
    )
    assert code == 0
    data = json.loads(out)
    entries = data["matrix"]["entries"]
    assert entries[0][0] == {"re": 1.0, "im": 0.0}
    assert data["matrix"]["p"] == "3"


def test_norm_csv_and_determinism(capsys):
    args = (
        "norm", "--rep", "interval", "-d", "2", "--p", "3",
        "--nmax", "3", "--seed", "7", "--format", "json", "s1 + t1",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical for identical config
    data = json.loads(out1)
    assert data["levels"][0]["level"] == 1
    csv = data["csv"].splitlines()
    assert csv[0] == "level,lower_bound,converged,witness_norm"
    assert len(csv) == 4


def test_norm_rep2_degree_zero_agreement(capsys):
    code, out, _ = run(
        capsys, "norm", "--rep", "interval", "--rep2", "sequence", "-d", "2",
        "--p", "3", "--nmax", "3", "--format", "json", "s1*t2 + s2*t1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["final_difference"] < 1e-6


def test_verify_pass_and_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "skew-table")
    assert code == 0 and "PASS" in out
    code, _, err = run(capsys, "verify", "no-such-suite")
    assert code == 2


def test_verify_lamperti_small(capsys):
    code, out, _ = run(
        capsys, "verify", "lamperti", "--atoms", "5", "--cases", "20", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["failed"] == 0


def test_lamperti_command(tmp_path, capsys):
    dom = lp.FiniteMeasureSpace(["x"], [1.0])
    cod = lp.FiniteMeasureSpace(["y1", "y2"], [1.0, 1.0])
    S = lp.SetTransformation(dom, cod, {"x": {"y1", "y2"}})
    sys_ = lp.SpatialSystem(dom, cod, ["x"], ["y1", "y2"], S, {"y1": 1, "y2": -1})
    A = lp.materialize(sys_, 3.0)
    path = tmp_path / "phase.json"
    path.write_text(json.dumps(matrix_to_json(A, p_text="3")))
    code, out, _ = run(capsys, "lamperti", str(path))
    assert code == 0 and "semispatial, not spatial" in out

    c = 2.0 ** -0.5
    sq = lp.FiniteMeasureSpace(["a", "b"], [1.0, 1.0])
    R = lp.OperatorMatrix(sq, sq, 3.0, np.array([[c, -c], [c, c]]))
    path2 = tmp_path / "rot.json"
    path2.write_text(json.dumps(matrix_to_json(R, p_text="3")))
    code, out, _ = run(capsys, "lamperti", str(path2))
    assert code == 1 and "overlapping column supports" in out

    # round trip: accepted system re-materializes to the same matrix
    code, out, _ = run(capsys, "lamperti", str(path), "--format", "json")
    data = json.loads(out)
    from lpcuntz.spatial import system_from_json

    back = lp.materialize(system_from_json(data["system"]), 3.0)
    assert np.abs(back.entries - A.entries).max() < 1e-12


def test_report_spatiality_command(capsys):
    code, out, _ = run(
        capsys, "report-spatiality", "--rep", "fourier:sequence", "-d", "2",
        "--p", "3", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    conds = data["conditions"]
    assert conds["contractive_on_generators"]["value"] is True
    assert conds["strongly_forward_isometric"]["value"] is True
    assert conds["disjoint"]["value"] is False
    assert conds["spatial"]["value"] is False


def test_compare_reps_command(capsys):
    code, out, _ = run(
        capsys, "compare-reps", "-d", "2", "--p", "3", "--nmax", "3",
        "--rep", "interval", "--rep", "sequence", "--format", "json",
        "s1*t1 - s2*t2",
    )
    assert code == 0
    data = json.loads(out)
    finals = [prof["lower_bounds"][-1] for prof in data["profiles"]]
    assert abs(finals[0] - finals[1]) < 1e-6


def test_descriptor_parser():
    rep = rep_from_descriptor("free:sequence:4", 2, 3.0)
    assert "free" in rep.label and "n=4" in rep.label
    rep = rep_from_descriptor("sum:interval+fourier:sequence", 2, 3.0)
    assert "sum" in rep.label
    rep = rep_from_descriptor("dual:interval", 2, 3.0)
    assert rep.p == pytest.approx(1.5)
    rep = rep_from_descriptor("tensor:sequence:3", 2, 3.0)
    assert lp.check_relations(rep, 2) < 1e-12
    with pytest.raises(ValueError):
        rep_from_descriptor("nope", 2, 3.0)


def test_out_flag(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "nf", "-d", "2", "--format", "json", "--out", str(path), "s2*t2"
    )
    assert code == 0 and out == ""
    data = json.loads(path.read_text())
    assert data["canonical"] == "1 - s1*t1"
