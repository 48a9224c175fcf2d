"""Command-line surface: subcommands, exit codes, and deterministic
JSON output."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lpcuntz as lp
from lpcuntz.cli import build_parser, main, rep_from_descriptor
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
        ("verify", "lamperti", "--cases", "0"),
        ("verify", "lamperti", "--cases", "-3"),
        ("verify", "calculus", "--cases", "0"),
        ("verify", "relations", "--atoms", "0"),
        ("verify", "relations", "--level", "0"),
        ("verify", "relations", "--d", "0"),
        ("report-spatiality", "--level", "0"),
        ("lamperti", "--tol", "-1", "no-such-dir/missing.json"),
        ("lamperti", "--tol", "-0.5", "no-such-dir/missing.json"),
        ("lamperti", "--tol", "-1e-9", "no-such-dir/missing.json"),
        ("norm", "--restarts", "0", "s1"),
        ("norm", "--restarts", "-1", "s1"),
        ("compare-reps", "--rep", "sequence", "--restarts", "0", "s1"),
        ("compare-reps", "--rep", "sequence", "--restarts", "-1", "s1"),
        # a space of 2^63 atoms or more fails before anything is allocated
        ("eval", "-d", "2", "--level", "63", "s1"),
        ("eval", "-d", "2", "--level", "64", "s1"),
        # an exponent of 0 is rejected before any arithmetic divides by it
        ("norm", "--rep", "interval", "-p", "0", "s1"),
        ("eval", "--rep", "interval", "-p", "0", "1"),
        ("compare-reps", "--rep", "interval", "-p", "0", "s1"),
        ("report-spatiality", "--rep", "fourier:sequence", "-p", "0"),
    ],
)
def test_bad_input_exit_code(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and err.startswith("error:") and out == ""


@pytest.mark.parametrize("tol", ["-1", "-0.5", "-1e-9"])
def test_negative_tol_message(capsys, tol):
    # checked before the file is read; argparse alone takes -1e-9 for a flag
    code, _, err = run(capsys, "lamperti", "--tol", tol, "no-such-dir/missing.json")
    assert code == 2 and err.startswith("error: --tol must be nonnegative")


def _run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports this checkout's
    lpcuntz; returns its stdout."""
    src = str(Path(lp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


_LOADED_SCIPY = """
import json, sys
print(json.dumps({
    "stats": sorted(m for m in sys.modules if m.startswith("scipy.stats")),
    "subpackages": sorted(
        name for name, module in sys.modules.items()
        if name.startswith("scipy.") and name.count(".") == 1
        and not name[6:].startswith("_") and hasattr(module, "__path__")
    ),
}))
"""


_ORACLE_AND_VERIFY = (
    "import numpy as np\n"
    "import lpcuntz as lp\n"
    "from lpcuntz import cli\n"
    "kernel = np.array([[1.0, 2.0], [0.0, -1.0]])\n"
    "space = lp.FiniteMeasureSpace(range(2), [1.0, 2.0])\n"
    "A = lp.OperatorMatrix(space, space, 3.0, kernel)\n"
    "res = lp.oracle_grid(A, samples=256)\n"
    "ref = lp.power_estimate(A)\n"
    "assert 0.0 < res.estimate <= ref.estimate * (1 + 1e-9), (res, ref)\n"
    "assert res.estimate >= ref.estimate * (1 - 1e-3), (res, ref)\n"
    "assert cli.main(['verify', 'lamperti', '--cases', '4']) == 0\n"
)


def test_import_loads_only_scipy_sparse():
    # importing, the oracle and a verify suite that reaches it each leave
    # scipy.sparse the only scipy subpackage loaded
    for code in ("import lpcuntz, lpcuntz.cli", _ORACLE_AND_VERIFY):
        loaded = json.loads(_run_fresh(code + _LOADED_SCIPY).splitlines()[-1])
        assert loaded == {"stats": [], "subpackages": ["scipy.sparse"]}


@pytest.mark.parametrize(
    "argv",
    [
        ("nf", "--nmax", "3", "s1"),
        ("nf", "--tol", "5", "s1"),
        ("mul", "--format", "csv", "s1", "t1"),
        ("mul", "-p", "3", "s1", "t1"),
        ("eval", "--kind", "cohn", "1"),
        ("eval", "--seed", "1", "1"),
        ("norm", "--kind", "linf", "s1"),
        ("norm", "--tol", "0.1", "s1"),
        ("compare-reps", "--rep", "sequence", "--level", "2", "s1"),
        ("compare-reps", "--rep", "sequence", "--format", "csv", "s1"),
        ("report-spatiality", "--kind", "cohn"),
        ("report-spatiality", "--nmax", "3"),
        ("verify", "skew-table", "-p", "3"),
        ("verify", "skew-table", "--restarts", "3"),
        ("lamperti", "--seed", "1", "matrix.json"),
        ("lamperti", "-d", "2", "matrix.json"),
        ("norm", "--rep2", "sequence", "s1"),
    ],
)
def test_flag_without_reader_exit_code(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2 and "error:" in capsys.readouterr().err


def test_readme_examples_parse():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = text.split("```")[1::2]
    lines = [
        line for block in blocks for line in block.splitlines() if line.startswith("lpcuntz ")
    ]
    assert len(lines) == 11
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])


def test_readme_flag_table_matches_parser():
    # every row of the README flag table lists exactly the flags its
    # subcommands take, besides --format and --out, which all take
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("| subcommand | flags |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    parser = build_parser()
    subparsers = next(
        action.choices for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    seen = set()
    for row in table.splitlines():
        names, flags = row.strip("|").split("|", 1)
        listed = {"--format", "--out"} | {
            token.split()[0] for token in re.findall(r"`([^`]*)`", flags) if token.startswith("-")
        }
        for name in re.findall(r"`([^`]*)`", names):
            sub = subparsers[name]
            taken = {action for action in sub._actions if action.option_strings} - {
                sub._option_string_actions["-h"]
            }
            assert {sub._option_string_actions.get(flag) for flag in listed} == taken, name
            seen.add(name)
    assert seen == set(subparsers)


@pytest.mark.parametrize(
    "content",
    [
        {},
        [1, 2],
        {
            "source": {"atoms": ["x"], "weights": [1.0]},
            "target": {"atoms": ["y"], "weights": [1.0]},
            "p": "3",
            "entries": [[{"re": 1.0}]],
        },
    ],
    ids=["empty-object", "top-level-list", "entry-without-im"],
)
def test_malformed_matrix_json_exit_code(tmp_path, capsys, content):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(content))
    for extra in ((), ("--p", "3")):
        code, out, err = run(capsys, "lamperti", str(path), *extra)
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
    code, out, _ = run(capsys, *args, "--format", "csv")  # the last --format wins
    csv = out.splitlines()
    assert code == 0
    assert csv[0] == "level,lower_bound,converged"
    assert len(csv) == 4


@pytest.mark.parametrize("rep", ["sequence", "interval"])
def test_norm_json_at_large_p_is_finite(capsys, rep):
    # |100|^160 overflows a double: the norm must not print inf, and the
    # JSON must not hold the invalid constant Infinity
    def reject(constant):
        raise ValueError(f"{constant} in norm JSON")

    code, out, _ = run(
        capsys, "norm", "--rep", rep, "-d", "2", "--p", "160", "--nmax", "2",
        "--format", "json", "100*s1 + t1",
    )
    assert code == 0
    values = [row["lower_bound"] for row in json.loads(out, parse_constant=reject)["levels"]]
    assert all(0.0 < v <= 101.0 * (1 + 1e-12) for v in values)
    if rep == "sequence":
        assert values == pytest.approx([101.0, 101.0], rel=1e-12)


def test_compare_reps_degree_zero_agreement(capsys):
    # the norm of a degree-0 element is the same in both models at every level
    code, out, _ = run(
        capsys, "compare-reps", "--rep", "interval", "--rep", "sequence", "-d", "2",
        "--p", "3", "--nmax", "3", "--format", "json", "s1*t2 + s2*t1",
    )
    assert code == 0
    interval, sequence = json.loads(out)["profiles"]
    assert interval["levels"] == sequence["levels"] == [1, 2, 3]
    for a, b in zip(interval["lower_bounds"], sequence["lower_bounds"]):
        assert abs(a - b) < 1e-6


def test_verify_pass_and_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "skew-table")
    assert code == 0 and "PASS" in out
    code, _, err = run(capsys, "verify", "no-such-suite")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("skew-table", "--cases", "5", "--level", "9", "-d", "3", "--atoms", "2"),
        ("skew-table", "--cases", "5"),
        ("symbolic", "--level", "2"),
        ("measure", "-d", "3"),
        ("spatial-identities", "--atoms", "2"),
        ("relations", "--level", "1", "--cases", "3"),
        ("lamperti", "--cases", "3", "--level", "2"),
        ("lamperti", "--cases", "3", "-d", "3"),
        ("calculus", "--cases", "3", "--atoms", "2"),
    ],
)
def test_verify_rejects_flags_the_suite_does_not_read(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == "" and "does not read" in err


def test_verify_accepts_flags_the_suite_reads(capsys):
    for argv in (
        ("relations", "-d", "2", "--level", "1", "--atoms", "2"),
        ("lamperti", "--cases", "3", "--atoms", "4"),
        ("calculus", "--cases", "3"),
    ):
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 0 and "FAIL" not in out


def test_verify_all_small(capsys):
    code, out, _ = run(
        capsys, "verify", "all", "--cases", "20", "--atoms", "4", "--level", "2",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["checks"]) == 91 and data["failed"] == 0


def test_verify_spatial_identities_covers_both_models(capsys):
    runs = [
        run(capsys, "verify", "spatial-identities", "--format", "json") for _ in range(2)
    ]
    assert runs[0] == runs[1]  # byte-identical for identical config
    code, out, _ = runs[0]
    data = json.loads(out)
    assert code == 0 and data["failed"] == 0
    assert [c["name"] for c in data["checks"]] == [
        f"{identity}[{model}, p={p}]"
        for p in ("1.5", "3")
        for model in ("interval", "sequence")
        for identity in ("s-lambda-isometry", "t-gamma-norm")
    ]


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


def test_lamperti_reads_the_output_of_eval(tmp_path, capsys):
    path = tmp_path / "s1.json"
    code, _, _ = run(
        capsys, "eval", "-d", "2", "--rep", "interval", "--level", "2", "s1",
        "--format", "json", "--out", str(path),
    )
    assert code == 0 and "matrix" in json.loads(path.read_text())
    code, out, _ = run(capsys, "lamperti", str(path))
    assert code == 0 and out.startswith("accepted: spatial")


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_lamperti_rejects_a_non_finite_entry(tmp_path, capsys, bad):
    # Python's json writes and reads Infinity and NaN; an operator with
    # such an entry is bad input (exit 2), not a zero that detect accepts
    space = lp.FiniteMeasureSpace(["a", "b"], [1.0, 1.0])
    data = matrix_to_json(lp.OperatorMatrix(space, space, 3.0, np.eye(2)), p_text="3")
    data["entries"][0][0] = {"re": bad, "im": 0.0}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "lamperti", str(path))
    assert (code, out) == (2, "") and "non-finite entry" in err
    data["entries"][0][0] = {"re": 1.0, "im": bad}
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "lamperti", str(path))
    assert (code, out) == (2, "") and "non-finite entry" in err


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


def test_compare_reps_spatial_lower_bound(capsys):
    reps = ("interval", "sequence", "fourier:sequence", "dual:interval")

    def compare(p, *descriptors):
        argv = ["compare-reps", "-d", "2", "--p", p, "--nmax", "4", "--format", "json"]
        for descriptor in descriptors:
            argv += ["--rep", descriptor]
        code, out, _ = run(capsys, *argv, "s1 + t1")
        assert code == 0
        return out

    out = compare("3", *reps)
    assert compare("3", *reps) == out  # byte-identical for identical config
    data = json.loads(out)
    # e_1 is fixed by both s1 and t1, so sequence attains the norm at level 1
    assert data["lower_bound"] == {"value": 2.0, "rep": "sequence", "level": 1}
    profiles = {prof["rep"]: prof for prof in data["profiles"]}
    assert profiles["fourier:sequence"]["spatial"] is False
    # the dual model runs at the conjugate exponent and never counts
    assert profiles["dual:interval"]["p"] == 1.5
    for p in ("3", "2"):
        for descriptor in reps:
            code, out, _ = run(
                capsys, "report-spatiality", "-d", "2", "--p", p, "--rep", descriptor,
                "--format", "json",
            )
            spatial = json.loads(out)["conditions"]["spatial"]["value"]
            profile = json.loads(compare(p, descriptor))["profiles"][0]
            assert profile["spatial"] is spatial
    data = json.loads(compare("2", "fourier:sequence"))
    assert data["profiles"][0]["spatial"] is None and data["lower_bound"] is None
    assert json.loads(compare("3", "fourier:sequence", "fourier:interval"))["lower_bound"] is None
    # a spatial dual at the conjugate exponent still gives no bound at p
    data = json.loads(compare("3", "dual:interval"))
    assert data["profiles"][0]["spatial"] is True and data["lower_bound"] is None


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
