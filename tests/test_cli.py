"""Command line behavior: formats, exit codes, determinism of outputs."""

import json
import subprocess
import sys
import warnings

import pytest

from dualgeo.cli import main

KL_FORWARD = 0.5108256237659907


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "dualgeo.cli", *args], capture_output=True, text=True
    )


def test_models_lists_all(capsys):
    assert main(["models"]) == 0
    out = capsys.readouterr().out
    for name in ("euclidean", "sphere", "categorical", "gaussian1d", "alpha_categorical"):
        assert name in out


def test_models_json_schema(capsys):
    assert main(["models", "--format", "json"]) == 0
    schema = json.loads(capsys.readouterr().out)
    assert set(schema) == {"euclidean", "sphere", "categorical", "gaussian1d", "alpha_categorical"}
    assert schema["categorical"]["dually_flat"] is True


def test_unknown_subcommand_exits_with_usage():
    r = run_cli(["frobnicate"])
    assert r.returncode == 2
    assert "usage" in r.stderr.lower()


def test_div_euclidean_value(capsys):
    assert main(["div", "--model", "euclidean:2", "--kind", "ay", "-p", "0,0", "-q", "3,4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("kind,p,q,value")
    assert lines[1].split(",")[-3] == "12.5"


def test_div_csv_is_rfc4180(capsys):
    assert main(["div", "--model", "euclidean:2", "--kind", "ay", "-p", "0,0", "-q", "3,4"]) == 0
    raw = capsys.readouterr().out
    assert "\r\n" in raw
    assert '"0,0"' in raw  # comma-bearing fields are quoted


def test_div_value_round_trips_17_digits(capsys):
    assert main(
        ["div", "--model", "sphere:2:1", "--kind", "canonical", "-p", "1.2,-0.3", "-q", "1.6,0.4"]
    ) == 0
    line = capsys.readouterr().out.splitlines()[1]
    text_value = line.split(",")[-3]
    from dualgeo import canonical_divergence, make_builtin

    sp = make_builtin("sphere", [2, 1.0])
    exact = canonical_divergence(sp, sp.point([1.2, -0.3]), sp.point([1.6, 0.4]))
    assert float(text_value) == exact


def test_div_mixture_coordinates_dual_kind(capsys):
    # dual divergence from the uniform to (0.9, 0.1) equals the classic KL sum
    code = main(
        [
            "div",
            "--model",
            "categorical:1",
            "--kind",
            "dual",
            "--coords",
            "mixture",
            "-p",
            "0.5",
            "-q",
            "0.9",
        ]
    )
    assert code == 0
    value = float(capsys.readouterr().out.splitlines()[1].split(",")[-3])
    assert abs(value - KL_FORWARD) < 1e-6


def test_div_pseudonorm_identical_points(capsys):
    assert main(
        ["div", "--model", "categorical:1", "--kind", "pseudonorm", "-p", "0.3", "-q", "0.3"]
    ) == 0
    value = float(capsys.readouterr().out.splitlines()[1].split(",")[-3])
    assert value == 0.0


def test_div_json_records(capsys):
    assert main(
        [
            "div",
            "--model",
            "euclidean:2",
            "--kind",
            "canonical",
            "-p",
            "0,0",
            "-q",
            "1,1",
            "--format",
            "json",
        ]
    ) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["converged"] is True
    assert abs(rec["value"] - 1.0) < 1e-12
    assert rec["quad_nodes"] == 32


def test_div_batch_pairs_and_threads(capsys):
    code = main(
        [
            "div",
            "--model",
            "euclidean:2",
            "--kind",
            "ay",
            "-p",
            "0,0",
            "-q",
            "1,0",
            "-q",
            "0,2",
            "--threads",
            "2",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    vals = [float(line.split(",")[-3]) for line in lines[1:]]
    assert vals == [0.5, 2.0]


def test_div_invalid_model_exit_2(capsys):
    assert main(["div", "--model", "nosuch:1", "--kind", "ay", "-p", "0", "-q", "1"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["div", "--model", "euclidean:2", "-p", "0,x", "-q", "3,4"],
        ["div", "--model", "euclidean:2", "-p", "0,0", "-q", "3,4", "--quad-nodes", "0"],
        ["div", "--model", "{bad", "-p", "0,0", "-q", "3,4"],
        ["sweep", "--model", "euclidean:2", "--kind", "ay", "-p", "0,0", "--grid", "0:1:x,0:1:2"],
        ["verify", "--quad-nodes", "0"],
        ["verify", "--model", "euclidean:2", "--suite", "collapse", "--samples", "0"],
        ["div", "--model", "sphere:nan", "-p", "1,0", "-q", "1,1"],
        ["div", "--model", '{"name": "euclidean", "params": 2}', "-p", "0,0", "-q", "3,4"],
        ["div", "--model", "euclidean:2", "-p", "0,0", "-q", "3,4", "--tol-ode", "nan"],
        ["div", "--model", '{"name": "euclidean", "params": "2"}', "-p", "0,0", "-q", "3,4"],
        ["probe-f", "--model", "euclidean:2", "--samples", "10", "-p=nan,0"],
        ["sweep", "--model", "euclidean:2", "--kind", "ay", "-p=nan,0", "--grid", "0:1:2,0:1:2"],
        ["sweep", "--model", "euclidean:2", "--kind", "ay", "-p", "0,0", "--grid", "0:inf:2,0:1:2"],
        ["verify", "--model", "euclidean:2", "--suite", "classification", "--seed=-1"],
        ["probe-f", "--model", "euclidean:2", "--samples", "10", "--seed=-1"],
        ["verify", "--model", "sphere:2:1e-200", "--suite", "classification"],
        ["div", "--model", "sphere:2:1e-200", "-p", "1,0", "-q", "1,1"],
        ["verify", "--model", "sphere:2:1e160", "--suite", "classification"],
        ["div", "--model", "sphere:2:1e160", "-p", "1,0", "-q", "1,1"],
        ["div", "--model", "euclidean:1e9", "-p", "0", "-q", "1"],
        ["div", "--model", "euclidean:1e300", "-p", "0", "-q", "1"],
        ["div", "--model", "categorical:101", "-p", ",".join("0" * 101), "-q", ",".join("1" * 101)],
        ["div", "--model", "euclidean:2", "--kind", "ay", "-p", "0,0", "-q", "3,4",
         "--output", "/nonexistent/x.csv"],
        ["div", "--model", "euclidean:2", "--kind", "ay", "-p", "0,0", "-q", "3,4",
         "--output", "."],
        ["sweep", "--model", "euclidean:2", "--kind", "ay", "-p", "0,0", "--grid", "0:1:2,0:1:2",
         "--output", "/nonexistent/x.csv"],
        ["probe-f", "--model", "euclidean:2", "--samples", "10", "--output", "."],
        ["verify", "--output", "/nonexistent/x.json"],
        ["verify", "--model", "categorical:2", "--suite", "eguchi", "--samples", "1",
         "--fd-step", "1e-12"],
    ],
    ids=[
        "div-number",
        "div-quad-nodes",
        "div-json",
        "sweep-grid",
        "verify-quad-nodes",
        "verify-samples",
        "nan-dimension",
        "json-params",
        "nan-tolerance",
        "json-params-string",
        "probe-f-point-outside",
        "sweep-point-outside",
        "sweep-grid-infinite",
        "verify-seed-negative",
        "probe-f-seed-negative",
        "verify-radius-square-underflows",
        "div-radius-square-underflows",
        "verify-radius-square-overflows",
        "div-radius-square-overflows",
        "dimension-huge",
        "dimension-overflows-numpy",
        "dimension-above-bound",
        "div-output-missing-directory",
        "div-output-is-a-directory",
        "sweep-output-missing-directory",
        "probe-f-output-is-a-directory",
        "verify-output-missing-directory",
        "verify-fd-step-below-near-diagonal",
    ],
)
def test_malformed_input_exits_2_with_message(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err and err[-1].startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["div", "--model", "euclidean:2", "--kind", "ay", "-p=1e308,0", "-q=-1e308,0"],
        ["probe-f", "--model", "euclidean:2", "--samples", "10", "-p=1e200,0"],
    ],
    ids=["div-overflow", "probe-f-overflow"],
)
def test_non_finite_value_is_a_failure_exit_3(capsys, argv):
    # a value that overflows is never reported as converged, and numpy stays quiet
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 3
    out, err = capsys.readouterr()
    if argv[0] == "div":
        assert out.splitlines()[1].endswith(",nan,32,False")
        assert err == ""
    else:
        assert err.splitlines() == ["error: symmetry probe skipped 10/10 targets (> 20%)"]


def test_div_failed_pair_flagged_exit_3(capsys):
    code = main(
        ["div", "--model", "sphere:2:1", "--kind", "ay", "-p", "1.2,0", "-q", "0.05,0"]
    )
    assert code == 3
    line = capsys.readouterr().out.splitlines()[1]
    assert line.split(",")[-1] == "False"
    assert "nan" in line


def test_sweep_single_cell_matches_div(capsys):
    assert main(
        [
            "sweep",
            "--model",
            "euclidean:2",
            "--kind",
            "ay",
            "-p",
            "0,0",
            "--grid",
            "3:3:1,4:4:1",
        ]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "q1,q2,ay,converged"
    row = lines[1].split(",")
    assert float(row[2]) == 12.5
    assert row[3] == "True"


def test_sweep_grid_shape_and_boundary_flagging(capsys):
    code = main(
        [
            "sweep",
            "--model",
            "gaussian1d:2",
            "--kind",
            "canonical",
            "-p",
            "0,-0.5",
            "--grid=-0.5:0.5:3,-0.8:0.2:3",
        ]
    )
    assert code == 0  # out-of-domain cells are flagged, not fatal
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 9
    flags = [line.split(",")[-1] for line in lines[1:]]
    assert "False" in flags and "True" in flags


def test_sweep_json_rows(capsys):
    assert main(
        [
            "sweep",
            "--model",
            "euclidean:2",
            "--kind",
            "ay",
            "--kind",
            "pseudonorm",
            "-p",
            "0,0",
            "--grid",
            "1:1:1,1:2:2",
            "--format",
            "json",
        ]
    ) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 2
    assert abs(rows[0]["ay"] - 1.0) < 1e-12
    assert abs(rows[0]["pseudonorm"] - 2.0) < 1e-12


def test_probe_f_categorical(capsys):
    code = main(
        [
            "probe-f",
            "--model",
            "categorical:1",
            "--samples",
            "12",
            "--seed",
            "3",
            "--format",
            "json",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rank_agreement"] == 1.0
    assert doc["max_equality_error"] <= 1e-6
    assert len(doc["pairs"]) == 12


def test_probe_f_requires_ten_samples(capsys):
    assert main(["probe-f", "--model", "categorical:1", "--samples", "5"]) == 2


def test_verify_single_suite_pass(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "verify",
            "--model",
            "categorical:2",
            "--suite",
            "collapse",
            "--samples",
            "8",
            "--seed",
            "7",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["overall_pass"] is True
    assert doc["suite"] == "collapse"
    ids = {c["check_id"] for c in doc["checks"]}
    assert "closed_form_oracle_rel" in ids
    for c in doc["checks"]:
        assert set(c) == {"check_id", "max_error", "tolerance", "passed", "samples"}


def test_verify_unknown_suite_exit_2():
    r = run_cli(["verify", "--suite", "bogus"])
    assert r.returncode == 2


def test_gaussian1d_domain_ends_before_the_theta2_collar(capsys):
    # the fields clip theta2 at -100; beyond the domain's -50 no point sees the clip
    argv = ["div", "--model", "gaussian1d", "--kind", "canonical", "-p=0,-200", "-q=0,-150"]
    assert main(argv) == 3
    assert capsys.readouterr().out.splitlines()[1].endswith(",nan,32,False")
    values = {}
    for kind in ("canonical", "oracle"):
        assert main(["div", "--model", "gaussian1d", "--kind", kind, "-p=1,-40", "-q=-1,-45"]) == 0
        values[kind] = float(capsys.readouterr().out.splitlines()[1].split(",")[-3])
    assert abs(values["canonical"] - values["oracle"]) <= 1e-6 * values["oracle"]
