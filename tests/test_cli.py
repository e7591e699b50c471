"""Command line behavior: formats, exit codes, determinism of outputs."""

import io
import json
import os
import re
import subprocess
import sys
import warnings

import pytest

from dualgeo import DualGeoError, verify
from dualgeo.cli import build_parser, main
from dualgeo.config import MAX_QUAD_NODES
from dualgeo.manifold import parse_model_spec

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


@pytest.mark.parametrize("p", ["nan,0.2", "0,0.2"])
def test_div_refuses_mixture_coordinates_outside_the_open_simplex(capsys, p):
    # nan,0.2 used to pass as a nan,nan row with exit 3
    argv = ["div", "--model", "categorical:2", "--coords", "mixture", "-p", p, "-q", "0.2,0.2"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: mixture coordinates must be strictly positive with sum < 1"]


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


def test_div_batch_pairs(capsys):
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
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    vals = [float(line.split(",")[-3]) for line in lines[1:]]
    assert vals == [0.5, 2.0]


_COMMANDS = {
    "div": ["div", "--model", "euclidean:2", "-p", "0,0", "-q", "1,0"],
    "sweep": ["sweep", "--model", "euclidean:2", "--kind", "ay", "-p", "0,0",
              "--grid", "0:1:2,0:1:2"],
    "probe-f": ["probe-f", "--model", "euclidean:2", "--samples", "10"],
}


@pytest.mark.parametrize(
    "command, option",
    [("div", "threads"), ("sweep", "threads"), ("probe-f", "threads"), ("div", "seed"),
     ("sweep", "seed")],
)
def test_removed_options_are_rejected(capsys, command, option):
    # the thread count never had an effect, and div and sweep sample nothing;
    # argparse rejects an unknown option with exit status 2
    with pytest.raises(SystemExit) as exc:
        main(_COMMANDS[command] + [f"--{option}", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_the_parser_is_built_once_and_reused(capsys):
    assert build_parser() is build_parser()
    argv = ["div", "--model", "euclidean:2", "--kind", "ay", "-p", "0,0", "-q", "1,0", "-q", "0,2"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


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
        ["div", "--model", "euclidean:2", "-p", "0,0", "-q", "3,4", "--tol-ode", "inf"],
        ["div", "--model", "euclidean:2", "-p", "0,0", "-q", "3,4", "--tol-shoot", "inf"],
        ["div", "--model", "euclidean:2", "-p", "0,0", "-q", "3,4", "--fd-step", "inf"],
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
        # p + h == p: each first-order pair collapses onto the diagonal
        ["verify", "--model", "categorical:2", "--suite", "eguchi", "--samples", "1",
         "--fd-step", "1e-300"],
        # q + h == q: a gradient's or a curvature's central difference would read 0
        ["verify", "--model", "categorical:2", "--suite", "gradient", "--samples", "1",
         "--fd-step", "1e-40"],
        ["verify", "--model", "sphere:2", "--suite", "classification", "--samples", "1",
         "--fd-step", "1e-300"],
        # v + h == v, and a step the floats span 2h off: a shooting Jacobian would
        # read 0 or a wrong column, where the row used to read NaN (exit 3)
        ["div", "--model", "sphere:2", "--kind", "canonical", "-p", "1.2,0.1", "-q", "1.6,0.5",
         "--fd-step", "1e-40"],
        ["div", "--model", "sphere:2", "--kind", "canonical", "-p", "1.2,0.1", "-q", "1.6,0.5",
         "--fd-step", "4e-17"],
        # the symmetry probe skips a target that fails, but not bad input
        ["verify", "--model", "sphere:2", "--suite", "symmetry", "--seed", "7", "--fd-step", "1e-40"],
        # counts over their bounds, all rejected before anything is allocated
        ["div", "--model", "euclidean:2", "-p", "0,0", "-q", "3,4", "--quad-nodes", str(10**11)],
        ["div", "--model", "euclidean:2", "-p", "0,0", "-q", "3,4", "--quad-nodes", "1025"],
        ["verify", "--model", "euclidean:2", "--suite", "collapse", "--quad-nodes", str(10**11)],
        ["sweep", "--model", "euclidean:2", "--kind", "ay", "-p", "0,0",
         "--grid", f"0:1:{10**11},0:1:1"],
        ["sweep", "--model", "euclidean:2", "--kind", "ay", "-p", "0,0",
         "--grid", "0:1:1000,0:1:1000"],
        ["verify", "--model", "euclidean:2", "--suite", "collapse", "--samples", str(10**11)],
        ["verify", "--model", "euclidean:2", "--suite", "collapse", "--samples", "1001"],
        ["probe-f", "--model", "euclidean:2", "--samples", str(10**11)],
        ["probe-f", "--model", "euclidean:2", "--samples", "1001"],
        # float(True) is 1.0: a JSON bool used to build a model
        ["div", "--model", '{"name": "euclidean", "params": [true]}', "-p", "0", "-q", "1"],
        ["div", "--model", '{"name": "sphere", "params": [2, true]}', "-p", "1,0", "-q", "1,1"],
        ["div", "--model", '{"name": "alpha_categorical", "params": [2, false]}',
         "-p", "0.3,0.3", "-q", "0.2,0.4"],
        ["div", "--model", "euclidean:2", "-p", "0,0", "-p", "1,1", "-p", "2,2",
         "-q", "1,1", "-q", "2,2"],
        ["div", "--model", "euclidean:2", "--coords", "mixture", "-p", "0.1,0.2", "-q", "0.2,0.1"],
        ["div", "--model", "euclidean", "-p", "0", "-q", "1"],
        ["div", "--model", "euclidean:2:3", "-p", "0,0", "-q", "1,1"],
        ["div", "--model", "sphere:2:1:4", "-p", "1,0", "-q", "1,1"],
        ["div", "--model", "alpha_categorical:2:0.5:1", "-p", "0.3,0.3", "-q", "0.2,0.4"],
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
        "inf-ode-tolerance",
        "inf-shoot-tolerance",
        "inf-fd-step",
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
        "verify-fd-step-collapses-the-stencil",
        "verify-gradient-fd-step-does-not-move-the-point",
        "verify-curvature-fd-step-does-not-move-the-point",
        "div-shooting-fd-step-does-not-move-the-shot",
        "div-shooting-fd-step-spans-2h-off",
        "verify-symmetry-shooting-fd-step-does-not-move-the-shot",
        "div-quad-nodes-huge",
        "div-quad-nodes-above-bound",
        "verify-quad-nodes-huge",
        "sweep-grid-count-huge",
        "sweep-grid-cells-above-bound",
        "verify-samples-huge",
        "verify-samples-above-bound",
        "probe-f-samples-huge",
        "probe-f-samples-above-bound",
        "json-param-true-dimension",
        "json-param-true-radius",
        "json-param-false-alpha",
        "div-unequal-p-and-q",
        "div-mixture-coordinates-without-a-chart",
        "euclidean-without-dimension",
        "euclidean-extra-parameter",
        "sphere-extra-parameter",
        "alpha-categorical-extra-parameter",
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
        # the document is written, then the skip quota sets the exit code
        assert out.splitlines() == ["index,dual_divergence,reversed_divergence"]
        assert err.splitlines() == ["rank_agreement=1.000000 skipped=10/10"]


def test_recovery_stencil_overflow_is_a_failure_exit_1(capsys):
    # the stencil's distances and values overflow: the near-diagonal check
    # stays quiet, and the value is an error, never a numpy warning
    argv = ["verify", "--model", "euclidean:1", "--suite", "eguchi", "--fd-step", "1e300"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")


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


@pytest.mark.parametrize("dim", [33, 100])
def test_sweep_takes_every_dimension_a_model_may_have(capsys, dim):
    # more grid axes than np.meshgrid takes
    zeros = ",".join(["0"] * dim)
    grid = ",".join(["0:1:1"] * dim)
    assert main(["sweep", "--model", f"euclidean:{dim}", "--kind", "ay", "-p", zeros,
                 "--grid", grid]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[1] == zeros + ",0,True"


def test_quad_nodes_at_the_bound_takes_the_node_doubling_check(capsys):
    # verify's collapse suite doubles the nodes: the bound leaves room for it
    argv = ["verify", "--model", "euclidean:2", "--suite", "collapse", "--samples", "1",
            "--quad-nodes", str(MAX_QUAD_NODES)]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert "quadrature_node_doubling" in [c["check_id"] for c in report["checks"]]


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


@pytest.mark.parametrize("spec", ["sphere:2", "alpha_categorical:2:0.5"])
@pytest.mark.parametrize("command", ["div", "sweep"])
def test_oracle_of_a_model_without_one_is_bad_input_before_any_row(capsys, tmp_path, spec, command):
    # before, sweep wrote nan,False rows and exited 0, and div a nan row and exit 3
    out = tmp_path / "rows.csv"
    where = ["-q", "0.4,0.2"] if command == "div" else ["--grid", "0.3:0.4:2,0.2:0.3:2"]
    argv = [command, "--model", spec, "--kind", "oracle", "-p", "0.3,0.3", *where]
    assert main(argv + ["--output", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: --kind oracle: {parse_model_spec(spec).spec_string} has no closed-form divergence"
    ]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--model", "euclidean:17", "--suite", "eguchi"],
         "the eguchi and classification suites take dimension at most 16, not euclidean:17"),
        (["verify", "--model", "euclidean:2", "--suite", "collapse", "--samples", "0"],
         "verify needs between 1 and 1000 samples"),
        (["div", "--model", "euclidean:2", "-p", "0,0,0", "-q", "1,1"],
         "point '0,0,0' has 3 coordinates; model needs 2"),
        (["verify", "--model", "euclidean:2", "--suite", "collapse", "--samples", "1"],
         "a suite failed"),
    ],
    ids=["verify-refused-dimension", "verify-refused-samples", "div-refused-point", "verify-suite-raises"],
)
@pytest.mark.parametrize("existing", [True, False], ids=["existing", "missing"])
def test_a_refused_or_failed_command_leaves_its_output_as_it_was(
    capsys, monkeypatch, tmp_path, argv, message, existing
):
    # verify used to truncate --output before run_suites made its refusals,
    # and to leave an empty file where there was none
    def failing(*args):
        raise DualGeoError("a suite failed")

    monkeypatch.setitem(verify.SUITES, "collapse", failing)
    out = tmp_path / "r.json"
    if existing:
        out.write_bytes(b"keep\r\n")
    assert main(argv + ["--output", str(out)]) == (1 if message == "a suite failed" else 2)
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    if existing:
        assert out.read_bytes() == b"keep\r\n"
    else:
        assert not out.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("to_stdout", [False, True], ids=["output", "stdout"])
@pytest.mark.parametrize(
    "argv",
    [
        ["div", "--model", "euclidean:2", "-p", "0,0", "-q", "1,1"],
        ["verify", "--model", "euclidean:2", "--suite", "collapse", "--samples", "1"],
        ["probe-f", "--model", "euclidean:2", "--samples", "10"],
    ],
    ids=["div", "verify", "probe-f"],
)
def test_a_write_that_fails_is_exit_1_with_one_error_line(argv, to_stdout):
    # each ended in a traceback from an OSError: No space left on device, and
    # verify and probe-f then printed their success summary before the error
    with open("/dev/full", "w") as full:
        r = subprocess.run(
            [sys.executable, "-m", "dualgeo.cli", *argv, *([] if to_stdout else ["--output", "/dev/full"])],
            stdout=full if to_stdout else subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    where = "stdout" if to_stdout else "--output '/dev/full'"
    assert r.returncode == 1
    assert r.stderr.splitlines() == [f"error: cannot write {where}: No space left on device"]


def test_verify_prints_its_summary_only_after_its_report_is_written(monkeypatch, tmp_path):
    out = tmp_path / "report.json"
    seen = []

    class Stderr(io.StringIO):
        def write(self, text):
            seen.append(out.read_text() if out.exists() else None)
            return super().write(text)

    stderr = Stderr()
    monkeypatch.setattr(sys, "stderr", stderr)
    argv = ["verify", "--model", "euclidean:2", "--suite", "collapse", "--samples", "1"]
    assert main(argv + ["--output", str(out)]) == 0
    assert json.loads(out.read_text())["overall_pass"] is True
    assert re.fullmatch(r"suite collapse: pass in \d+\.\ds\n", stderr.getvalue())
    assert seen and all(text == out.read_text() for text in seen)


@pytest.mark.parametrize(
    "argv",
    [
        ["div", "--model", "nosuch:1", "-p", "0", "-q", "1"],
        ["div", "--model", "euclidean:2", "-p", "0,x", "-q", "1,1"],
    ],
    ids=["unknown-model", "malformed-point"],
)
def test_output_is_checked_before_every_other_argument(capsys, argv):
    assert main(argv + ["--output", "/nonexistent/x.csv"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: cannot open --output '/nonexistent/x.csv': No such file or directory"
    ]
