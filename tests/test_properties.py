"""Property tests: dualization, divergence signs and the CLI exit-code contract."""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualgeo import ConnectionKind, DivergenceKind
from dualgeo.cli import main
from dualgeo.divergence import _divergence_many

ALL = ["euclidean", "sphere", "categorical", "gaussian1d", "alpha_categorical"]
DUALLY_FLAT = ["categorical", "gaussian1d"]
SETTINGS = settings(deadline=None, max_examples=100, derandomize=True, database=None)


def unit_points(count, dim=3):
    """`count` points of the unit cube, mapped into a safe box by `in_box`."""
    return st.lists(
        st.lists(st.floats(0.0, 1.0), min_size=dim, max_size=dim),
        min_size=count,
        max_size=count,
    ).map(np.array)


def in_box(model, U):
    box = model.safe_box
    return box[:, 0] + U[:, : model.dim] * (box[:, 1] - box[:, 0])


@SETTINGS
@given(name=st.sampled_from(ALL), U=unit_points(4))
def test_dualized_twice_gives_back_the_model(models, name, U):
    model = models[name]
    back = model.dualized().dualized()
    X = in_box(model, U)
    for kind in ConnectionKind:
        assert np.array_equal(back.christoffel_batch(X, kind), model.christoffel_batch(X, kind))
    assert back.flat_kinds == model.flat_kinds
    if model.oracle_fn is not None:
        for p, q in zip(X[:-1], X[1:]):
            assert back.oracle_fn(p, q) == model.oracle_fn(p, q)


@SETTINGS
@given(
    name=st.sampled_from(DUALLY_FLAT),
    kind=st.sampled_from([DivergenceKind.CANONICAL, DivergenceKind.AY]),
    U=unit_points(2),
    # the second point is the first moved by this fraction of the box, so that
    # pairs on both sides of the near-diagonal guard come up
    scale=st.sampled_from([1.0, 1e-2, 1e-4, 2e-6, 1e-6, 5e-7, 1e-9]),
)
def test_divergence_is_nonnegative_and_zero_on_the_diagonal(models, cfg, name, kind, U, scale):
    model = models[name]
    box = model.safe_box
    X = in_box(model, U)
    p = X[:1]
    q = np.clip(p + scale * (X[1:] - box[:, 0]), box[:, 0], box[:, 1])
    on_diagonal = _divergence_many(model, kind, np.vstack([p, q]), np.vstack([p, q]), cfg)
    assert np.array_equal(on_diagonal, np.zeros(2))
    if not np.array_equal(p, q):
        assert _divergence_many(model, kind, p, q, cfg)[0] >= 0.0


# text that is often a number list and sometimes anything at all; model text is
# short so that no spec can name a large dimension
NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-5, 5).map(str),
    st.text(max_size=4),
)
POINT = st.lists(NUMBER, min_size=0, max_size=3).map(",".join)
MODEL = st.one_of(
    st.sampled_from(["euclidean:2", "categorical:2", "{", '{"name": 2}', '{"params": []}']),
    st.text(max_size=12),
)
QUAD = st.one_of(st.integers(-3, 40).map(str), st.text(max_size=4))


@settings(SETTINGS, max_examples=300)
@given(
    model=MODEL,
    kind=st.sampled_from(["ay", "canonical", "dual", "pseudonorm", "oracle"]),
    p=POINT,
    q=POINT,
    quad=st.none() | QUAD,
)
def test_div_on_fuzzed_text_exits_with_a_documented_code(model, kind, p, q, quad):
    # only models whose every requested kind is closed form are cheap to fuzz:
    # euclidean answers all kinds exactly, anything else gets the oracle
    if model != "euclidean:2":
        kind = "oracle"
    argv = ["div", f"--model={model}", f"--kind={kind}", f"-p={p}", f"-q={q}"]
    if quad is not None:
        argv.append(f"--quad-nodes={quad}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
