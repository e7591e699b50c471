"""Property tests: dualization, divergence signs and the CLI exit-code contract."""

import contextlib
import io

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dualgeo import ConnectionKind, DivergenceKind, sample_pairs
from dualgeo.cli import _load_model, main
from dualgeo.divergence import _divergence_many
from dualgeo.errors import InvalidModelSpec
from dualgeo.verify import MAX_RECOVERY_DIM

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
    st.sampled_from(
        ["euclidean:2", "categorical:2", "gaussian1d", "{", '{"name": 2}', '{"params": []}']
    ),
    st.text(max_size=12),
)


def closed_form_kinds(model):
    """The kinds a model answers without shooting or integrating: ay and the
    pseudo-norm when both connections have plane sections (logs and geodesic
    states are closed form there), the canonical kinds when both sections are
    linear (transport is closed form only there), and the oracle when the
    model carries one. Emptying `plane_sections` leaves only the oracle."""
    sections = [model.plane_sections.get(kind) for kind in ConnectionKind]
    curves = all(s is not None for s in sections)
    routes = {
        DivergenceKind.AY: curves,
        DivergenceKind.PSEUDO_NORM: curves,
        DivergenceKind.CANONICAL: curves and all(s.linear for s in sections),
        DivergenceKind.ORACLE_KL: model.oracle_fn is not None,
    }
    routes[DivergenceKind.CANONICAL_DUAL] = routes[DivergenceKind.CANONICAL]
    return [k for k in DivergenceKind if routes[k]]


BUILTIN_SPECS = ["euclidean:1", "euclidean:3", "sphere:2", "categorical:2", "categorical:5",
                 "gaussian1d", "alpha_categorical:2:0.5", "alpha_categorical:3:0"]


@settings(SETTINGS, max_examples=200)
@given(
    spec=st.sampled_from(BUILTIN_SPECS),
    kind=st.sampled_from(list(DivergenceKind)),
    seed=st.integers(0, 2**32 - 1),
    # rows into a pool of six pairs: any batch size and order, with duplicates
    rows=st.lists(st.integers(0, 5), min_size=1, max_size=24),
)
def test_a_closed_form_value_does_not_depend_on_the_batch(cfg, spec, kind, seed, rows):
    model = _load_model(spec)
    assume(kind in closed_form_kinds(model))
    P, Q = sample_pairs(model, 6, np.random.default_rng(seed))
    batch = _divergence_many(model, kind, P[rows], Q[rows], cfg)
    alone = np.array([_divergence_many(model, kind, P[i : i + 1], Q[i : i + 1], cfg)[0] for i in rows])
    assert batch.view(np.uint64).tolist() == alone.view(np.uint64).tolist()  # bit for bit


CLOSED_FORM = ("euclidean:2", "categorical:2", "gaussian1d")
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
    # only models whose every requested kind is closed form are cheap to fuzz;
    # anything else gets the oracle
    if model not in CLOSED_FORM:
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


def assert_documented_exit(argv, codes=(0, 2, 3)):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in codes, (argv, err.getvalue())
    return err.getvalue()


def mostly(good, bad):
    """`good` four times in five, else `bad`."""
    return st.sampled_from([good] * 4 + [bad]).flatmap(lambda strategy: strategy)


# sweep and probe-f evaluate nothing until model, point and grid are all
# valid, so each part is mostly well formed: small coordinates, two axes with
# a count of 1-3, and now and then a non-finite number or any text at all
SMALL = mostly(st.floats(-2.0, 2.0).map(repr), st.sampled_from(["nan", "inf", "-inf"]) | NUMBER)
POINT2 = mostly(st.lists(SMALL, min_size=2, max_size=2).map(",".join), POINT)
COUNT = mostly(st.integers(1, 3).map(str), st.sampled_from(["0", "-1", "x", ""]))
AXIS = st.tuples(SMALL, SMALL, COUNT).map(":".join)
GRID = mostly(st.lists(AXIS, min_size=2, max_size=2), st.lists(AXIS, max_size=3)).map(",".join)


@settings(SETTINGS, max_examples=150)
@given(
    model=mostly(st.sampled_from(["euclidean:2", "categorical:2"]), MODEL),
    kind=st.sampled_from(["ay", "canonical", "dual", "pseudonorm", "oracle"]),
    p=POINT2,
    grid=GRID,
)
def test_sweep_on_fuzzed_text_exits_with_a_documented_code(model, kind, p, grid):
    # cheap kinds only: every kind on euclidean, the flat primal ay on
    # categorical, the closed-form oracle on anything else
    if model == "categorical:2":
        kind = "ay"
    elif model != "euclidean:2":
        kind = "oracle"
    argv = ["sweep", f"--model={model}", f"--kind={kind}", f"-p={p}", f"--grid={grid}"]
    assert_documented_exit(argv)


def coords(first, second):
    return st.tuples(first, second).map(lambda xy: ",".join(map(repr, xy)))


# mostly points of a box around each safe box, so that most pairs lie inside
# the domain and reach the expectation chart
INSIDE_MOSTLY = {
    "categorical:2": mostly(coords(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)), POINT2),
    "gaussian1d": mostly(coords(st.floats(-3.0, 3.0), st.floats(-3.0, -0.03)), POINT2),
}


@settings(SETTINGS, max_examples=150)
@given(
    pair=st.sampled_from(sorted(INSIDE_MOSTLY)).flatmap(
        lambda model: st.tuples(st.just(model), INSIDE_MOSTLY[model], INSIDE_MOSTLY[model])
    ),
    kind=st.sampled_from(["ay", "canonical", "dual", "pseudonorm", "oracle"]),
)
def test_div_on_the_dually_flat_models_exits_with_a_documented_code(pair, kind):
    model, p, q = pair
    assert_documented_exit(["div", f"--model={model}", f"--kind={kind}", f"-p={p}", f"-q={q}"])


def cheap_or_invalid(model):
    try:
        return _load_model(model).name in ("euclidean", "categorical")
    except InvalidModelSpec:
        return True


@settings(SETTINGS, max_examples=150)
@given(model=mostly(st.sampled_from(["euclidean:2", "categorical:2"]), MODEL), p=st.none() | POINT2)
def test_probe_f_on_fuzzed_text_exits_with_a_documented_code(model, p):
    # probe-f evaluates the dual and canonical divergences, both closed form on
    # euclidean and on the categorical family
    assume(cheap_or_invalid(model))
    argv = ["probe-f", f"--model={model}", "--samples=10"]
    if p is not None:
        argv.append(f"-p={p}")
    assert_documented_exit(argv)


# verify's cost grows as samples x dim^5, so the fuzz keeps one sample and
# dimensions 1-3, or above MAX_RECOVERY_DIM, where the classification suite is
# refused before any work; a dimension drawn from NUMBER could be 1e300, which parses
DIM = mostly(
    st.integers(1, 3).map(str) | st.integers(MAX_RECOVERY_DIM + 1, 100).map(str),
    st.sampled_from(["0", "-1", "1.5", "nan", "inf", "x", ""]),
)
# a mantissa and a decimal exponent: radii from 1e-320 to 1e308, spread in log
RADIUS = st.builds("{:.3f}e{}".format, st.floats(1.0, 9.999), st.integers(-320, 307))
VERIFY_MODEL = st.one_of(
    st.tuples(st.sampled_from(["euclidean", "categorical"]), DIM).map(":".join),
    st.tuples(DIM, mostly(st.floats(-1.5, 1.5).map(repr), NUMBER)).map(
        lambda t: "alpha_categorical:" + ":".join(t)
    ),
    mostly(RADIUS, NUMBER).map(lambda r: "sphere:2:" + r),
    MODEL,
)
# any other suite name that parses would cost seconds
SUITE_TEXT = st.text(max_size=5).filter(
    lambda s: s not in {"eguchi", "pathindep", "gradient", "collapse", "symmetry", "all"}
)


@settings(SETTINGS, max_examples=150)
@given(
    model=VERIFY_MODEL,
    seed=mostly(st.integers(0, 2**70).map(str), st.integers(-3, -1).map(str) | NUMBER),
    suite=mostly(st.just("classification"), SUITE_TEXT),
)
def test_verify_on_fuzzed_text_exits_with_a_documented_code(model, seed, suite):
    argv = ["verify", f"--model={model}", f"--seed={seed}", f"--suite={suite}", "--samples=1"]
    err = assert_documented_exit(argv, codes=(0, 1, 2))
    assert "Traceback" not in err
