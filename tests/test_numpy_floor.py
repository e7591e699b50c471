"""The package runs on the NumPy floor that pyproject.toml declares (1.24).

No NumPy 1.x may be at hand to run the suite on, so this reads the source
instead: a call to a name that only NumPy 2 has fails here, on any NumPy.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "dualgeo").glob("*.py"))

# names NumPy 2.0-2.2 added to the main namespace and to numpy.linalg
NUMPY2_ONLY = {
    "vecdot", "matrix_transpose", "concat", "permute_dims", "unstack", "cumulative_sum",
    "cumulative_prod", "matvec", "vecmat", "astype", "isdtype", "bitwise_count", "trapezoid",
    "unique_all", "unique_counts", "unique_inverse", "unique_values", "acos", "acosh", "asin",
    "asinh", "atan", "atan2", "atanh", "pow", "bitwise_left_shift", "bitwise_right_shift",
    "bitwise_invert",
}
NUMPY2_ONLY_LINALG = {
    "vecdot", "matrix_transpose", "vector_norm", "matrix_norm", "svdvals", "cross", "outer",
    "diagonal", "trace", "tensordot", "matmul",
}


def _numpy2_calls(tree):
    """(line, dotted name) of each np.<name> or np.linalg.<name> that NumPy 1.24 lacks."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = ast.unparse(node.value)
        if owner in ("np", "numpy") and node.attr in NUMPY2_ONLY:
            yield node.lineno, f"{owner}.{node.attr}"
        if owner in ("np.linalg", "numpy.linalg") and node.attr in NUMPY2_ONLY_LINALG:
            yield node.lineno, f"{owner}.{node.attr}"


def test_the_guard_sees_a_numpy2_call():
    tree = ast.parse("import numpy as np\nnp.vecdot(a, b)\nnp.linalg.vector_norm(a)\nnp.dot(a, b)")
    assert list(_numpy2_calls(tree)) == [(2, "np.vecdot"), (3, "np.linalg.vector_norm")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_calls_nothing_that_numpy_1_24_lacks(path):
    assert SOURCES, "no sources found"
    assert list(_numpy2_calls(ast.parse(path.read_text()))) == []
