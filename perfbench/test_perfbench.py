"""Tests of the benchmark itself: seeded inputs, the correctness gate and the
tracer. They run small inputs, in about fifteen seconds:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import inspect

import numpy as np
import pytest

from run import OUT, load_program

load_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from dualgeo import cli, divergence, eguchi, geodesic, manifold, verify  # noqa: E402

MODULES = (manifold, geodesic, divergence, eguchi, verify, cli)


def small_requests(seed: int) -> list:
    """A sphere batch of 2 pairs and a 2-pair CLI command on each ODE type."""
    batch = workloads.build("div-batch", seed, OUT)[0]
    batch = dataclasses.replace(batch, P=batch.P[:2], Q=batch.Q[:2])
    commands = workloads.build("cli-div", seed, OUT)
    return [batch, commands[4], commands[5]]


def traced_pass(requests):
    tracer = tracing.Tracer()
    with tracer:
        run = drive_all(requests, tracer)
    return tracer, run


def drive_all(requests, tracer=None):
    outputs = []
    for req in requests:
        if tracer is not None:
            tracer.begin_request()
        outputs.append(req.outcome(req.call()))
    return outputs


def snapshot():
    """Every module attribute, class attribute and suite entry a tracer may patch."""
    state = {}
    for mod in MODULES:
        for name, value in vars(mod).items():
            state[(mod.__name__, name)] = value
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    state[(mod.__name__, name, attr)] = member
    for suite, fn in verify.SUITES.items():
        state[("SUITES", suite)] = fn
    return state


@pytest.fixture(scope="module")
def two_traced_passes():
    OUT.mkdir(exist_ok=True)
    requests = small_requests(5)
    plain = drive_all(requests)
    first = traced_pass(requests)
    second = traced_pass(requests)
    return plain, first, second


def test_same_seed_gives_identical_counters(two_traced_passes):
    _, (t1, _), (t2, _) = two_traced_passes
    assert t1.counts() == t2.counts()
    counts = t1.counts()
    assert counts["geodesic.integrate.rhs_evals"] > 0
    assert counts["geodesic.shoot.iterations"] >= counts["geodesic.shoot.calls"] > 0
    assert counts["divergence.calls"] == 1 + 2 * 2  # one batch call, one per CLI pair
    assert counts["divergence.calls_per_request"] == 5 / 3


def test_traced_outputs_equal_untraced_bit_for_bit(two_traced_passes):
    plain, (_, run1), (_, run2) = two_traced_passes
    assert all(o.failed == 0 for o in plain)
    assert [o.output for o in plain] == [o.output for o in run1] == [o.output for o in run2]


def test_pool_worker_spans_belong_to_the_request(two_traced_passes):
    _, (tracer, _), _ = two_traced_passes
    by_id = {span[0]: span for span in tracer.spans}
    pools = {span[0]: span for span in tracer.spans if span[1] == "cli.pool"}
    assert len(pools) == 2
    worker_roots = [s for s in tracer.spans if s[1] == "divergence.many" and s[4] in pools]
    assert len(worker_roots) == 4  # two pairs under each CLI command
    for span in worker_roots:
        assert span[5] == by_id[span[4]][5]
    assert tracer.metrics()["cli.pool.s"] > 0.0


def test_different_seed_gives_different_inputs():
    for name in ("div-batch", "cli-div"):
        a, b, c = (workloads.build(name, seed, OUT) for seed in (1, 1, 2))
        assert all(np.array_equal(x.P, y.P) and np.array_equal(x.Q, y.Q) for x, y in zip(a, b))
        assert not all(np.array_equal(x.P, z.P) for x, z in zip(a, c))
    assert workloads.build("verify-all", 1, OUT)[0].argv() != workloads.build("verify-all", 2, OUT)[0].argv()


def test_all_wrappers_are_restored():
    before = snapshot()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            assert divergence._divergence_many is not before[("dualgeo.divergence", "_divergence_many")]
            assert cli._divergence_many is divergence._divergence_many
            assert verify.SUITES["eguchi"] is not before[("SUITES", "eguchi")]
            raise RuntimeError("leave the traced block by an exception")
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize(
    "spec, kind",
    [
        ("euclidean:3", "ay"),
        ("sphere:2", "canonical"),
        ("categorical:2", "canonical"),
        ("categorical:2", "oracle"),
        ("categorical:2", "dual"),
        ("gaussian1d", "canonical"),
        ("gaussian1d", "dual"),
    ],
)
def test_gate_rejects_a_perturbed_value(spec, kind):
    model = workloads.parse_model_spec(spec)
    P, Q = workloads.sample_pairs(model, 4, np.random.default_rng(3))
    vals = divergence._divergence_many(model, workloads.KIND_NAMES[kind], P, Q, workloads.DEFAULT_CONFIG)
    assert workloads.reference_check(model, kind, P, Q, vals).all()
    bumped = vals.copy()
    bumped[2] += 1e-5 * (1.0 + abs(bumped[2]))
    assert workloads.reference_check(model, kind, P, Q, bumped).tolist() == [True, True, False, True]


def test_gate_rejects_swapped_orientation():
    model = workloads.parse_model_spec("categorical:2")
    P, Q = workloads.sample_pairs(model, 4, np.random.default_rng(4))
    canonical = np.array([model.oracle_fn(p, q) for p, q in zip(P, Q)])
    assert not workloads.reference_check(model, "dual", P, Q, canonical).any()


def test_gate_on_alpha_categorical_needs_finite_positive_values():
    model = workloads.parse_model_spec("alpha_categorical:2:0.5")
    P, Q = workloads.sample_pairs(model, 3, np.random.default_rng(5))
    verdicts = workloads.reference_check(model, "canonical", P, Q, [0.1, -0.1, np.nan])
    assert verdicts.tolist() == [True, False, False]


def test_gate_rejects_cli_documents_with_a_bad_row():
    OUT.mkdir(exist_ok=True)
    req = workloads.build("cli-div", 6, OUT)[0]  # euclidean:3 ay
    code = req.call()
    good = req.out_path.read_bytes()
    assert code == 0 and req.outcome(code).failed == 0
    rows = good.decode().split("\r\n")
    fields = rows[1].split(",")
    value_at = len(fields) - 3
    bumped = fields[:value_at] + [repr(float(fields[value_at]) + 1e-6)] + fields[value_at + 1 :]
    assert req.check_document("\r\n".join([rows[0], ",".join(bumped), *rows[2:]]).encode()).tolist() == [
        False,
        True,
    ]
    not_converged = good.decode().replace(",True\r\n", ",False\r\n", 1).encode()
    assert req.check_document(not_converged).tolist() == [False, True]
    assert not req.check_document(b"").any()
