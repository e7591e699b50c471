"""Seeded inputs, requests and the correctness gate of the three workloads.

    div-batch   one in-process `_divergence_many` call of 8 safe-box pairs per
                request; 3 batches of each type in DIV_BATCH_MIX
    cli-div     one in-process `dualgeo.cli.main(["div", ...])` command of 2
                pairs per request; 20 commands of each type in CLI_DIV_MIX
    verify-all  one in-process `dualgeo.cli.main(["verify", "--suite", "all",
                "--seed", S, ...])` command

Every workload is a closed loop driven by one client: the next request is
sent when the last one has returned. Inputs are drawn once from the seed with
`sample_pairs`; the program only sees the resulting arrays or argv. A round
is one pass over all of a workload's requests, types interleaved. Seeded
inputs differ a lot in cost (one batch of 8 pairs is as slow as its hardest
member), so a round holds many of them and the run's figures average over
them.

The gate checks every value against its closed form at the tolerances of the
acceptance tests: half the squared chord for Euclidean models, half the
squared great-circle length for the sphere, the reference divergence for the
dually flat canonical and oracle kinds, and the same with its arguments
swapped for their dual kind. Where no closed form exists (alpha_categorical)
the value must be finite and positive.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dualgeo import DEFAULT_CONFIG, DualGeoError, cli, divergence, parse_model_spec, sample_pairs
from dualgeo.cli import KIND_NAMES
from dualgeo.sampling import great_circle_angle

# The program is always called through its module attributes, looked up at
# call time, so that the tracer's wrappers see every call.

WORKLOADS = ("div-batch", "cli-div", "verify-all")

DIV_BATCH_PAIRS = 8
DIV_BATCH_SETS = 3  # distinct batches of each type
DIV_BATCH_MIX = (
    ("sphere:2", "canonical"),
    ("alpha_categorical:2:0.5", "canonical"),
    ("alpha_categorical:2:0.5", "dual"),
    ("alpha_categorical:5:0.5", "pseudonorm"),
    ("gaussian1d", "dual"),
    ("categorical:2", "dual"),
)

CLI_DIV_PAIRS = 2
CLI_DIV_COMMANDS = 120  # distinct commands, 20 of each type
CLI_DIV_MIX = (
    ("euclidean:3", "ay"),
    ("categorical:2", "canonical"),
    ("gaussian1d", "canonical"),
    ("categorical:2", "oracle"),
    ("sphere:2", "canonical"),
    ("categorical:2", "dual"),
)

EUCLIDEAN_TOL = 1e-8  # absolute, acceptance criterion 1
SPHERE_TOL = 1e-6  # absolute, acceptance criterion 2
ORACLE_TOL = 1e-6  # relative to 1 + |reference|, acceptance criteria 3 and 9


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def reference_check(model, kind: str, P: np.ndarray, Q: np.ndarray, values) -> np.ndarray:
    """Per-pair verdicts of `values` against the closed form for (model, kind)."""
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    if model.name == "euclidean" and kind in ("ay", "canonical", "dual", "oracle"):
        ref = 0.5 * np.sum((Q - P) ** 2, axis=1)
        return finite & (np.abs(values - ref) <= EUCLIDEAN_TOL)
    if model.name == "sphere" and kind in ("ay", "canonical", "dual"):
        ref = 0.5 * (model.params[1] * great_circle_angle(P, Q)) ** 2
        return finite & (np.abs(values - ref) <= SPHERE_TOL)
    if model.oracle_fn is not None and kind in ("canonical", "oracle", "dual"):
        if kind == "dual":
            ref = np.array([model.oracle_fn(q, p) for p, q in zip(P, Q)])
        else:
            ref = np.array([model.oracle_fn(p, q) for p, q in zip(P, Q)])
        return finite & (np.abs(values - ref) <= ORACLE_TOL * (1.0 + np.abs(ref)))
    if model.name == "alpha_categorical":
        return finite & (values > 0.0)
    raise ValueError(f"no correctness check for {model.spec_string} {kind}")


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one request did: pairs (verify-all: checks) attempted, those that
    failed the gate, the pairs (verify-all: points and pairs its checks
    sampled) delivered and checked correct, and the raw output used for
    bit-for-bit comparisons."""

    attempted: int
    failed: int
    delivered: int
    output: bytes


@dataclass
class DivBatchRequest:
    model: object
    kind: str
    P: np.ndarray
    Q: np.ndarray

    def call(self):
        try:
            return divergence._divergence_many(self.model, KIND_NAMES[self.kind], self.P, self.Q, DEFAULT_CONFIG)
        except DualGeoError:
            return None

    def outcome(self, vals) -> Outcome:
        m = self.P.shape[0]
        if vals is None:
            return Outcome(m, m, 0, b"")
        good = int(reference_check(self.model, self.kind, self.P, self.Q, vals).sum())
        return Outcome(m, m - good, good, np.asarray(vals, dtype=float).tobytes())


def _take(path: Path) -> bytes:
    """Contents of a command's output file, which is then removed so that a
    command that writes nothing cannot pass on its predecessor's output."""
    data = path.read_bytes() if path.exists() else b""
    path.unlink(missing_ok=True)
    return data


def _echoes(field: str, x: np.ndarray) -> bool:
    """Whether a CSV point field holds exactly the coordinates x."""
    return [float(v) for v in field.split(",")] == x.tolist()


def _csv_point(x) -> str:
    return ",".join(repr(float(v)) for v in x)


@dataclass
class CliDivRequest:
    model: object
    spec: str
    kind: str
    P: np.ndarray
    Q: np.ndarray
    out_path: Path

    def argv(self) -> list:
        args = ["div", "--model", self.spec, "--kind", self.kind]
        for p, q in zip(self.P, self.Q):
            args += [f"-p={_csv_point(p)}", f"-q={_csv_point(q)}"]
        return args + ["--output", str(self.out_path)]

    def call(self) -> int:
        return cli.main(self.argv())

    def outcome(self, code: int) -> Outcome:
        m = self.P.shape[0]
        data = _take(self.out_path)
        good = int(self.check_document(data).sum()) if code == 0 else 0
        return Outcome(m, m - good, good, data)

    def check_document(self, data: bytes) -> np.ndarray:
        """Per-pair verdicts on a `div` CSV document: the header, the echoed
        pair, converged=True and the value against its closed form."""
        rows = list(csv.reader(io.StringIO(data.decode(), newline="")))
        body = rows[1:]
        if rows[:1] != [["kind", "p", "q", "value", "quad_nodes", "converged"]] or len(body) != len(self.P):
            return np.zeros(len(self.P), dtype=bool)
        converged = np.array([r[5] == "True" for r in body])
        same_pairs = np.array(
            [_echoes(r[1], p) and _echoes(r[2], q) for r, p, q in zip(body, self.P, self.Q)]
        )
        vals = np.array([float(r[3]) for r in body])
        return converged & same_pairs & reference_check(self.model, self.kind, self.P, self.Q, vals)


@dataclass
class VerifyRequest:
    seed: int
    out_path: Path
    first_report: list = field(default_factory=list)

    def argv(self) -> list:
        return ["verify", "--suite", "all", "--seed", str(self.seed), "--output", str(self.out_path)]

    def call(self) -> int:
        return cli.main(self.argv())

    def outcome(self, code: int) -> Outcome:
        """Every check must pass, exit 0, and the report must be byte-identical
        to the first report of this benchmark run."""
        data = _take(self.out_path)
        try:
            doc = json.loads(data)
            checks = doc["checks"]
        except (ValueError, KeyError):
            return Outcome(1, 1, 0, data)
        if not self.first_report:
            self.first_report.append(data)
        attempted = len(checks)
        failed = sum(1 for c in checks if not c["passed"])
        if code != 0 or doc["overall_pass"] is not True or data != self.first_report[0]:
            failed = attempted
        sampled = sum(int(c["samples"]) for c in checks) if failed == 0 else 0
        return Outcome(attempted, failed, sampled, data)


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------


def _interleaved(mix, count: int, pairs: int, seed: int, tag: int):
    """`count` seeded (model, spec, kind, P, Q), cycling through the types of
    `mix`; each type draws from its own stream."""
    models = [parse_model_spec(spec) for spec, _ in mix]
    rngs = [np.random.default_rng(np.random.SeedSequence([seed, tag, t])) for t in range(len(mix))]
    for j in range(count):
        t = j % len(mix)
        yield (models[t], *mix[t], *sample_pairs(models[t], pairs, rngs[t]))


def build(workload: str, seed: int, out_dir: Path) -> list:
    """All the requests of one round of the workload, from the seed."""
    if workload == "div-batch":
        count = DIV_BATCH_SETS * len(DIV_BATCH_MIX)
        return [
            DivBatchRequest(model, kind, P, Q)
            for model, _, kind, P, Q in _interleaved(DIV_BATCH_MIX, count, DIV_BATCH_PAIRS, seed, 1)
        ]
    if workload == "cli-div":
        return [
            CliDivRequest(model, spec, kind, P, Q, out_dir / "div.csv")
            for model, spec, kind, P, Q in _interleaved(CLI_DIV_MIX, CLI_DIV_COMMANDS, CLI_DIV_PAIRS, seed, 2)
        ]
    if workload == "verify-all":
        return [VerifyRequest(seed, out_dir / "verify.json")]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def warm_up():
    """One small geodesic solve, so that lazy imports and first-call set-up
    inside numpy and scipy happen before timing."""
    model = parse_model_spec("sphere:2")
    P = np.array([[1.4, -0.2]])
    divergence._divergence_many(model, KIND_NAMES["canonical"], P, P + 0.3, DEFAULT_CONFIG)


# ---------------------------------------------------------------------------
# closed-loop client
# ---------------------------------------------------------------------------


@dataclass
class Run:
    """Latencies and outcomes of consecutive requests."""

    latencies: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def attempted(self) -> int:
        return sum(o.attempted for o in self.outcomes)

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self.outcomes)


def drive(requests: list, seconds: float, tracer=None) -> Run:
    """Send whole rounds of the requests until at least `seconds` have
    passed; seconds=0 sends one round."""
    result = Run()
    start = time.perf_counter()
    while True:
        for req in requests:
            if tracer is not None:
                tracer.begin_request()
            t0 = time.perf_counter()
            raw = req.call()
            result.latencies.append(time.perf_counter() - t0)
            result.outcomes.append(req.outcome(raw))
        if time.perf_counter() - start >= seconds:
            break
    result.wall_s = time.perf_counter() - start
    return result
