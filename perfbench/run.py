"""Benchmark of dualgeo: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload div-batch --seed 7 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
With `--trace 0` the run measures the end-to-end metrics for about
`--seconds` seconds, tracing off. With `--trace 1` it makes one untraced pass
and one traced pass over the same inputs, checks that both give the same
output bit for bit, and reports the per-layer metrics plus the tracing
overhead. Both print a run record line and, last, the result:

    {"correct": true, "attempted": 288, "failed": 0, "metrics": {...}}

BLAS is pinned to one thread, so the only threading is the CLI's own worker
pool. Traces and run records go to `perfbench/out/`. See NOTES.md for the
workloads, the metrics and the layers they belong to.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported, here or in a child

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "pairs_per_s": "pairs/s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "suite_s": "s",
    "peak_rss_mb": "MB",
}


def load_program():
    """Import dualgeo from this checkout's `src/`, and nowhere else."""
    if not (SRC / "dualgeo" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dualgeo sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import dualgeo

    if Path(dualgeo.__file__).resolve().parent != SRC / "dualgeo":
        sys.exit(f"perfbench: imported dualgeo from {dualgeo.__file__}, not from {SRC}")
    return dualgeo


def nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["div-batch", "cli-div", "verify-all"])
    ap.add_argument("--seed", type=nonnegative, default=7)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------


def _commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dualgeo").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_record(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of a fresh interpreter importing dualgeo and building
    the workload's models and inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run, per_round: int, setup_s: float) -> dict:
    """End-to-end metrics of an untraced run.

    A round is one pass over all the workload's requests; suite_s is the
    median round time and pairs_per_s the median over rounds of the items
    delivered and checked correct per second of request time."""
    rounds = []
    for r in range(0, len(run.latencies), per_round):
        busy = sum(run.latencies[r : r + per_round])
        rounds.append((busy, sum(o.delivered for o in run.outcomes[r : r + per_round]) / busy))
    lat_ms = [1e3 * x for x in run.latencies]
    p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8] if len(lat_ms) > 1 else lat_ms[0]
    values = {
        "setup_s": setup_s,
        "pairs_per_s": statistics.median(rate for _, rate in rounds),
        "request_p50_ms": statistics.median(lat_ms),
        "request_p90_ms": p90,
        "suite_s": statistics.median(busy for busy, _ in rounds),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def traced(requests, spans_path: Path):
    """One untraced and one traced pass over the same requests; the second
    value says whether both gave the same output bit for bit."""
    import tracing
    import workloads

    plain = workloads.drive(requests, 0.0)
    tracer = tracing.Tracer()
    with tracer:
        run = workloads.drive(requests, 0.0, tracer)
    same = [o.output for o in plain.outcomes] == [o.output for o in run.outcomes]
    values = tracer.metrics()
    values["trace.overhead_s"] = run.wall_s - plain.wall_s
    values["trace.spans"] = len(tracer.spans)
    values["fail_ratio"] = run.failed / run.attempted
    tracer.write(spans_path)
    return run, same, {k: {"value": v, "unit": tracing.unit_of(k)} for k, v in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    import workloads

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = run_record(args)
    requests = workloads.build(args.workload, args.seed, OUT)
    workloads.warm_up()

    if args.trace:
        run, same, metrics = traced(requests, OUT / f"{stem}-spans.jsonl.gz")
    else:
        setup_s = measure_setup(args.workload, args.seed)
        run = workloads.drive(requests, args.seconds)
        metrics = end_to_end(run, len(requests), setup_s)
        same = True
    correct = same and run.failed == 0
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    record.update(requests=len(run.latencies), wall_s=run.wall_s, result=result)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"run_record": {k: v for k, v in record.items() if k != "result"}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
