"""Command line front end: model catalog, divergence evaluation, verification.

Subcommands:

    models     list the builtin catalog and parameter schemas
    div        evaluate a divergence for one or more point pairs
    verify     run a named verification suite, emit a JSON report
    sweep      evaluate divergences over a coordinate grid for plotting
    probe-f    scatter of the dual divergence against the reversed divergence

All randomness is seed-determined; identical invocations produce byte-identical
output. CSV output is RFC 4180 (CRLF, minimal quoting) with 17 significant
digits so doubles round-trip exactly; JSON rows are emitted one per line,
verification reports as a single JSON document. Wall-clock timing goes to
stderr, never into report documents.

Each subcommand only computes: it returns its exit code, its whole document
and its stderr summary or None. `main` does all their I/O: it checks --output
before any computation, writes the document once it is complete, and only then
prints the summary. A command refused as bad input (exit 2) or ended by an
error leaves --output as it was; a failed write is exit 1 with one `error:` line.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from .config import DEFAULT_CONFIG, MAX_QUAD_NODES, ToleranceConfig
from .divergence import DivergenceKind, _divergence_many
from .eguchi import MAX_SKIPPED_FRACTION, symmetry_probe
from .errors import DualGeoError, InvalidModelSpec
from .manifold import ManifoldModel, Point, builtin_schemas, parse_model_spec
from .sampling import sample_points
from .verify import MAX_SAMPLES, default_models, run_suites

KIND_NAMES = {k.value: k for k in DivergenceKind}

MAX_GRID_CELLS = 100_000  # a sweep's rows, one per grid cell, bounded before any is allocated


def _f17(x) -> str:
    return format(float(x), ".17g")


def _csv_line(fields) -> str:
    out = []
    for f in fields:
        s = f if isinstance(f, str) else _f17(f) if isinstance(f, (float, np.floating)) else str(f)
        if any(c in s for c in ",\"\r\n"):
            s = '"' + s.replace('"', '""') + '"'
        out.append(s)
    return ",".join(out) + "\r\n"


def _require_output(path: Optional[str]):
    """An --output that cannot be opened is bad input, found before any work.
    The check leaves the path as it was: a file it creates is removed again, so
    a refused command leaves none, and the document's open need not truncate
    it (ext4 flushes a file truncated to empty on close, ~0.1 ms a command)."""
    if path:
        try:
            try:
                open(path, "x").close()
            except FileExistsError:
                open(path, "a").close()
            else:
                os.remove(path)
        except OSError as exc:
            raise InvalidModelSpec(f"cannot open --output {path!r}: {exc.strerror}") from None


def _tolerances(args) -> ToleranceConfig:
    if args.quad_nodes is not None and args.quad_nodes > MAX_QUAD_NODES:
        raise InvalidModelSpec(f"--quad-nodes must be at most {MAX_QUAD_NODES}")
    flags = {"ode_rel_tol": args.tol_ode, "shoot_tol": args.tol_shoot,
             "quad_nodes": args.quad_nodes, "fd_step": args.fd_step}
    updates = {name: value for name, value in flags.items() if value is not None}
    try:
        return DEFAULT_CONFIG.with_(**updates) if updates else DEFAULT_CONFIG
    except ValueError as exc:
        raise InvalidModelSpec(str(exc)) from None


def _load_model(spec: str) -> ManifoldModel:
    if spec.strip().startswith("{"):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise InvalidModelSpec(f"malformed JSON model spec: {exc}") from None
    return parse_model_spec(spec)


def _parse_point(model: ManifoldModel, text: str, coords: str) -> np.ndarray:
    try:
        vals = np.array([float(tok) for tok in text.split(",")])
    except ValueError:
        raise InvalidModelSpec(f"point {text!r} has a malformed number") from None
    vals = model.convert_coords(vals, coords)
    if vals.shape[0] != model.dim:
        raise InvalidModelSpec(
            f"point {text!r} has {vals.shape[0]} coordinates; model needs {model.dim}"
        )
    return vals


def _fixed_point(model: ManifoldModel, text: str, coords: str) -> np.ndarray:
    """The -p that every row of `sweep` and `probe-f` shares: outside the
    domain it is bad input, not a failed row."""
    p = _parse_point(model, text, coords)
    model.require_inside(p, f"point {text!r}", InvalidModelSpec)
    return p


def _pool_map(model: ManifoldModel, kinds, P: np.ndarray, Q: np.ndarray, cfg: ToleranceConfig):
    """Every kind on every pair (P[i], Q[i]), each pair evaluated alone, in order.

    Returns values of shape (m, len(kinds)) and one ok flag per row; a failed
    (row, kind) reads NaN and clears its row's flag. The rows run inline: for
    the few pairs a command carries, a thread pool costs more than it saves.
    The name is kept because perfbench's tracer patches `cli._pool_map` as its
    `cli.pool` layer, the parent of each row's divergence spans.
    """
    values = np.full((P.shape[0], len(kinds)), np.nan)
    ok = np.ones(P.shape[0], dtype=bool)
    for i in range(P.shape[0]):
        for j, kind in enumerate(kinds):
            try:
                values[i, j] = _divergence_many(model, kind, P[i : i + 1], Q[i : i + 1], cfg)[0]
            except DualGeoError:
                ok[i] = False
    return values, ok


def _kind(model: ManifoldModel, name: str) -> DivergenceKind:
    """The divergence kind named on the command line: `oracle` on a model
    without a closed form is bad input, refused before any row."""
    kind = KIND_NAMES[name]
    if kind is DivergenceKind.ORACLE_KL and model.oracle_fn is None:
        raise InvalidModelSpec(f"--kind oracle: {model.spec_string} has no closed-form divergence")
    return kind


def _seed(text: str) -> int:
    """--seed: numpy's generators take only non-negative integers."""
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise InvalidModelSpec(f"--seed must be a non-negative integer, got {text!r}")
    return seed


def _add_tolerances(parser):
    parser.add_argument("--tol-ode", type=float, default=None, help="ODE relative tolerance")
    parser.add_argument("--tol-shoot", type=float, default=None, help="shooting tolerance")
    parser.add_argument("--quad-nodes", type=int, default=None, help="quadrature node count")
    parser.add_argument("--fd-step", type=float, default=None, help="finite-difference step")


def _add_common(parser):
    _add_tolerances(parser)
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--output", default=None, help="output file (default stdout)")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_models(args):
    schemas = builtin_schemas()
    if args.format == "json":
        return 0, json.dumps(schemas, indent=2) + "\n", None
    lines = []
    for name, info in schemas.items():
        lines += [
            name,
            f"    spec:    {info['params']}",
            f"    chart:   {info['chart']}",
            f"    domain:  {info['domain']}",
            f"    dually flat: {'yes' if info['dually_flat'] else 'no'}",
        ]
    return 0, "".join(line + "\n" for line in lines), None


def cmd_div(args):
    model = _load_model(args.model)
    cfg = _tolerances(args)
    kind = _kind(model, args.kind)
    ps = [_parse_point(model, t, args.coords) for t in args.p]
    qs = [_parse_point(model, t, args.coords) for t in args.q]
    if len(ps) == 1 and len(qs) > 1:
        ps = ps * len(qs)
    if len(ps) != len(qs):
        raise InvalidModelSpec("-p and -q must be given equally often (or one -p for many -q)")

    values, oks = _pool_map(model, [kind], np.array(ps), np.array(qs), cfg)
    code = 0 if oks.all() else 3
    rows = list(zip(ps, qs, values[:, 0].tolist(), oks.tolist()))
    if args.format == "json":
        return code, "".join(
            json.dumps({"kind": args.kind, "p": [float(x) for x in p], "q": [float(x) for x in q],
                        "value": float(val) if ok else None, "quad_nodes": cfg.quad_nodes,
                        "converged": bool(ok)}) + "\n"
            for p, q, val, ok in rows
        ), None
    lines = [["kind", "p", "q", "value", "quad_nodes", "converged"]]
    lines += [[args.kind, ",".join(map(_f17, p)), ",".join(map(_f17, q)), val, cfg.quad_nodes, ok]
              for p, q, val, ok in rows]
    return code, "".join(map(_csv_line, lines)), None


def cmd_verify(args):
    cfg = _tolerances(args)
    models = [_load_model(args.model)] if args.model else default_models()
    report = run_suites(models, args.suite, samples=args.samples, seed=args.seed, cfg=cfg)
    summary = f"suite {args.suite}: {'pass' if report.passed else 'FAIL'} in {report.duration:.1f}s"
    return (0 if report.passed else 1), json.dumps(report.to_dict(), indent=2) + "\n", summary


def _parse_grid(model: ManifoldModel, spec: str) -> np.ndarray:
    """The grid's cells as rows (cells, dim), the last axis varying fastest."""
    bounds = []
    for part in spec.split(","):
        toks = part.split(":")
        if len(toks) != 3:
            raise InvalidModelSpec(f"grid axis {part!r} must be min:max:count")
        try:
            lo, hi, cnt = float(toks[0]), float(toks[1]), int(toks[2])
        except ValueError:
            raise InvalidModelSpec(f"grid axis {part!r} has a malformed number") from None
        if cnt < 1:
            raise InvalidModelSpec("grid count must be >= 1")
        if not np.isfinite(hi - lo):
            raise InvalidModelSpec(f"grid axis {part!r} needs finite bounds with a finite span")
        bounds.append((lo, hi, cnt))
    if len(bounds) != model.dim:
        raise InvalidModelSpec(f"grid needs {model.dim} axes, got {len(bounds)}")
    if math.prod(cnt for *_, cnt in bounds) > MAX_GRID_CELLS:
        raise InvalidModelSpec(f"grid has more than {MAX_GRID_CELLS} cells")
    # itertools, not np.meshgrid, which takes at most 32 axes
    return np.array(list(itertools.product(*(np.linspace(*b) for b in bounds))))


def cmd_sweep(args):
    model = _load_model(args.model)
    cfg = _tolerances(args)
    kinds = [_kind(model, k) for k in args.kind]
    p = _fixed_point(model, args.p, args.coords)
    Q = _parse_grid(model, args.grid)

    values, oks = _pool_map(model, kinds, np.repeat(p[None, :], Q.shape[0], axis=0), Q, cfg)
    rows = list(zip(Q, values.tolist(), oks.tolist()))
    if args.format == "csv":
        lines = [[f"q{i+1}" for i in range(model.dim)] + list(args.kind) + ["converged"]]
        lines += [[*q, *vals, ok] for q, vals, ok in rows]
        return 0, "".join(map(_csv_line, lines)), None
    out = []
    for q, vals, ok in rows:
        rec = {"q": [float(x) for x in q], "converged": bool(ok)}
        rec.update({k: (None if np.isnan(v) else v) for k, v in zip(args.kind, vals)})
        out.append(json.dumps(rec) + "\n")
    return 0, "".join(out), None


def cmd_probe_f(args):
    model = _load_model(args.model)
    cfg = _tolerances(args)
    if not 10 <= args.samples <= MAX_SAMPLES:
        raise InvalidModelSpec(f"probe-f needs between 10 and {MAX_SAMPLES} samples")
    rng = np.random.default_rng(args.seed)
    if args.p is not None:
        p = Point(_fixed_point(model, args.p, args.coords))
    else:
        p = Point(sample_points(model, 1, rng, shrink=0.6)[0])
    qs = [Point(x) for x in sample_points(model, args.samples, rng, shrink=0.85)]
    res = symmetry_probe(model, p, qs, cfg)
    if args.format == "csv":
        lines = [["index", "dual_divergence", "reversed_divergence"]]
        document = "".join(map(_csv_line, lines + [[i, d, r] for i, (d, r) in enumerate(res.pairs)]))
    else:
        document = json.dumps(
            {
                "p": [float(x) for x in p.coords],
                "pairs": [[float(d), float(r)] for d, r in res.pairs],
                "skipped": [int(i) for i in res.skipped],
                "rank_agreement": float(res.rank_agreement),
                "max_equality_error": float(res.max_equality_error),
            }
        ) + "\n"
    summary = f"rank_agreement={res.rank_agreement:.6f} skipped={len(res.skipped)}/{args.samples}"
    return (3 if len(res.skipped) / args.samples > MAX_SKIPPED_FRACTION else 0), document, summary


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and then reused: parsing
    leaves it unchanged, and building it costs about as much as a closed-form `div`."""
    ap = argparse.ArgumentParser(
        prog="dualgeo",
        description="Dual-geometry toolkit: geodesics, transports and divergences "
        "on statistical manifolds",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_models = sub.add_parser("models", help="list builtin models")
    p_models.add_argument("--format", choices=["text", "json"], default="text")
    p_models.set_defaults(fn=cmd_models)

    p_div = sub.add_parser("div", help="evaluate a divergence for point pairs")
    p_div.add_argument("--model", required=True, help="model spec, e.g. categorical:2")
    p_div.add_argument("--kind", choices=list(KIND_NAMES), default="canonical")
    p_div.add_argument(
        "-p",
        action="append",
        required=True,
        help="first point, comma-separated (use -p=-1,2 when the first value is negative)",
    )
    p_div.add_argument("-q", action="append", required=True, help="second point")
    p_div.add_argument("--coords", choices=["chart", "mixture", "natural"], default="chart")
    _add_common(p_div)
    p_div.set_defaults(fn=cmd_div)

    p_ver = sub.add_parser(
        "verify",
        help="run a verification suite",
        epilog=(
            "Report schema (single JSON document): {suite, models, seed, samples, "
            "checks: [{check_id, max_error, tolerance, passed, samples}], "
            "overall_pass}. Classification residuals appear as checks named "
            "verdict_* and constant_curvature_residual. "
            "Wall-clock timing is printed to stderr, never into the document."
        ),
    )
    p_ver.add_argument("--model", default=None, help="model spec (default: all builtins)")
    p_ver.add_argument(
        "--suite",
        default="all",
        choices=["eguchi", "pathindep", "gradient", "collapse", "symmetry", "classification", "all"],
    )
    p_ver.add_argument("--samples", type=int, default=3)
    p_ver.add_argument("--seed", type=_seed, default=0)
    p_ver.add_argument("--output", default=None)
    _add_tolerances(p_ver)
    p_ver.set_defaults(fn=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="divergence values over a coordinate grid")
    p_sweep.add_argument("--model", required=True)
    p_sweep.add_argument("--kind", action="append", choices=list(KIND_NAMES), required=True)
    p_sweep.add_argument("-p", required=True, help="fixed first point")
    p_sweep.add_argument("--grid", required=True, help="per-axis min:max:count, comma separated")
    p_sweep.add_argument("--coords", choices=["chart", "mixture", "natural"], default="chart")
    _add_common(p_sweep)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_probe = sub.add_parser("probe-f", help="dual-vs-reversed divergence scatter")
    p_probe.add_argument("--model", required=True)
    p_probe.add_argument("-p", default=None, help="base point (default: sampled)")
    p_probe.add_argument("--samples", type=int, default=20)
    p_probe.add_argument("--seed", type=_seed, default=0, help="seed for the sampled points")
    p_probe.add_argument("--coords", choices=["chart", "mixture", "natural"], default="chart")
    _add_common(p_probe)
    p_probe.set_defaults(fn=cmd_probe_f)

    return ap


def main(argv=None) -> int:
    try:
        # inside the try: an argument type may reject its value as bad input
        args = build_parser().parse_args(argv)
        path = getattr(args, "output", None)
        _require_output(path)
        code, document, summary = args.fn(args)
    except InvalidModelSpec as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DualGeoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if path:
            with open(path, "w", newline="") as fh:
                fh.write(document)
        else:
            sys.stdout.write(document)
            sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write {f'--output {path!r}' if path else 'stdout'}: {exc.strerror}",
              file=sys.stderr)
        return 1
    if summary:
        print(summary, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
