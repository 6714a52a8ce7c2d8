"""Command-line front end.

Subcommands (JSON for single results, CSV for sweeps, stdout unless
--out is given):

  dstar     optimal detectability index for one configuration
  lambda    optimal sampling weights for one configuration
  curve     weight-vs-nu sweep CSV over a list of display sizes
  simulate  Monte Carlo policy experiment from a JSON spec -> report CSV
  drift     long non-stopping runs -> checkpoint CSV + summary JSON
  bound     information lower bound on the expected decision time
  index     pairwise dissimilarity matrix CSV from a firing-rate CSV
  analyze   evaluate the index against observed decision delays -> JSON

Exit codes: 0 success, 2 invalid input (bad flags, malformed files,
domain violations), 1 runtime failure, 130 interrupted (Ctrl-C, reported
as one line, `interrupted`, on stderr). No numerical logic lives here;
every subcommand validates inputs and delegates to the library. All
randomness is seeded explicitly (spec `seed` field, drift --seed).

Non-finite numbers in JSON output are encoded as null (NaN) or the
strings "inf"/"-inf", keeping the output strictly standard JSON.
"""

from __future__ import annotations

import argparse
import json
# argparse's gettext imports locale (~1.2-1.7 ms) when `main` builds its
# first parser; importing it here puts that cost in start-up rather than
# in the first command a process runs.
import locale  # noqa: F401
import math
import os
import sys

from .dissimilarity import (
    DEFAULT_RATE_FLOOR,
    FiringRateTable,
    analyze_search_delays,
    parse_delays_csv,
    pairwise_dstar,
)
from .experiments import ExperimentSpec, drift_experiment, run_experiment
from .numerics import DomainError, _csv_text
from .solver import (
    CURVE_HEADER,
    OddConfig,
    curve_rows,
    lower_bound_expected_tau,
    solve_lambda_star,
)

__all__ = ["main"]


def _parse_list(text: str, name: str, cast=float) -> list:
    """Comma-separated values of `text`, each converted by `cast` (float or int)."""
    try:
        return [cast(p) for p in text.split(",")]
    except ValueError:
        kind = "integers" if cast is int else "numbers"
        raise DomainError(f"{name} must be a comma-separated list of {kind}, got {text!r}") from None


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read {what} {path!r}: {exc}") from None


def _sanitize(obj):
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, dict):
        return {key: _sanitize(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(value) for value in obj]
    return obj


def _dump_json(obj) -> str:
    return json.dumps(_sanitize(obj), indent=2, allow_nan=False) + "\n"


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _solve_payload(args) -> dict:
    config = OddConfig(args.k, 1, _parse_list(args.r1, "--r1"), _parse_list(args.r2, "--r2"))
    sol = solve_lambda_star(config)
    payload = {
        "k": config.k,
        "d_star": sol.d_star,
        "lambda_odd": sol.lam_odd,
        "lambda_hat": sol.lam_hat,
        "lambda_vector": list(sol.lam),
        "r_tilde": list(sol.r_tilde),
        "nu": sol.nu,
    }
    if config.is_degenerate:
        payload["warning"] = (
            "r1 == r2: the configuration is undetectable; weights are the nu -> 1/2 extension"
        )
    return payload


def _cmd_dstar(args) -> None:
    payload = _solve_payload(args)
    payload.pop("lambda_hat")
    _write(_dump_json(payload), args.out)


def _cmd_lambda(args) -> None:
    _write(_dump_json(_solve_payload(args)), args.out)


def _cmd_curve(args) -> None:
    rows = curve_rows(_parse_list(args.k_list, "--k-list", int), args.nu_steps)
    cells = ((k, *(f"{v:.12g}" for v in reals)) for k, *reals in rows)
    _write(_csv_text(CURVE_HEADER, cells), args.out)


def _cmd_simulate(args) -> None:
    spec = ExperimentSpec.from_json(_read_text(args.spec, "spec file"))
    if args.trace_dir is not None:
        os.makedirs(args.trace_dir, exist_ok=True)
    report = run_experiment(spec, parallelism=args.jobs, trace_dir=args.trace_dir)
    _write(report.to_csv(), args.out)


def _cmd_drift(args) -> None:
    truth = OddConfig(args.k, args.odd, args.r1, args.r2)
    seeds = [args.seed + i for i in range(args.num_seeds)]
    checkpoints = args.checkpoints
    if checkpoints is not None:
        checkpoints = _parse_list(checkpoints, "--checkpoints", int)
    result = drift_experiment(
        truth, args.slots, seeds, checkpoints=checkpoints, parallelism=args.jobs
    )
    if args.out is not None:
        _write(result.to_csv(), args.out)
    summary = {
        "lambda_star": list(result.lambda_star),
        "mixed_rate": result.mixed_rate,
        **result.summary(),
    }
    sys.stdout.write(_dump_json(summary))


def _cmd_bound(args) -> None:
    config = OddConfig(args.k, 1, _parse_list(args.r1, "--r1"), _parse_list(args.r2, "--r2"))
    sol = solve_lambda_star(config)
    bound = lower_bound_expected_tau(config, args.alpha, dstar=sol.d_star)
    payload = {
        "k": config.k,
        "alpha": args.alpha,
        "d_star": sol.d_star,
        # Identical rates cannot be told apart: the bound diverges.
        "lower_bound": None if config.is_degenerate else bound,
        "degenerate": config.is_degenerate,
    }
    _write(_dump_json(payload), args.out)


def _cmd_index(args) -> None:
    table = FiringRateTable.from_csv(_read_text(args.rates, "firing-rate CSV"), floor=args.floor)
    matrix = pairwise_dstar(table, args.k, parallelism=args.jobs)
    _write(matrix.to_csv(), args.out)


def _cmd_analyze(args) -> None:
    table = FiringRateTable.from_csv(_read_text(args.rates, "firing-rate CSV"), floor=args.floor)
    delays = parse_delays_csv(_read_text(args.delays, "delays CSV"))
    metrics = analyze_search_delays(table, delays, args.k)
    _write(_dump_json(metrics), args.out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddball",
        description="Odd-process detection: optimal weights, sequential policy simulation, "
        "and firing-rate dissimilarity analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=int, default=1, help="worker threads (never changes output)")

    p = sub.add_parser("dstar", help="detectability index of one configuration")
    p.add_argument("--k", type=int, required=True, help="number of processes (>= 3)")
    p.add_argument("--r1", required=True, help="odd rate(s), comma-separated")
    p.add_argument("--r2", required=True, help="common rate(s), comma-separated")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_dstar)

    p = sub.add_parser("lambda", help="optimal sampling weights of one configuration")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r1", required=True)
    p.add_argument("--r2", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_lambda)

    p = sub.add_parser("curve", help="optimal weight vs nu sweep (CSV)")
    p.add_argument("--k-list", required=True, help="display sizes, comma-separated")
    p.add_argument("--nu-steps", type=int, required=True, help="grid points on (0.01, 0.99)")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_curve)

    p = sub.add_parser(
        "simulate", parents=[jobs], help="run a Monte Carlo experiment spec (CSV report)"
    )
    p.add_argument("--spec", required=True, help="experiment spec JSON path")
    p.add_argument("--trace-dir", default=None, help="directory for sampled trial traces")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser(
        "drift", parents=[jobs], help="non-stopping drift audit (CSV rows + summary JSON)"
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--odd", type=int, required=True, help="true odd index (1-based)")
    p.add_argument("--r1", type=float, required=True, help="odd rate (scalar)")
    p.add_argument("--r2", type=float, required=True, help="common rate (scalar)")
    p.add_argument("--slots", type=int, required=True, help="slots per run")
    p.add_argument("--seed", type=int, required=True, help="first seed; runs use seed..seed+N-1")
    p.add_argument("--num-seeds", type=int, default=1)
    p.add_argument("--checkpoints", default=None, help="audit slots, comma-separated")
    p.add_argument("--out", default=None, help="checkpoint CSV path")
    p.set_defaults(handler=_cmd_drift)

    p = sub.add_parser("bound", help="information lower bound on expected decision time")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r1", required=True)
    p.add_argument("--r2", required=True)
    p.add_argument("--alpha", type=float, required=True, help="error tolerance in (0, 1)")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser(
        "index", parents=[jobs], help="pairwise dissimilarity matrix from a firing-rate CSV"
    )
    p.add_argument("--rates", required=True, help="firing-rate CSV path")
    p.add_argument("--k", type=int, required=True, help="search display size (>= 3)")
    p.add_argument("--floor", type=float, default=DEFAULT_RATE_FLOOR)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_index)

    p = sub.add_parser("analyze", help="evaluate the index against decision delays")
    p.add_argument("--rates", required=True, help="firing-rate CSV path")
    p.add_argument("--delays", required=True, help="delays CSV path")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--floor", type=float, default=DEFAULT_RATE_FLOOR)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
