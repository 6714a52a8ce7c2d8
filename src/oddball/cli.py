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

The grammar is argparse's, read from the one table `_COMMANDS`: a flag
takes its value as `--flag value` or `--flag=value`, may be shortened to
a unique prefix of its name, and the last of repeated flags wins; a
value may be a negative number (`-3`, `-.5`) but no other token starting
with `-`. `-h`/`--help` prints help to stdout and exits 0; a usage error
prints the usage line and `oddball[ <command>]: error: ...` to stderr
and exits 2.

Non-finite numbers in JSON output are encoded as null (NaN) or the
strings "inf"/"-inf", keeping the output strictly standard JSON.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
import types

from .dissimilarity import (
    DEFAULT_RATE_FLOOR,
    FiringRateTable,
    analyze_search_delays,
    parse_delays_csv,
    pairwise_dstar,
)
from .experiments import ExperimentSpec, drift_experiment, run_experiment
from .numerics import DomainError, _csv_text, _require_real
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
    _require_real(args.alpha, "--alpha", 0.0, 1.0, open=True)  # before the solve, by its flag
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


# The command-line grammar, the one source of parsing and help: each
# command's handler, its one-line help and its flags, and each flag's
# (name, type, default, help). A flag whose default is _REQUIRED must be
# given; the others take their default when absent.
_REQUIRED = object()
_HELP = ("--help", None, None, "show this help message and exit")
_K = ("--k", int, _REQUIRED, "number of processes (>= 3)")
_R1 = ("--r1", str, _REQUIRED, "odd rate(s), comma-separated")
_R2 = ("--r2", str, _REQUIRED, "common rate(s), comma-separated")
_RATES = ("--rates", str, _REQUIRED, "firing-rate CSV path")
_FLOOR = ("--floor", float, DEFAULT_RATE_FLOOR, "lowest rate; cells below it are raised to it")
_OUT = ("--out", str, None, "output path (default: stdout)")
_JOBS = ("--jobs", int, 1, "worker threads (never changes output)")

_COMMANDS = {
    "dstar": (_cmd_dstar, "detectability index of one configuration", (_K, _R1, _R2, _OUT)),
    "lambda": (_cmd_lambda, "optimal sampling weights of one configuration", (_K, _R1, _R2, _OUT)),
    "curve": (_cmd_curve, "optimal weight vs nu sweep (CSV)", (
        ("--k-list", str, _REQUIRED, "display sizes, comma-separated"),
        ("--nu-steps", int, _REQUIRED, "grid points on (0.01, 0.99)"),
        _OUT,
    )),
    "simulate": (_cmd_simulate, "run a Monte Carlo experiment spec (CSV report)", (
        _JOBS,
        ("--spec", str, _REQUIRED, "experiment spec JSON path"),
        ("--trace-dir", str, None, "directory for sampled trial traces"),
        _OUT,
    )),
    "drift": (_cmd_drift, "non-stopping drift audit (CSV rows + summary JSON)", (
        _JOBS,
        _K,
        ("--odd", int, _REQUIRED, "true odd index (1-based)"),
        ("--r1", float, _REQUIRED, "odd rate (scalar)"),
        ("--r2", float, _REQUIRED, "common rate (scalar)"),
        ("--slots", int, _REQUIRED, "slots per run"),
        ("--seed", int, _REQUIRED, "first seed; runs use seed..seed+N-1"),
        ("--num-seeds", int, 1, "number of runs N (default: 1)"),
        ("--checkpoints", str, None, "audit slots, comma-separated"),
        ("--out", str, None, "checkpoint CSV path (default: none)"),
    )),
    "bound": (_cmd_bound, "information lower bound on expected decision time", (
        _K, _R1, _R2, ("--alpha", float, _REQUIRED, "error tolerance in (0, 1)"), _OUT,
    )),
    "index": (_cmd_index, "pairwise dissimilarity matrix from a firing-rate CSV", (
        _JOBS, _RATES, ("--k", int, _REQUIRED, "search display size (>= 3)"), _FLOOR, _OUT,
    )),
    "analyze": (_cmd_analyze, "evaluate the index against decision delays", (
        _RATES, ("--delays", str, _REQUIRED, "delays CSV path"), _K, _FLOOR, _OUT,
    )),
}

_DESCRIPTION = (
    "Odd-process detection: optimal weights, sequential policy simulation,\n"
    "and firing-rate dissimilarity analysis."
)

# A token that reads as a negative number is a value, never a flag
# (argparse's pattern).
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _is_flag(token: str) -> bool:
    return token.startswith("-") and not _NEGATIVE_NUMBER.match(token)


def _metavar(name: str) -> str:
    return name[2:].upper().replace("-", "_")


def _usage(command: str | None) -> str:
    """The usage line of `command`, or of the program when None, wrapped
    at 79 columns under the first flag."""
    if command is None:
        return f"usage: oddball [-h] {{{','.join(_COMMANDS)}}} ..."
    lines = [f"usage: oddball {command} [-h]"]
    indent = " " * (len(lines[0]) - 4)
    for name, _, default, _ in _COMMANDS[command][2]:
        part = f"{name} {_metavar(name)}"
        if default is not _REQUIRED:
            part = f"[{part}]"
        if len(lines[-1]) + 1 + len(part) > 79:
            lines.append(indent + part)
        else:
            lines[-1] += " " + part
    return "\n".join(lines)


def _rows(rows) -> str:
    width = max(len(left) for left, _ in rows)
    return "\n".join(f"  {left:<{width}}  {right}" for left, right in rows)


def _help(command: str | None) -> str:
    """The help of `command`, or of the program when None."""
    options = [("-h, --help", _HELP[3])]
    if command is None:
        commands = [(name, text) for name, (_, text, _) in _COMMANDS.items()]
        return (
            f"{_usage(None)}\n\n{_DESCRIPTION}\n\ncommands:\n{_rows(commands)}\n\n"
            f"options:\n{_rows(options)}\n\nRun `oddball <command> -h` for its flags.\n"
        )
    _, text, flags = _COMMANDS[command]
    options += [(f"{name} {_metavar(name)}", about) for name, _, _, about in flags]
    return f"{_usage(command)}\n\n{text}\n\noptions:\n{_rows(options)}\n"


def _fail(command: str | None, message: str):
    """Report a usage error as argparse does, on stderr, and exit 2."""
    prog = "oddball" if command is None else f"oddball {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _lookup(command: str | None, token: str):
    """The flag of `command` that `token` names before any `=value`: by
    its whole name, else by a unique prefix of it; None when it names none."""
    name = token.partition("=")[0]
    if name == "-h":
        return _HELP
    flags = (_HELP, *_COMMANDS[command][2]) if command else (_HELP,)
    matches = [flag for flag in flags if flag[0] == name]
    if not matches and len(name) > 2:
        matches = [flag for flag in flags if flag[0].startswith(name)]
    if len(matches) > 1:
        names = ", ".join(flag[0] for flag in matches)
        _fail(command, f"ambiguous option: {token} could match {names}")
    return matches[0] if matches else None


def _parse(argv: list[str]) -> types.SimpleNamespace:
    """The command of `argv`, its handler and its flag values, read by
    `_COMMANDS`; each value is an attribute named like its flag, with `_`
    for `-`. Help goes to stdout and a usage error to stderr; both end in
    SystemExit, with code 0 and 2."""
    command = argv[0] if argv else None
    if command not in _COMMANDS:
        if command is not None and _is_flag(command):
            if _lookup(None, command) is _HELP:
                sys.stdout.write(_help(None))
                raise SystemExit(0)
            command = None
        if command is None:
            _fail(None, "the following arguments are required: command")
        choices = ", ".join(map(repr, _COMMANDS))
        _fail(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    handler, _, flags = _COMMANDS[command]
    values, extras = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        flag = _lookup(command, token) if _is_flag(token) else None
        if flag is None:
            extras.append(token)
            continue
        _, explicit, value = token.partition("=")
        if flag is _HELP:
            if explicit:
                _fail(command, f"argument -h/--help: ignored explicit argument {value!r}")
            sys.stdout.write(_help(command))
            raise SystemExit(0)
        name, kind = flag[:2]
        if not explicit:
            value = next(tokens, None)
            if value is None or _is_flag(value):
                _fail(command, f"argument {name}: expected one argument")
        try:
            values[name] = kind(value)
        except ValueError:
            _fail(command, f"argument {name}: invalid {kind.__name__} value: {value!r}")
    missing = [flag[0] for flag in flags if flag[2] is _REQUIRED and flag[0] not in values]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _fail(None, f"unrecognized arguments: {' '.join(extras)}")
    return types.SimpleNamespace(
        command=command,
        handler=handler,
        **{name[2:].replace("-", "_"): values.get(name, default) for name, _, default, _ in flags},
    )


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return exc.code
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
