"""Call server: one fresh interpreter that imports the program once and runs
each benchmark call in a forked copy of itself.

Usage: python3 child.py SRC

At start it times `import oddball.cli` from the checkout's `src` directory
SRC (the set-up a CLI user pays on every invocation), with the gauge loop
run just before and just after, and writes one JSON line with the result on
stdout. Then it reads jobs, one JSON line each, from stdin until end of
input. For each job it forks; the forked copy runs the job and writes its
result as JSON to the job's "result" path, and the server answers with one
JSON line holding the copy's exit status. The server itself never calls
`oddball.cli.main`, so every forked copy starts with the cold
process-global weight cache, as a CLI user's invocation does.

Jobs:

* mode "cli": the gauge loop, one `oddball.cli.main(argv)` call, the gauge
  loop again. With "trace" set, wrappers from `tracer.py` are installed on
  the public names one module calls in the next before `main` runs.
* mode "micro": direct timings of public calls on fixed inputs
  (`micro.py`).

Output the CLI writes to stdout is captured into the "stdout" field.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

GAUGE_LOOP = 100_000
GAUGE_REPEATS = 3


def gauge_once() -> float:
    """Seconds of a fixed pure-Python loop that uses no oddball code."""
    start = time.perf_counter()
    acc = 0
    for i in range(GAUGE_LOOP):
        acc += i * i % 7
    return time.perf_counter() - start


def gauge() -> list:
    return [gauge_once() for _ in range(GAUGE_REPEATS)]


def _load_package(src: str):
    sys.path.insert(0, src)
    before = gauge()
    start = time.perf_counter()
    import oddball.cli

    setup_s = time.perf_counter() - start
    after = gauge()
    where = os.path.realpath(oddball.cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"oddball.cli was imported from {where}, not from {src}")
    return oddball.cli, {"setup_s": setup_s, "gauge_s": statistics.median(before + after)}


def run_cli(cli, job: dict) -> dict:
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    before = gauge()
    captured = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        rc = cli.main(job["argv"])
    wall_s = time.perf_counter() - start
    after = gauge()
    result = {
        "rc": rc,
        "wall_s": wall_s,
        "gauge_s": statistics.median(before + after),
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stdout": captured.getvalue(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary(wall_s)
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
    return result


def run_micro() -> dict:
    import micro

    return {"micro": micro.measure()}


def _forked(cli, job: dict) -> None:
    """The forked copy: run the job, write its result, never return."""
    code = 1
    try:
        devnull = os.open(os.devnull, os.O_RDWR)
        os.dup2(devnull, 0)
        os.dup2(devnull, 1)  # stdout is the server's reply channel
        result = run_micro() if job["mode"] == "micro" else run_cli(cli, job)
        with open(job["result"], "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        code = 0
    except BaseException as exc:  # noqa: BLE001 - reported through the exit status
        sys.stderr.write(f"call failed: {exc!r}\n")
    finally:
        sys.stderr.flush()
        os._exit(code)


def main() -> None:
    cli, setup = _load_package(sys.argv[1])
    reply = sys.stdout
    reply.write(json.dumps(setup) + "\n")
    reply.flush()
    for line in sys.stdin:
        job = json.loads(line)
        pid = os.fork()
        if pid == 0:
            _forked(cli, job)
        _, status = os.waitpid(pid, 0)
        reply.write(json.dumps({"status": os.waitstatus_to_exitcode(status)}) + "\n")
        reply.flush()


if __name__ == "__main__":
    main()
