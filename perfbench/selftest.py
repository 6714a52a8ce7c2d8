"""Fast self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and requires
each named metric with its unit and passing checks. Then it corrupts
outputs to show the checks catch a wrong report, a wrong leader, a wrong
D* and a failing CLI; cuts the call timeout to show a stalled call fails
and is killed; removes a wrapped name to show the traced run leaves
its metrics out instead of crashing; and runs the benchmark in a directory
without the program to show it exits non-zero without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import run
import workloads

SEED = 3


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def metrics_present() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        expect(declared == units, f"BENCHMARK.json {key} differs from run.py")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.NAMES), "workload names differ")
    for name in workloads.NAMES:
        for trace, units in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            result, record, _ = run.run(name, SEED, 0, trace, size="tiny", min_reps=1)
            expect(result["correct"], f"{name} trace={trace}: checks failed: {record['problems']}")
            expect(result["attempted"] >= 1 and result["failed"] == 0, f"{name}: {result}")
            for metric, unit in units.items():
                got = result["metrics"].get(metric)
                expect(got is not None, f"{name} trace={trace}: {metric} missing")
                expect(got["unit"] == unit, f"{name}: {metric} has unit {got['unit']}")
            expect(set(result["metrics"]) == set(units), f"{name}: unexpected metrics")
        print(f"selftest: {name} metrics and checks ok")


def _replace_last_field(path: str, value: str) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0] + "," + value
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def checks_catch_failures() -> None:
    workdir = run.STATE / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for name in workloads.NAMES:
            runner = run.Runner(name, SEED, "tiny", workdir, time.perf_counter())
            job = runner.job(0)
            rep = runner.call(job, trace=False)
            runner.close()
            expect(rep is not None and runner.failed == 0, f"{name}: clean run failed {runner.problems}")
            stdout = rep["stdout"]
            if name == "drift":
                # A wrong final leader: the leader column of the last row.
                with open(job.out, encoding="utf-8") as fh:
                    lines = fh.read().splitlines()
                cells = lines[-1].split(",")
                cells[2] = "2"
                lines[-1] = ",".join(cells)
                with open(job.out, "w", encoding="utf-8") as fh:
                    fh.write("\n".join(lines) + "\n")
            elif name == "index":
                # Every D* off by one part in a million.
                with open(job.out, encoding="utf-8") as fh:
                    lines = fh.read().splitlines()
                rows = [line.split(",") for line in lines[1:]]
                for cells in rows:
                    cells[2] = repr(float(cells[2]) * (1 + 1e-6))
                with open(job.out, "w", encoding="utf-8") as fh:
                    fh.write("\n".join([lines[0]] + [",".join(c) for c in rows]) + "\n")
            else:
                _replace_last_field(job.out, "1")  # one capped trial
            got = workloads.check(job, stdout, str(run.SRC))
            expect(got.failed > 0 and got.problems, f"{name}: corrupted output passed the check")

            runner = run.Runner(name, SEED, "tiny", workdir, time.perf_counter())
            bad = runner.job(0)
            bad.argv = bad.argv + ["--no-such-flag"]
            failed_call = runner.call(bad, trace=False)
            runner.close()
            expect(failed_call is None, f"{name}: failing CLI not caught")
            expect(runner.failed == workloads.operations(bad), f"{name}: failing CLI fails every operation")
        print("selftest: checks catch corrupted outputs and CLI failures")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def stalled_call_is_killed() -> None:
    """A call past the timeout fails its operations, and its server and
    forked copy are gone."""
    workdir = run.STATE / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # A full-size drift call takes seconds; its server's turn outlasts it.
    runner = run.Runner("drift", SEED, "full", workdir, time.perf_counter(), seconds=3600)
    job = runner.job(0)
    saved = run.CALL_TIMEOUT_S
    try:
        expect(runner._start_server() == "", "server did not start")
        server = runner.server
        run.CALL_TIMEOUT_S = 1.0
        got = runner.call(job, trace=False)
        runner.close()
    finally:
        run.CALL_TIMEOUT_S = saved
        shutil.rmtree(workdir, ignore_errors=True)
    expect(got is None and runner.failed == workloads.operations(job), "stalled call not failed")
    expect("timed out" in runner.problems, f"stalled call: {runner.problems}")
    expect(server is not None and server.returncode is not None, "server of a stalled call still running")
    print("selftest: a stalled call fails and is killed")


def tracing_survives_missing_names() -> None:
    sys.path.insert(0, str(run.SRC))
    import oddball.cli  # noqa: F401 - loads every module the tracer wraps
    import oddball.experiments as experiments
    from tracer import Tracer

    saved = experiments.error_upper_confidence
    del experiments.error_upper_confidence
    try:
        tracer = Tracer()
        tracer.install()
        tracer.uninstall()
    finally:
        experiments.error_upper_confidence = saved
    summary = tracer.summary(1.0)
    expect("oddball.experiments.error_upper_confidence" in tracer.missing, "missing name not recorded")
    expect("experiments.aggregate_s" not in summary, "metric of a missing name reported")
    expect("experiments.trials" in summary, "unrelated metric dropped")
    print("selftest: tracing leaves out metrics of missing names")


def fails_without_program() -> None:
    bare = run.STATE / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        command = json.loads((bare / "BENCHMARK.json").read_text())["command"]
        proc = subprocess.run(
            command + ["--workload", "index", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "benchmark without a program exited 0")
    expect('"correct"' not in proc.stdout, "benchmark without a program printed a result")
    print("selftest: no program, no result")


def main() -> None:
    start = time.perf_counter()
    metrics_present()
    checks_catch_failures()
    stalled_call_is_killed()
    tracing_survives_missing_names()
    fails_without_program()
    print(f"selftest passed in {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()
