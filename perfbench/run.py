"""Benchmark of the oddball command-line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. A call server (`child.py`) is a fresh
interpreter that imports `oddball.cli` from the checkout's `src` once and
runs each call of `oddball.cli.main` at `--jobs 1` in a forked copy of
itself, so every call starts with a cold weight cache, as a CLI user's
does. SERVERS servers take turns over a run, one after another, with BLAS
threads capped at 1. Calls repeat until `--seconds` is used up (at least
MIN_REPS of them). On `simulate` workloads call r takes its inputs from
(seed, r); on the others every call of a run takes the same inputs, made
from the seed. Every call's outputs are checked.

Times are scaled to a reference host speed. Around each import and each
call the server times a fixed pure-Python loop (the gauge); a time t
measured next to a gauge reading g is reported as t * GAUGE_REF_S / g. The
host this benchmark runs on changes speed by up to half for seconds to
minutes at a time, and the scaling takes that out; the raw times are kept
in the result file.

--trace 0 reports the end-to-end metrics: medians over servers of the
scaled import time (setup_s), and over calls of the scaled `main` time
(wall_s), work per scaled second (slots, or ordered pairs for `index`;
ops_per_s) and peak RSS.

--trace 1 reports the per-layer metrics: direct timings of public calls
(`micro.py`) and counts and busy times from wrappers (`tracer.py`) around
the calls each module makes into the next, in calls alternating with
untraced ones on the same inputs, so that the tracing overhead shows.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The line before it is the run record (host, versions,
load, seed, gauge). A full result file is also written under
.perfbench/results/. Exit code 0 when every check passes, 1 when a check
fails, 2 when the checkout has no `src/oddball` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import child
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

END_TO_END = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "experiments.trials": "count",
    "experiments.trial_busy_s": "s",
    "experiments.self_s": "s",
    "experiments.aggregate_s": "s",
    "experiments.rng_setup_us": "us",
    "experiments.trace_files": "count",
    "experiments.trace_bytes": "bytes",
    "experiments.tau_over_lnL": "slots",
    "policy.slots": "count",
    "policy.warmup_slots": "count",
    "policy.lambda_calls": "count",
    "policy.lambda_misses": "count",
    "policy.lambda_hit_ratio": "ratio",
    "policy.lambda_busy_s": "s",
    "policy.fallback_frac": "ratio",
    "policy.lambda_hit_us": "us",
    "policy.lambda_miss_us": "us",
    "policy.draw_us": "us",
    "policy.slot_us.k3": "us",
    "policy.slot_us.k5": "us",
    "policy.slot_us.k50": "us",
    "glr.update_us.k3": "us",
    "glr.update_us.k5": "us",
    "glr.update_us.k50": "us",
    "solver.solves": "count",
    "solver.solve_busy_s": "s",
    "solver.kl_per_solve": "count",
    "solver.solve_us.scalar": "us",
    "solver.solve_ms.d100": "ms",
    "numerics.kl_calls": "count",
    "numerics.kl_ns": "ns",
    "dissimilarity.pairs": "count",
    "dissimilarity.degenerate_pairs": "count",
    "dissimilarity.floored_cells": "count",
    "dissimilarity.pair_busy_s": "s",
    "dissimilarity.self_s": "s",
    "cli.out_bytes": "bytes",
    "trace_overhead": "ratio",
    "trace_coverage": "ratio",
}

MIN_REPS = 3  # untraced calls, for the medians
MIN_TRACED_PAIRS = 1  # untraced-and-traced pairs in a traced run
SERVERS = 3  # fresh interpreters per run, each one import (setup_s) sample
RUN_LIMIT_S = 170.0  # a run must end within 180 s
CALL_TIMEOUT_S = 60.0  # a stalled call or import fails instead of hanging
# A fixed reference: scaled times read as seconds on a host where the gauge
# loop takes this long. On the 2-vCPU Intel Xeon host the bounds were set
# on it took 8-13 ms.
GAUGE_REF_S = 0.0125


class Runner:
    """Runs CLI calls of one workload through call servers and checks their
    outputs."""

    def __init__(self, workload: str, seed: int, size: str, workdir: Path, started: float, seconds: float = 0.0):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.started = started
        self.server_s = seconds / SERVERS  # a server's turn
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.count = 0
        self.setups: list[dict] = []  # one per server: import time, gauge
        self.server: subprocess.Popen | None = None
        self.server_since = 0.0
        self.pending = b""

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def _readline(self, timeout: float) -> dict | None:
        """The server's next reply line, or None on timeout or exit."""
        fd = self.server.stdout.fileno()
        deadline = time.perf_counter() + timeout
        while b"\n" not in self.pending:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 65536)
            if not chunk:
                return None
            self.pending += chunk
        line, _, self.pending = self.pending.partition(b"\n")
        return json.loads(line)

    def _start_server(self) -> str:
        """Start a fresh server; "" once it has imported, else the reason."""
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        with open(self.workdir / "server.log", "ab") as log:
            # Its own process group, so that a stalled call and its server
            # can be killed together.
            self.server = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(SRC)],
                cwd=ROOT,
                env=env,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=log,
                start_new_session=True,
            )
        self.server_since = time.perf_counter()
        self.pending = b""
        setup = self._readline(max(1.0, min(CALL_TIMEOUT_S, self.remaining())))
        if setup is None:
            self.close(kill=True)
            return "server did not start: " + self._log_tail()
        self.setups.append(setup)
        return ""

    def _log_tail(self) -> str:
        try:
            return (self.workdir / "server.log").read_text(errors="replace").strip()[-500:]
        except OSError:
            return ""

    def close(self, kill: bool = False) -> None:
        """Stop the server, and with `kill` a call it is running, and wait
        for them to end."""
        if self.server is None:
            return
        server, self.server = self.server, None
        if not kill:
            server.stdin.close()
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                kill = True
        if kill:
            try:
                os.killpg(server.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            server.wait()
        for stream in (server.stdin, server.stdout):
            stream.close()

    def _child(self, spec: dict) -> tuple[dict | None, str]:
        """Run one job in a forked copy of the server; (result, "") or
        (None, reason). A new server takes over when the current one has had
        its turn."""
        if self.server is not None and time.perf_counter() - self.server_since > self.server_s:
            self.close()
        if self.server is None:
            reason = self._start_server()
            if reason:
                return None, reason
        self.count += 1
        result_path = self.workdir / f"result{self.count}.json"
        self.server.stdin.write((json.dumps({**spec, "result": str(result_path)}) + "\n").encode())
        self.server.stdin.flush()
        reply = self._readline(max(1.0, min(CALL_TIMEOUT_S, self.remaining())))
        if reply is None:
            self.close(kill=True)
            return None, "timed out"
        if reply["status"] != 0:
            return None, f"call exited {reply['status']}: {self._log_tail()}"
        return json.loads(result_path.read_text(encoding="utf-8")), ""

    def micro(self) -> dict:
        result, reason = self._child({"mode": "micro"})
        if result is None:
            self.problems.append(f"micro timings: {reason}")
            return {}
        return result["micro"]

    def job(self, rep: int, tag: str = "") -> workloads.Job:
        draw = rep if self.workload in workloads.PER_CALL_INPUTS else 0
        return workloads.build(self.workload, self.seed * 1000 + draw, str(self.workdir / f"io{rep}{tag}"), self.size)

    def call(self, job: workloads.Job, trace: bool) -> dict | None:
        """One CLI call on `job`, its outputs checked; returns its timings,
        output bytes and check, or None if it failed."""
        ops = workloads.operations(job)
        self.attempted += ops
        spans = str(STATE / f"spans-{job.workload}.jsonl") if trace else None
        result, reason = self._child({"mode": "cli", "argv": job.argv, "trace": trace, "spans_path": spans})
        if result is None or result["rc"] != 0:
            self.failed += ops
            self.problems.append(reason or f"CLI exited {result['rc']}")
            return None
        check = workloads.check(job, result["stdout"], str(SRC))
        self.failed += check.failed
        self.problems.extend(check.problems)
        result["check"] = check
        result["output"] = (Path(job.out).read_bytes(), result["stdout"])
        result["trace_files"], result["trace_bytes"] = _dir_stats(job.trace_dir)
        return result


def _median(values):
    return statistics.median(values) if values else None


def _dir_stats(path: str | None) -> tuple[int, int]:
    if not path or not os.path.isdir(path):
        return 0, 0
    files = [os.path.join(path, f) for f in os.listdir(path)]
    return len(files), sum(os.path.getsize(f) for f in files)


def _keep_going(runner: Runner, deadline: float, durations: list, done: int, minimum: int) -> bool:
    """Another round fits: none failed, the run limit leaves room for two
    more, and the deadline for one more unless fewer than `minimum` ran."""
    if runner.failed or runner.remaining() < 2 * max(durations):
        return False
    return done < minimum or time.perf_counter() + statistics.median(durations) <= deadline


def _scaled(seconds: float, gauge_s: float) -> float:
    """A time measured next to gauge reading `gauge_s`, at the reference
    host speed."""
    return seconds * GAUGE_REF_S / gauge_s


def measure_end_to_end(runner: Runner, deadline: float, min_reps: int) -> tuple[dict, dict]:
    done, durations = [], []
    while True:
        start = time.perf_counter()
        result = runner.call(runner.job(len(durations)), trace=False)
        durations.append(time.perf_counter() - start)
        if result is not None:
            done.append(result)
        if not _keep_going(runner, deadline, durations, len(done), min_reps):
            break
    runner.close()
    if not done:
        return {}, {}
    wall = [_scaled(r["wall_s"], r["gauge_s"]) for r in done]
    samples = {
        "setup_s": [_scaled(s["setup_s"], s["gauge_s"]) for s in runner.setups],
        "wall_s": wall,
        "ops_per_s": [r["check"].work / w for r, w in zip(done, wall)],
        "peak_rss_mb": [r["maxrss_kib"] / 1024.0 for r in done],
        "raw_setup_s": [s["setup_s"] for s in runner.setups],
        "raw_wall_s": [r["wall_s"] for r in done],
        "gauge_s": [r["gauge_s"] for r in done],
    }
    return {name: _median(values) for name, values in samples.items()}, samples


def measure_per_layer(runner: Runner, deadline: float) -> tuple[dict, dict]:
    metrics = runner.micro()
    plain, traced, durations = [], [], []
    while True:
        start = time.perf_counter()
        rep = len(durations)
        # The same inputs, untraced and traced, in separate directories.
        jobs = (runner.job(rep, "a"), runner.job(rep, "b"))
        pair = [runner.call(jobs[0], trace=False), runner.call(jobs[1], trace=True)]
        durations.append(time.perf_counter() - start)
        if None not in pair:
            if pair[0]["output"] != pair[1]["output"]:
                # Tracing must not change what the program computes.
                runner.failed += workloads.operations(jobs[1])
                runner.problems.append("traced output differs from the untraced one")
            plain.append(pair[0])
            traced.append(pair[1])
        if not _keep_going(runner, deadline, durations, len(traced), MIN_TRACED_PAIRS):
            break
    runner.close()
    if not traced:
        return {}, {}
    layers = [r["layers"] for r in traced]
    for name in set().union(*layers):
        metrics[name] = _median([layer[name] for layer in layers if name in layer])
    traced_wall = [r["wall_s"] for r in traced]
    plain_wall = [r["wall_s"] for r in plain]
    metrics["trace_overhead"] = _median(traced_wall) / _median(plain_wall)
    per_rep = {
        "experiments.trace_files": lambda r: r["trace_files"],
        "experiments.trace_bytes": lambda r: r["trace_bytes"],
        "experiments.tau_over_lnL": lambda r: r["check"].extra.get("tau_over_lnL", 0.0),
        "dissimilarity.degenerate_pairs": lambda r: r["check"].extra.get("degenerate_pairs", 0),
        "dissimilarity.floored_cells": lambda r: r["check"].extra.get("floored_cells", 0),
        "cli.out_bytes": lambda r: len(r["output"][0]),
    }
    for name, get in per_rep.items():
        metrics[name] = _median([get(r) for r in traced])
    return metrics, {"traced_wall_s": traced_wall, "plain_wall_s": plain_wall}


def run_record(workload: str, seed: int, trace: bool) -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_start": list(os.getloadavg()),
        "gauge_s": statistics.median(child.gauge()),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full", min_reps: int = MIN_REPS):
    """Run one benchmark; returns (result line dict, run record, samples)."""
    started = time.perf_counter()
    deadline = started + seconds
    record = run_record(workload, seed, trace)
    workdir = STATE / "work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(workload, seed, size, workdir, started, seconds)
    try:
        if trace:
            values, samples = measure_per_layer(runner, deadline)
            units = PER_LAYER
        else:
            values, samples = measure_end_to_end(runner, deadline, min_reps)
            units = END_TO_END
    finally:
        runner.close(kill=True)
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in units.items() if values.get(name) is not None
    }
    result = {
        "correct": runner.failed == 0 and not runner.problems,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": metrics,
    }
    record["problems"] = runner.problems
    return result, record, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark still stops its servers (see `run`).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "oddball" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'oddball'} is missing", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2

    result, record, samples = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for problem in record["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if len(record["problems"]) > 20:
        print(f"... and {len(record['problems']) - 20} more", file=sys.stderr)
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    out = results / f"{args.workload}-trace{args.trace}-seed{args.seed}-{stamp}.json"
    out.write_text(json.dumps({"record": record, "result": result, "samples": samples}, indent=1) + "\n")
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
