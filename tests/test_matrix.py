"""Output matrix: the bytes of a fixed set of CLI calls, pinned by digest.

Each entry of MATRIX is one `oddball` call run in process. Its digest is
the SHA-256 of what the call wrote: stdout, the `--out` file and every
trace file, each under its name. JSON is rounded to 12 significant
digits first (10 for the entries in DIGITS): its last digits move with
the root finder's iterates (see `TestGoldenReports`).
`golden/matrix.json` holds the digest of each entry with a note on why
it is there. A digest changes only on purpose, in a change that says
which bytes moved and why.

`simulate` and `drift` entries also run at `--jobs 2`, which must give the
same bytes, and those of FALLBACK on the Python loop, with the compiled
kernel made unavailable as on a machine without a compiler. `python
tests/test_matrix.py` prints the digests of the code on the path, in the
layout of `golden/matrix.json`.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from oddball import _builder, _native, policy
from oddball.cli import main as cli_main

GOLDEN = Path(__file__).parent / "golden"

# Specs of `simulate` entries, each run at the two seeds of SEEDS.
SPECS = {
    "k5": dict(k=5, odd_index=3, r1=10.0, r2=1.0, l_grid=[1e2, 1e3, 1e4], trials=60,
               trace_sampling=0.05),
    "k50": dict(k=50, odd_index=2, r1=4.0, r2=1.0, l_grid=[1e3], trials=6, trace_sampling=0.34),
    "low-rate": dict(k=3, odd_index=1, r1=0.05, r2=0.2, l_grid=[10.0, 1e3], trials=30,
                     trace_sampling=0.1),
    "poisson-limit": dict(k=3, odd_index=1, r1=policy._POISSON_LAM_MAX, r2=1.0,
                          l_grid=[10.0, 1e3], trials=8, trace_sampling=1.0),
}
SEEDS = {"seed2^64-1": 2**64 - 1, "seed2^64": 2**64}

# name: (argv after the command's own name, whether --jobs applies). "{dir}"
# is the call's scratch directory, "{golden}" the golden directory.
DRIFT = ["drift", "--k", "3", "--odd", "1", "--r1", "1", "--r2", "2", "--slots", "3000",
         "--seed", "4", "--num-seeds", "3", "--out", "{dir}/drift.csv"]
MATRIX = {
    **{
        f"simulate-{spec}-{seed}": (
            ["simulate", "--spec", f"{{dir}}/spec-{spec}-{seed}.json", "--trace-dir",
             "{dir}/traces", "--out", "{dir}/report.csv"], True)
        for spec in SPECS for seed in SEEDS
    },
    "simulate-errors": (["simulate", "--spec", "{dir}/spec-errors.json", "--out",
                         "{dir}/report.csv"], True),
    "drift-k3": (DRIFT, True),
    "drift-k3-checkpoints": ([*DRIFT, "--checkpoints", "1,2,3,10,700"], True),
    "drift-k8": (["drift", "--k", "8", "--odd", "5", "--r1", "120", "--r2", "100", "--slots",
                  "2500", "--seed", "11", "--num-seeds", "2", "--out", "{dir}/drift.csv"], True),
    "drift-lgamma": (["drift", "--k", "3", "--odd", "2", "--r1", "100", "--r2", "90", "--slots",
                      "40000", "--seed", "7", "--out", "{dir}/drift.csv"], False),
    "index": (["index", "--rates", "{golden}/index_rates.csv", "--k", "4", "--out",
               "{dir}/index.csv"], False),
    "analyze": (["analyze", "--rates", "{golden}/index_rates.csv", "--delays",
                 "{golden}/analyze_delays.csv", "--k", "4"], False),
    "dstar": (["dstar", "--k", "5", "--r1", "10", "--r2", "1"], False),
    "lambda": (["lambda", "--k", "4", "--r1", "2,0.5", "--r2", "1,1.5"], False),
    "curve": (["curve", "--k-list", "3,5,20", "--nu-steps", "9"], False),
}

# Significant digits of an entry's JSON where 12 is too many: analyze's
# anova_p comes from a continued fraction good to ~1e-12 relative, not to the
# last bit.
DIGITS = {"analyze": 10}

# Entries that take at most ~0.2 s on the Python loops. The others take
# ~1 s or more there; test_kernel.py compares low-rate bytes on both loops.
# The solver's entries pin the Python solve loop's bytes.
FALLBACK = [
    f"simulate-{spec}-{seed}" for spec in ("k5", "k50", "poisson-limit") for seed in SEEDS
]
FALLBACK += ["drift-k3", "drift-k3-checkpoints", "drift-k8"]
FALLBACK += ["index", "analyze", "lambda", "dstar", "curve"]


def _write_specs(workdir: str) -> None:
    for spec, fields in SPECS.items():
        for seed, value in SEEDS.items():
            with open(os.path.join(workdir, f"spec-{spec}-{seed}.json"), "w") as fh:
                json.dump({**fields, "seed": value}, fh)
    errors = dict(k=3, odd_index=2, r1=1.3, r2=1.0, l_grid=[1.0, 1.2, 1.5], trials=83, seed=31)
    with open(os.path.join(workdir, "spec-errors.json"), "w") as fh:
        json.dump(errors, fh)


def _rounded(obj, digits: int):
    if isinstance(obj, float):
        return float(f"{obj:.{digits}g}")
    if isinstance(obj, list):
        return [_rounded(v, digits) for v in obj]
    if isinstance(obj, dict):
        return {key: _rounded(v, digits) for key, v in obj.items()}
    return obj


def _canonical(data: bytes, digits: int) -> bytes:
    """`data` as hashed: JSON parsed, rounded and dumped again."""
    try:
        obj = json.loads(data)
    except ValueError:
        return data
    if not isinstance(obj, dict):
        return data
    return json.dumps(_rounded(obj, digits), sort_keys=True).encode()


def run_entry(name: str, workdir: str, jobs: int = 1) -> str:
    """The digest of entry `name`, run in the fresh directory `workdir`."""
    argv, takes_jobs = MATRIX[name]
    os.makedirs(os.path.join(workdir, "traces"))
    _write_specs(workdir)
    argv = [a.format(dir=workdir, golden=GOLDEN) for a in argv]
    if takes_jobs:
        argv += ["--jobs", str(jobs)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli_main(argv) == 0, name
    outputs = {"stdout": stdout.getvalue().encode()}
    for root in (workdir, os.path.join(workdir, "traces")):
        for entry in sorted(os.listdir(root)):
            path = os.path.join(root, entry)
            if os.path.isfile(path) and not entry.startswith("spec-"):
                with open(path, "rb") as fh:
                    outputs[os.path.relpath(path, workdir)] = fh.read()
    digest = hashlib.sha256()
    for key in sorted(outputs):
        body = _canonical(outputs[key], DIGITS.get(name, 12))
        digest.update(f"{key}\0{len(body)}\0".encode() + body)
    return digest.hexdigest()


def _golden() -> dict:
    with open(GOLDEN / "matrix.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_matrix_lists_every_entry():
    assert sorted(_golden()) == sorted(MATRIX)


@pytest.mark.parametrize("name", list(MATRIX))
def test_output_digest(name, tmp_path):
    want = _golden()[name]["sha256"]
    assert run_entry(name, str(tmp_path / "jobs1")) == want
    if MATRIX[name][1]:
        assert run_entry(name, str(tmp_path / "jobs2"), jobs=2) == want


def _failed_build(out, numpy_dir):
    """A `build` whose compiler fails, as `_builder.build` reports it."""
    raise OSError("cc: no input files")


@pytest.mark.parametrize("name", FALLBACK)
def test_output_digest_on_the_python_loop(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(_native, "_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(_builder, "build", _failed_build)
    monkeypatch.setattr(_native, "_loaded", [])
    assert run_entry(name, str(tmp_path / "run")) == _golden()[name]["sha256"]
    assert _native.kernel() is None
    assert "compiled trial kernel unavailable" in capsys.readouterr().err


if __name__ == "__main__":
    notes = {}
    if (GOLDEN / "matrix.json").exists():
        notes = {name: entry["note"] for name, entry in _golden().items()}
    out = {}
    for name in MATRIX:
        with tempfile.TemporaryDirectory() as workdir:
            out[name] = {"sha256": run_entry(name, workdir), "note": notes.get(name, "")}
    sys.stdout.write(json.dumps(out, indent=2) + "\n")
