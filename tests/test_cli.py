"""End-to-end tests of the command-line front end.

Every test drives oddball.cli.main with an argv list and inspects the
return code plus captured stdout/stderr or files written via --out.
Numerical values are compared against the library calls the commands
delegate to; JSON float round-trips are exact, so == is used freely.
"""

import importlib.util
import json
import math
import os
import re
import signal
import subprocess
import sys
import timeit
from pathlib import Path

import numpy as np
import pytest

import oddball
from oddball import _native, cli
from oddball.cli import main
from oddball.dissimilarity import MATRIX_HEADER, FiringRateTable, pairwise_dstar
from oddball.experiments import (
    REPORT_HEADER,
    ExperimentSpec,
    drift_experiment,
    error_upper_confidence,
    run_experiment,
)
from oddball.policy import PolicyConfig, run_trial
from oddball.solver import (
    CURVE_HEADER,
    OddConfig,
    curve_rows,
    d_star,
    lower_bound_expected_tau,
    solve_lambda_star,
)

DEGENERATE_WARNING = (
    "r1 == r2: the configuration is undetectable; weights are the nu -> 1/2 extension"
)

RATES_CSV = """image_id,c1
a,1.0
b,4.0
c,9.0
"""

SPEC = {
    "k": 3,
    "odd_index": 1,
    "r1": 8.0,
    "r2": 1.0,
    "l_grid": [5.0, 20.0],
    "trials": 30,
    "seed": 0,
}

# Runs `simulate --jobs 2` on the spec at argv[1], printing "level <l>" as
# a worker block starts level l.
LEVELS_PROBE = """
import sys
import oddball.experiments as experiments
from oddball.cli import main
seeded_trials = experiments._seeded_trials
def announced(config, truth, prefix, *args, **kwargs):
    sys.stdout.write(f"level {prefix[1]}\\n")  # one write: the two blocks' lines never mix
    sys.stdout.flush()
    return seeded_trials(config, truth, prefix, *args, **kwargs)
experiments._seeded_trials = announced
sys.exit(main(["simulate", "--spec", sys.argv[1], "--jobs", "2"]))
"""


GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    """Invoke the CLI once and return (exit code, stdout, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDstarCommand:
    def test_payload_matches_solver(self, capsys):
        """dstar emits the solver's values under stable key names."""
        code, out, err = run_cli(capsys, "dstar", "--k", "3", "--r1", "1.0", "--r2", "2.0")
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        sol = solve_lambda_star(OddConfig(3, 1, 1.0, 2.0))
        assert set(payload) == {"k", "d_star", "lambda_odd", "lambda_vector", "r_tilde", "nu"}
        assert payload["k"] == 3
        assert payload["d_star"] == sol.d_star
        assert payload["lambda_odd"] == sol.lam_odd
        assert payload["lambda_vector"] == list(sol.lam)
        assert payload["r_tilde"] == list(sol.r_tilde)
        assert payload["nu"] == OddConfig(3, 1, 1.0, 2.0).nu

    def test_lambda_hat_not_exposed(self, capsys):
        code, out, _ = run_cli(capsys, "dstar", "--k", "4", "--r1", "3.0", "--r2", "1.0")
        assert code == 0
        assert "lambda_hat" not in json.loads(out)

    def test_vector_rates_have_null_nu(self, capsys):
        """Multi-channel configurations carry no scalar rate ratio."""
        code, out, _ = run_cli(capsys, "dstar", "--k", "3", "--r1", "1.0,5.0", "--r2", "2.0,2.0")
        assert code == 0
        payload = json.loads(out)
        assert payload["nu"] is None
        sol = solve_lambda_star(OddConfig(3, 1, (1.0, 5.0), (2.0, 2.0)))
        assert payload["d_star"] == sol.d_star

    def test_degenerate_configuration_warns(self, capsys):
        """Equal rates produce the extension weights plus a warning."""
        code, out, _ = run_cli(capsys, "dstar", "--k", "3", "--r1", "2.0", "--r2", "2.0")
        assert code == 0
        payload = json.loads(out)
        assert payload["warning"] == DEGENERATE_WARNING
        ext = solve_lambda_star(OddConfig(3, 1, 2.0, 2.0))
        assert payload["d_star"] == 0.0
        assert payload["lambda_odd"] == ext.lam_odd
        assert payload["lambda_vector"] == list(ext.lam)

    def test_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "dstar.json"
        code, out, _ = run_cli(
            capsys, "dstar", "--k", "3", "--r1", "1.0", "--r2", "2.0", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["d_star"] == solve_lambda_star(OddConfig(3, 1, 1.0, 2.0)).d_star


class TestLambdaCommand:
    def test_keeps_lambda_hat(self, capsys):
        code, out, _ = run_cli(capsys, "lambda", "--k", "3", "--r1", "1.0", "--r2", "2.0")
        assert code == 0
        payload = json.loads(out)
        sol = solve_lambda_star(OddConfig(3, 1, 1.0, 2.0))
        assert payload["lambda_hat"] == sol.lam_hat

    def test_superset_of_dstar_payload(self, capsys):
        """lambda output is the dstar output plus the 1-D weight."""
        code, lam_out, _ = run_cli(capsys, "lambda", "--k", "5", "--r1", "2.0", "--r2", "3.0")
        assert code == 0
        code, dstar_out, _ = run_cli(capsys, "dstar", "--k", "5", "--r1", "2.0", "--r2", "3.0")
        assert code == 0
        lam_payload = json.loads(lam_out)
        lam_payload.pop("lambda_hat")
        assert lam_payload == json.loads(dstar_out)

    @pytest.mark.parametrize("r1, r2, nu", [("1.5e308", "1e308", 0.6), ("1e308", "1e308", 0.5)])
    def test_nu_survives_an_overflowing_rate_sum(self, capsys, r1, r2, nu):
        """r1 + r2 overflows here; nu is still r1 / (r1 + r2)."""
        code, out, _ = run_cli(capsys, "lambda", "--k", "3", "--r1", r1, "--r2", r2)
        assert code == 0
        assert json.loads(out)["nu"] == nu


class TestCurveCommand:
    def test_csv_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "--k-list", "3,5", "--nu-steps", "21")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == CURVE_HEADER
        rows = curve_rows([3, 5], 21)
        assert len(lines) == 1 + len(rows)
        expected = [
            f"{k},{nu:.12g},{lam_odd:.12g},{lam_hat:.12g},{scaled:.12g}"
            for k, nu, lam_odd, lam_hat, scaled in rows
        ]
        assert lines[1:] == expected

    def test_rejects_empty_k_list(self, capsys):
        code, _, err = run_cli(capsys, "curve", "--k-list", "", "--nu-steps", "21")
        assert code == 2
        assert err.startswith("error: ")

    def test_rejects_single_step_grid(self, capsys):
        code, _, err = run_cli(capsys, "curve", "--k-list", "3", "--nu-steps", "1")
        assert code == 2
        assert err.startswith("error: ")


class TestSimulateCommand:
    def test_report_matches_library(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC), encoding="utf-8")
        code, out, err = run_cli(capsys, "simulate", "--spec", str(spec_path))
        assert code == 0
        assert err == ""
        assert out == run_experiment(ExperimentSpec.from_dict(SPEC)).to_csv()
        assert out.splitlines()[0] == REPORT_HEADER

    def test_jobs_do_not_change_output(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC), encoding="utf-8")
        code, serial, _ = run_cli(capsys, "simulate", "--spec", str(spec_path))
        assert code == 0
        code, parallel, _ = run_cli(capsys, "simulate", "--spec", str(spec_path), "--jobs", "2")
        assert code == 0
        assert parallel == serial

    def test_error_in_a_worker_block_exits_two(self, capsys, tmp_path):
        # A rate past numpy's Poisson limit passes the spec's checks and
        # fails inside the block that runs the trials, on any worker count.
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(dict(SPEC, r1=1e19)), encoding="utf-8")
        for jobs in ("1", "2"):
            code, out, err = run_cli(capsys, "simulate", "--spec", str(spec_path), "--jobs", jobs)
            assert (code, out) == (2, "")
            assert err == "error: rates above 9.223372006e+18 are past numpy's Poisson sampler\n"

    def test_ctrl_c_starts_no_further_level(self, tmp_path):
        # SIGINT during the first level of a 4-level `simulate --jobs 2`
        # (~0.5 s per level and block): each worker block ends the level
        # it runs and starts no other, so at most two of the eight level
        # calls run (one, when the signal comes before the second block
        # has started). The command then exits 130 with one line on
        # stderr, not a traceback.
        spec = dict(SPEC, r1=1.0, r2=1.3, l_grid=[1e6, 2e6, 4e6, 8e6], trials=800)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        src = str(Path(oddball.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen(
            [sys.executable, "-c", LEVELS_PROBE, str(spec_path)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            first = proc.stdout.readline()
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert first == "level 0\n", err
        lines = [line for line in err.splitlines() if "kernel unavailable" not in line]
        assert (proc.returncode, lines) == (130, ["interrupted"])
        assert (first + out).splitlines() in (["level 0"], ["level 0", "level 0"])

    def test_trace_dir_is_created_and_filled(self, capsys, tmp_path):
        spec = dict(SPEC, trials=10, trace_sampling=0.25)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        trace_dir = tmp_path / "traces" / "run1"
        code, _, _ = run_cli(
            capsys, "simulate", "--spec", str(spec_path), "--trace-dir", str(trace_dir)
        )
        assert code == 0
        files = sorted(p.name for p in trace_dir.iterdir())
        assert len(files) == 6
        assert all(name.endswith(".jsonl") for name in files)

    def test_malformed_spec_reports_position(self, capsys, tmp_path):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text('{"k": 3,\n  "odd_index": }\n', encoding="utf-8")
        code, _, err = run_cli(capsys, "simulate", "--spec", str(spec_path))
        assert code == 2
        assert err.startswith("error: spec JSON parse error at line 2 column")

    def test_missing_spec_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--spec", str(tmp_path / "absent.json"))
        assert code == 2
        assert "cannot read spec file" in err

    def test_unknown_spec_key(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(dict(SPEC, bogus=1)), encoding="utf-8")
        code, _, err = run_cli(capsys, "simulate", "--spec", str(spec_path))
        assert code == 2
        assert err.startswith("error: ")


class TestDriftCommand:
    ARGV = (
        "drift",
        "--k", "3",
        "--odd", "1",
        "--r1", "1.0",
        "--r2", "2.0",
        "--slots", "400",
        "--seed", "0",
        "--num-seeds", "3",
    )

    def test_summary_json(self, capsys):
        """Stdout JSON is the library summary plus the solver targets."""
        code, out, err = run_cli(capsys, *self.ARGV)
        assert code == 0
        assert err == ""
        result = drift_experiment(OddConfig(3, 1, 1.0, 2.0), 400, [0, 1, 2])
        expected = {
            "lambda_star": list(result.lambda_star),
            "mixed_rate": result.mixed_rate,
            **result.summary(),
        }
        assert json.loads(out) == expected

    def test_out_writes_checkpoint_csv(self, capsys, tmp_path):
        path = tmp_path / "drift.csv"
        code, out, _ = run_cli(capsys, *self.ARGV, "--out", str(path))
        assert code == 0
        # Summary JSON still goes to stdout; the CSV goes to the file.
        assert json.loads(out)["seeds"] == 3
        result = drift_experiment(OddConfig(3, 1, 1.0, 2.0), 400, [0, 1, 2])
        assert path.read_text(encoding="utf-8") == result.to_csv()

    def test_checkpoints_flag(self, capsys, tmp_path):
        path = tmp_path / "drift.csv"
        code, _, _ = run_cli(
            capsys, *self.ARGV, "--checkpoints", "100,400", "--out", str(path)
        )
        assert code == 0
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 3 * 2

    @pytest.mark.parametrize("text", ["1,,2", ""])
    def test_rejects_malformed_checkpoints(self, text, capsys):
        code, _, err = run_cli(capsys, *self.ARGV, "--checkpoints", text)
        assert code == 2
        assert "--checkpoints" in err

    def test_rejects_negative_seed(self, capsys):
        """A negative seed is invalid input (exit 2), not a runtime failure."""
        code, out, err = run_cli(capsys, *self.ARGV, "--seed", "-5")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "seed" in err


class TestBoundCommand:
    def test_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--k", "3", "--r1", "1.0", "--r2", "2.0", "--alpha", "0.001"
        )
        assert code == 0
        payload = json.loads(out)
        config = OddConfig(3, 1, 1.0, 2.0)
        assert payload == {
            "k": 3,
            "alpha": 0.001,
            "d_star": solve_lambda_star(config).d_star,
            "lower_bound": lower_bound_expected_tau(config, 0.001),
            "degenerate": False,
        }

    def test_degenerate_bound_is_null(self, capsys):
        """An undetectable configuration has no finite bound."""
        code, out, _ = run_cli(
            capsys, "bound", "--k", "3", "--r1", "2.0", "--r2", "2.0", "--alpha", "0.01"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["d_star"] == 0.0
        assert payload["lower_bound"] is None
        assert payload["degenerate"] is True

    def test_rejects_alpha_outside_unit_interval(self, capsys):
        code, _, err = run_cli(
            capsys, "bound", "--k", "3", "--r1", "1.0", "--r2", "2.0", "--alpha", "1.5"
        )
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize("alpha", ["1", "0", "-0.5", "nan", "inf"])
    def test_alpha_is_checked_by_its_flag_before_the_solve(self, capsys, monkeypatch, alpha):
        """An --alpha outside (0, 1) is named by its flag, and refused
        before the configuration is solved."""
        monkeypatch.setattr(cli, "solve_lambda_star", lambda config: pytest.fail("solved"))
        code, out, err = run_cli(
            capsys, "bound", "--k", "3", "--r1", "1.0", "--r2", "2.0", "--alpha", alpha
        )
        assert (code, out) == (2, "")
        assert err == f"error: --alpha must be a finite number in (0, 1), got {float(alpha)!r}\n"


class TestIndexCommand:
    def test_matrix_matches_library(self, capsys, tmp_path):
        rates_path = tmp_path / "rates.csv"
        rates_path.write_text(RATES_CSV, encoding="utf-8")
        code, out, _ = run_cli(capsys, "index", "--rates", str(rates_path), "--k", "3")
        assert code == 0
        table = FiringRateTable.from_csv(RATES_CSV)
        assert out == pairwise_dstar(table, 3).to_csv()
        lines = out.splitlines()
        assert lines[0] == MATRIX_HEADER
        assert len(lines) == 1 + 3 * 2

    def test_floor_flag_is_forwarded(self, capsys, tmp_path):
        text = "image_id,c1\na,1.0\nb,0.0\nc,9.0\n"
        rates_path = tmp_path / "rates.csv"
        rates_path.write_text(text, encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "index", "--rates", str(rates_path), "--k", "3", "--floor", "0.5"
        )
        assert code == 0
        assert out == pairwise_dstar(FiringRateTable.from_csv(text, floor=0.5), 3).to_csv()

    def test_missing_rates_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "index", "--rates", str(tmp_path / "absent.csv"), "--k", "3"
        )
        assert code == 2
        assert "cannot read firing-rate CSV" in err

    def test_malformed_rates_report_line(self, capsys, tmp_path):
        rates_path = tmp_path / "rates.csv"
        rates_path.write_text("image_id,c1\na,1.0\nb,fast\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "index", "--rates", str(rates_path), "--k", "3")
        assert code == 2
        assert "line 3" in err


class TestAnalyzeCommand:
    def _write_dataset(self, tmp_path, repeats):
        """Noise-free delays: mean delay exactly 2 / index for each pair."""
        rates_path = tmp_path / "rates.csv"
        rates_path.write_text(RATES_CSV, encoding="utf-8")
        pairs = [("a", "b"), ("b", "a"), ("a", "c"), ("c", "b")]
        lines = ["odd_id,distractor_id,delay"]
        for odd, dist in pairs:
            rate_odd = {"a": 1.0, "b": 4.0, "c": 9.0}[odd]
            rate_dist = {"a": 1.0, "b": 4.0, "c": 9.0}[dist]
            delay = 2.0 / d_star(OddConfig(3, 1, rate_odd, rate_dist))
            lines.extend(f"{odd},{dist},{delay!r}" for _ in range(repeats))
        delays_path = tmp_path / "delays.csv"
        delays_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return rates_path, delays_path

    def test_noise_free_metrics(self, capsys, tmp_path):
        """Reciprocal delays give perfect correlation; infinities become
        the string "inf" in the JSON output."""
        rates_path, delays_path = self._write_dataset(tmp_path, repeats=2)
        code, out, _ = run_cli(
            capsys,
            "analyze", "--rates", str(rates_path), "--delays", str(delays_path), "--k", "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pairs"] == 4
        assert payload["pearson_r"] > 1.0 - 1e-9
        assert payload["log_am_gm"] < 1e-9
        assert payload["anova_f"] == "inf"
        assert payload["anova_p"] == 0.0

    def test_nan_encoded_as_null(self, capsys, tmp_path):
        """Single-sample pairs leave the variance test undefined."""
        rates_path, delays_path = self._write_dataset(tmp_path, repeats=1)
        code, out, _ = run_cli(
            capsys,
            "analyze", "--rates", str(rates_path), "--delays", str(delays_path), "--k", "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["anova_f"] is None
        assert payload["anova_p"] is None
        assert payload["pearson_r"] > 1.0 - 1e-9

    def test_missing_delays_file(self, capsys, tmp_path):
        rates_path = tmp_path / "rates.csv"
        rates_path.write_text(RATES_CSV, encoding="utf-8")
        code, _, err = run_cli(
            capsys,
            "analyze",
            "--rates", str(rates_path),
            "--delays", str(tmp_path / "absent.csv"),
            "--k", "3",
        )
        assert code == 2
        assert "cannot read delays CSV" in err


class TestExitDiscipline:
    def test_domain_error_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "dstar", "--k", "2", "--r1", "1.0", "--r2", "2.0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_unparsable_rate_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "dstar", "--k", "3", "--r1", "fast", "--r2", "2.0")
        assert code == 2
        assert "--r1 must be a comma-separated list of numbers" in err

    def test_empty_rate_segment_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "dstar", "--k", "3", "--r1", "1,,2", "--r2", "2.0")
        assert code == 2
        assert "--r1" in err

    def test_missing_required_flag_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "dstar", "--k", "3", "--r1", "1.0")
        assert code == 2

    def test_unknown_command_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_no_command_exits_two(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_non_integer_k_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "dstar", "--k", "three", "--r1", "1.0", "--r2", "2.0")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "oddball" in out

    def test_unwritable_out_is_runtime_failure(self, capsys, tmp_path):
        """I/O faults outside input validation exit 1, not 2."""
        target = tmp_path / "no_such_dir" / "out.json"
        code, _, err = run_cli(
            capsys, "dstar", "--k", "3", "--r1", "1.0", "--r2", "2.0", "--out", str(target)
        )
        assert code == 1
        assert err.startswith("runtime failure: ")


DSTAR = ("dstar", "--k", "3", "--r1", "1.0", "--r2", "2.0")

# Every flag of each command, in the order its help lists them.
COMMAND_FLAGS = {
    "dstar": ["--k", "--r1", "--r2", "--out"],
    "lambda": ["--k", "--r1", "--r2", "--out"],
    "curve": ["--k-list", "--nu-steps", "--out"],
    "simulate": ["--jobs", "--spec", "--trace-dir", "--out"],
    "drift": [
        "--jobs", "--k", "--odd", "--r1", "--r2", "--slots", "--seed", "--num-seeds",
        "--checkpoints", "--out",
    ],
    "bound": ["--k", "--r1", "--r2", "--alpha", "--out"],
    "index": ["--jobs", "--rates", "--k", "--floor", "--out"],
    "analyze": ["--rates", "--delays", "--k", "--floor", "--out"],
}

# A complete argv of each command without `--jobs`; the files need not
# exist, since a usage error stops the call before they are read.
NO_JOBS_ARGV = {
    "dstar": DSTAR,
    "lambda": ("lambda", *DSTAR[1:]),
    "curve": ("curve", "--k-list", "3", "--nu-steps", "5"),
    "bound": ("bound", *DSTAR[1:], "--alpha", "0.1"),
    "analyze": ("analyze", "--rates", "r.csv", "--delays", "d.csv", "--k", "3"),
}


class TestGrammar:
    """How argv is read, pinned as argparse read it: the `=` form, unique
    prefixes, repeats, negative numbers as values, help on stdout with
    exit 0, and usage errors on stderr with exit 2."""

    def test_equals_form(self, capsys):
        code, out, err = run_cli(capsys, "dstar", "--k=3", "--r1=1.0", "--r2", "2.0")
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, *DSTAR)[1]

    @pytest.mark.parametrize("flag", [("--num", "2"), ("--num-s=2",)])
    def test_unique_prefix(self, capsys, flag):
        argv = TestDriftCommand.ARGV[:-2]  # without --num-seeds
        code, out, err = run_cli(capsys, *argv, *flag)
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, *argv, "--num-seeds", "2")[1]

    def test_repeated_flag_last_wins(self, capsys):
        code, out, err = run_cli(capsys, "dstar", "--k", "7", *DSTAR[1:], "--r1", "4.0")
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, "dstar", "--k", "3", "--r1", "4.0", "--r2", "2.0")[1]

    @pytest.mark.parametrize(
        "argv",
        [
            (*TestDriftCommand.ARGV, "--seed", "-3"),
            (*TestDriftCommand.ARGV, "--seed=-3"),
            ("bound", *DSTAR[1:], "--alpha", "-.5"),
            ("dstar", "--k", "-3", "--r1", "1.0", "--r2", "2.0"),
        ],
    )
    def test_negative_number_is_a_value(self, capsys, argv):
        # The library refuses the value: a DomainError, not a usage error.
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "usage:" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            ((), "oddball: error: the following arguments are required: command"),
            (
                ("frobnicate",),
                "oddball: error: argument command: invalid choice: 'frobnicate' (choose from "
                "'dstar', 'lambda', 'curve', 'simulate', 'drift', 'bound', 'index', 'analyze')",
            ),
            ((*DSTAR, "--bogus"), "oddball: error: unrecognized arguments: --bogus"),
            ((*DSTAR, "x", "y"), "oddball: error: unrecognized arguments: x y"),
            (("dstar", "--k"), "oddball dstar: error: argument --k: expected one argument"),
            (
                (*DSTAR, "--out", "--jobs"),
                "oddball dstar: error: argument --out: expected one argument",
            ),
            (
                ("dstar", "--k", "3", "--r1", "-1e5", "--r2", "2.0"),
                "oddball dstar: error: argument --r1: expected one argument",
            ),
            (
                ("drift", "--k", "3"),
                "oddball drift: error: the following arguments are required: "
                "--odd, --r1, --r2, --slots, --seed",
            ),
            (
                ("dstar", "--k", "three", "--r1", "1.0", "--r2", "2.0"),
                "oddball dstar: error: argument --k: invalid int value: 'three'",
            ),
            (
                ("bound", *DSTAR[1:], "--alpha", "half"),
                "oddball bound: error: argument --alpha: invalid float value: 'half'",
            ),
            (
                (*TestDriftCommand.ARGV, "--s", "5"),
                "oddball drift: error: ambiguous option: --s could match --slots, --seed",
            ),
            (
                ("dstar", "--k", "3", "--r", "1.0"),
                "oddball dstar: error: ambiguous option: --r could match --r1, --r2",
            ),
        ],
    )
    def test_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: oddball") and err.endswith("\n" + message + "\n"), err

    @pytest.mark.parametrize("command", sorted(NO_JOBS_ARGV))
    def test_jobs_only_where_work_is_spread(self, capsys, command):
        code, _, err = run_cli(capsys, *NO_JOBS_ARGV[command], "--jobs", "2")
        assert code == 2
        assert err.endswith("oddball: error: unrecognized arguments: --jobs 2\n"), err

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    @pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
    def test_command_help_lists_every_flag(self, capsys, command, flag):
        # Help comes before the check of required flags.
        code, out, err = run_cli(capsys, command, flag)
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: oddball {command} ")
        assert set(re.findall(r"--[a-z][\w-]*", out)) == {*COMMAND_FLAGS[command], "--help"}

    def test_help_lists_every_command(self, capsys):
        code, out, err = run_cli(capsys, "-h")
        assert (code, err) == (0, "")
        assert out.startswith("usage: oddball ")
        for command in COMMAND_FLAGS:
            assert re.search(rf"^\s+{command}\s", out, re.MULTILINE), command

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["oddball", *DSTAR])
        code = main()
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert captured.out == run_cli(capsys, *DSTAR)[1]


class TestGoldenReports:
    """Report bytes pinned by the files in tests/golden.

    A change that alters these bytes must be deliberate: regenerate the
    files and say why. Full-precision JSON outputs (`lambda`, `dstar`,
    the `drift` summary) are not pinned; they move in the last digits
    whenever the root finder's iterates do.
    """

    def test_simulate_report(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--spec", str(GOLDEN / "simulate_spec.json"))
        assert code == 0 and err == ""
        assert out == (GOLDEN / "simulate_report.csv").read_text(encoding="utf-8")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_index_matrix(self, capsys, jobs):
        # A floored cell (imgA n2, imgD n3) and a duplicate image (imgE = imgA).
        code, out, err = run_cli(
            capsys, "index", "--rates", str(GOLDEN / "index_rates.csv"), "--k", "4", "--jobs", jobs
        )
        assert code == 0 and err == ""
        assert out == (GOLDEN / "index_matrix.csv").read_text(encoding="utf-8")


# Runs a traced `simulate` whose rows have errors > 0 (so error_ci_hi comes
# off its closed form), a checkpointed `drift` and `index` at --jobs argv[3],
# then `analyze` (an anova p-value) and `curve`; prints the heavy modules,
# and `oddball.reference`, loaded after the first three and again after
# `curve`.
COMMANDS_PROBE = """
import csv, json, os, sys
from oddball.cli import main
work, golden, jobs = sys.argv[1:]
def heavy():
    roots = ("numpy", "scipy", "multiprocessing", "concurrent")
    return sorted(m for m in sys.modules if m.split(".")[0] in roots or m == "oddball.reference")
spec = os.path.join(work, "spec.json")
with open(spec, "w") as fh:
    json.dump(dict(k=3, odd_index=2, r1=1.3, r2=1.0, l_grid=[1.0, 1.2], trials=40, seed=31,
                   trace_sampling=0.1), fh)
report, traces = os.path.join(work, "report.csv"), os.path.join(work, "traces")
assert main(["simulate", "--spec", spec, "--out", report, "--trace-dir", traces,
             "--jobs", jobs]) == 0
with open(report) as fh:
    assert all(int(row["errors"]) > 0 for row in csv.DictReader(fh))
assert len(os.listdir(traces)) == 8
assert main(["drift", "--k", "3", "--odd", "1", "--r1", "1", "--r2", "2", "--slots", "500",
             "--seed", "0", "--num-seeds", "2", "--checkpoints", "50,200", "--jobs", jobs,
             "--out", os.path.join(work, "drift.csv")]) == 0
assert main(["index", "--rates", os.path.join(golden, "index_rates.csv"), "--k", "4",
             "--jobs", jobs, "--out", os.path.join(work, "index.csv")]) == 0
print(json.dumps(heavy()))
assert main(["analyze", "--rates", os.path.join(golden, "index_rates.csv"), "--delays",
             os.path.join(golden, "analyze_delays.csv"), "--k", "4",
             "--out", os.path.join(work, "analyze.json")]) == 0
assert main(["curve", "--k-list", "3,5", "--nu-steps", "21",
             "--out", os.path.join(work, "curve.csv")]) == 0
print(json.dumps(heavy()))
"""

# Top-level modules, apart from private ones ("_csv"), that `import
# oddball.cli` may load beyond those the interpreter starts with: the
# standard library's light modules. numpy, scipy, subprocess, tempfile and
# concurrent are not among them, nor dataclasses (with inspect, ast and
# tokenize), statistics (with decimal and fractions) or argparse (with
# gettext and locale).
CLI_IMPORTS = {
    "array", "bisect", "collections", "contextlib", "copyreg", "csv", "ctypes", "enum",
    "functools", "genericpath", "importlib", "itertools", "json", "keyword", "math", "oddball",
    "operator", "os", "posixpath", "re", "reprlib", "stat", "struct", "threading", "types",
}


def _run_python(*argv: str) -> str:
    """stdout of a fresh interpreter run with this package first on its path."""
    src = str(Path(oddball.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestImportCost:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_commands_load_no_numpy_scipy_or_pool(self, tmp_path, jobs):
        """numpy took ~150 ms and ~13 MiB of a CLI call's start-up,
        scipy.special alone ~270 ms, multiprocessing ~10 ms and
        concurrent.futures ~5 ms. With the kernel, `simulate`, `drift` and
        `index` need none of them, bar the thread pool of --jobs 2, and
        `analyze` and `curve` add none; none of the five loads
        `oddball.reference`, the Python twin of the kernel, whose compile
        would land inside a call. Without the kernel the trials run on
        numpy's generators and the Python loop, so only numpy and
        `oddball.reference` are then allowed."""
        # Built here, so the probe loads it from the cache.
        has_kernel = _native.kernel() is not None
        out = _run_python("-c", COMMANDS_PROBE, str(tmp_path), str(GOLDEN), jobs)
        commands, after_curve = map(json.loads, out.splitlines()[-2:])  # after drift's summary

        def light(modules):
            return [m for m in modules if m.split(".")[0] != "numpy" and m != "oddball.reference"]

        if has_kernel:
            assert light(commands) == commands
            assert after_curve == commands
        if jobs == "1":
            assert light(commands) == []
        else:
            assert {m.split(".")[0] for m in light(commands)} == {"concurrent"}
        assert light(after_curve) == light(commands)

    def test_cli_import_loads_only_allowed_modules(self):
        """The modules `import oddball.cli` adds, compared with an
        allow-list rather than timed: a heavy import fails here at once."""
        probe = (
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "import oddball.cli\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n"
        )
        added = set(json.loads(_run_python("-c", probe)))
        assert {m.split(".")[0] for m in added if not m.startswith("_")} - CLI_IMPORTS == set()
        assert "oddball.reference" not in added

    def test_package_names_resolve_without_numpy(self):
        """Every public name of the package and of its modules is listed
        by `dir` before it is first read, and resolves without numpy,
        the names that live in `oddball.reference` included."""
        probe = (
            "import sys, oddball\n"
            "from oddball import dissimilarity, glr, numerics, policy, solver\n"
            "modules = (oddball, dissimilarity, glr, numerics, policy, solver)\n"
            "print([n for m in modules for n in m.__all__ if n not in dir(m)],"
            " [n for m in modules for n in m.__all__ if not hasattr(m, n)],"
            " 'numpy' in sys.modules)\n"
        )
        assert _run_python("-c", probe).strip() == "[] [] False"

    def test_array_fields_are_read_only_numpy_arrays(self):
        """A table's `rates` and `floored` and a matrix's `values`,
        `degenerate` and `floored_cells` are read-only numpy arrays with
        the values numpy computes from the table's rows."""
        text = (GOLDEN / "index_rates.csv").read_text(encoding="utf-8")
        raw = np.array([line.split(",")[1:] for line in text.splitlines()[1:]], dtype=float)
        table = FiringRateTable.from_csv(text)
        matrix = pairwise_dstar(table, 4)
        floored = raw < table.floor
        rates = np.where(floored, table.floor, raw)
        degenerate = (rates[:, None] == rates[None]).all(2)
        flagged = floored.sum(axis=1)
        cells = flagged[:, None] + flagged[None]
        np.fill_diagonal(cells, flagged)
        values = np.zeros(degenerate.shape)
        for a, b in zip(*np.nonzero(~degenerate)):
            values[a, b] = d_star(OddConfig(4, 1, tuple(rates[a]), tuple(rates[b])))
        assert floored.any() and degenerate.sum() > len(rates)  # a floored cell, a duplicate row
        for got, want in (
            (table.rates, rates), (table.floored, floored), (matrix.values, values),
            (matrix.degenerate, degenerate), (matrix.floored_cells, cells),
        ):
            assert isinstance(got, np.ndarray) and got.dtype == want.dtype
            assert np.array_equal(got, want)
            with pytest.raises(ValueError, match="read-only"):
                got[0, 0] = want[0, 0]

    @pytest.mark.parametrize("trials, limit_s", [(10**4, 1e-3), (10**6, 50e-3)])
    def test_error_bound_is_fast(self, trials, limit_s):
        """The Clopper-Pearson bound is pure Python, summed term by term;
        the longest sums are at half the trials."""
        for errors in (1, trials // 100, trials // 2, trials - 2):
            best = min(
                timeit.repeat(lambda: error_upper_confidence(errors, trials), number=1, repeat=5)
            )
            assert best <= limit_s, (errors, trials, best)

    def test_cli_import_builds_no_kernel(self):
        """The compiled trial kernel is built and loaded by the first
        trial, never by an import."""
        probe = "import oddball.cli, oddball._native as native; print(native._loaded)"
        assert _run_python("-c", probe).strip() == "[]"


class TestBenchmarkTargets:
    def test_traced_names_exist(self):
        """The benchmark tracer wraps library names by (module, attribute);
        a renamed or deleted one would drop its metrics without an error."""
        path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        assert tracer.TARGETS
        for module, attr, _ in tracer.TARGETS:
            assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)

    def test_read_fields_exist(self):
        """The tracer's slot count reads `PolicyConfig.warmup` and each
        outcome's `tau` and `capped`, and the micro-benchmarks build this
        non-stopping config; perfbench/micro.py drops a figure without an
        error on AttributeError or TypeError."""
        config = PolicyConfig(k=3, threshold_l=1.0, variant="non_stopping", max_slots=10)
        assert config.warmup == 3
        outcome = run_trial(config, OddConfig(3, 1, 2.0, 1.0), np.random.default_rng(0))
        assert (outcome.tau, outcome.capped) == (10, True)
