"""Command line surface: exit codes, JSON schemas, CSV layouts, manifests."""

import dataclasses
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from gpcq import cli, schur_weyl
from gpcq.causal import CausalSolution, InnerSolution
from gpcq.channel import build_channel, serialize_channel
from gpcq.cli import dispatch
from gpcq.coding import SimRow
from gpcq.noncausal import ALT_EPS, GPWitness

REPO = pathlib.Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_manifest(err: str) -> dict:
    lines = [ln for ln in err.strip().split("\n") if ln]
    return json.loads(lines[-1])


class TestExitCodes:
    def test_bogus_subcommand_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "transmogrify")
        assert code == 2

    def test_stochastic_commands_require_seed(self, capsys, channel_dir):
        code, _, err = run_cli(capsys, "noncausal", str(channel_dir / "flip.chan"))
        assert code == 2
        assert "--seed" in err
        code, _, err = run_cli(
            capsys, "simulate", str(channel_dir / "flip.chan"),
            "--scheme", "causal-sequential", "--rates", "0.5", "--n", "2",
        )
        assert code == 2

    def test_threads_flag_is_usage_error(self, capsys, channel_dir):
        # Solves run serially; there is no worker-count option to set.
        code, out, err = run_cli(
            capsys, "noncausal", str(channel_dir / "stuck.chan"), "--seed", "7",
            "--threads", "2",
        )
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --threads 2" in err

    def test_coverage_requires_seed(self, capsys):
        code, _, err = run_cli(
            capsys, "types", "--op", "coverage", "--joint", "0.35,0.15;0.15,0.35",
            "--n", "8",
        )
        assert code == 2

    def test_missing_file_is_domain_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "causal", str(tmp_path / "nope.chan"))
        assert code == 1
        payload = json.loads(err.strip().split("\n")[0])
        assert payload["error"] == "io"

    def test_malformed_channel_is_domain_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.chan"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "validate", str(bad))
        assert code == 1
        payload = json.loads(err.strip().split("\n")[0])
        assert payload["error"] == "parse-error"

    def test_bad_rate_list_is_domain_error(self, capsys, channel_dir):
        code, _, err = run_cli(
            capsys, "simulate", str(channel_dir / "flip.chan"),
            "--scheme", "causal-sequential", "--rates", "fast", "--n", "2",
            "--seed", "1",
        )
        assert code == 1

    @pytest.mark.parametrize("command", ["validate", "causal", "holevo"])
    def test_non_finite_entry_is_domain_error(self, capsys, channel_dir, tmp_path, command):
        doc = json.loads((channel_dir / "flip.chan").read_text())
        doc["rho"]["0|0"][1][0][0] = float("nan")
        bad = tmp_path / "nan.chan"
        bad.write_text(json.dumps(doc))  # json writes the NaN literal
        code, out, err = run_cli(capsys, command, str(bad), "--json")
        assert code == 1
        assert out == ""
        payload = json.loads(err.strip().split("\n")[0])
        assert payload["error"] == "non-finite"
        assert "Traceback" not in err and "NaN" not in err

    @pytest.mark.parametrize(
        "argv, error",
        [
            (("noncausal", "{flip}", "--n", "2", "--aux-size", "0", "--seed", "1"), "precondition-violated"),
            (("simulate", "{flip}", "--scheme", "causal-sequential", "--rates", "0.5",
              "--n", "2", "--trials", "0", "--seed", "1"), "precondition-violated"),
            (("simulate", "{flip}", "--scheme", "noncausal-sqrt", "--rates", "0.5",
              "--n", "2", "--k", "0", "--seed", "1"), "precondition-violated"),
            (("simulate", "{flip}", "--scheme", "causal-sequential", "--rates", "nan",
              "--n", "2", "--seed", "1"), "non-finite"),
            (("simulate", "{flip}", "--scheme", "causal-sequential", "--rates", "0.5",
              "--n", "2", "--delta", "inf", "--seed", "1"), "non-finite"),
            (("types", "--op", "nearest", "--p", "nan,1", "--n", "3", "--json"), "non-finite"),
            (("types", "--op", "typical-mass", "--p", "nan,1", "--n", "3"), "non-finite"),
            (("types", "--op", "typical-mass", "--p", "0.5,0.5", "--delta", "nan",
              "--n", "3"), "non-finite"),
            (("types", "--op", "coverage", "--joint", "0.5,nan;0.25,0.25", "--n", "4",
              "--seed", "1"), "non-finite"),
            (("causal", "{flip}", "--eps", "nan", "--json"), "non-finite"),
            (("holevo", "{flip}", "--eps", "nan", "--json"), "non-finite"),
            (("types", "--op", "nearest", "--p", "0.5,0.5", "--n", "0"), "precondition-violated"),
            (("types", "--op", "class-size", "--p", "0.5,0.5", "--n", "-1"), "precondition-violated"),
            (("types", "--op", "class-size", "--p", "0.5,0.5", "--n", "0"), "precondition-violated"),
            (("types", "--op", "typical-mass", "--p", "0.5,0.5", "--n", "4,0"), "precondition-violated"),
            (("types", "--op", "typical-mass", "--p", "0.5,0.5", "--delta", "-1",
              "--n", "4"), "precondition-violated"),
            (("types", "--op", "coverage", "--joint", "0.35,0.15;0.15,0.35", "--n", "0",
              "--seed", "1"), "precondition-violated"),
            (("types", "--op", "coverage", "--joint", "0.35,0.15;0.15,0.35", "--n", "4",
              "--trials", "0", "--seed", "1"), "precondition-violated"),
            (("types", "--op", "coverage", "--joint", "0.35,0.15;0.15,0.35", "--n", "4",
              "--trials", "-3", "--seed", "1"), "precondition-violated"),
            (("types", "--op", "coverage", "--joint", "0.35,0.15;0.15,0.35", "--n", "4",
              "--k", "-1", "--seed", "1"), "precondition-violated"),
            (("types", "--op", "coverage", "--joint", "0.35,0.15;0.15,0.35", "--n", "4",
              "--delta", "-1", "--seed", "1"), "precondition-violated"),
            (("types", "--op", "coverage", "--joint", "0.5,0.5;0.25,-0.25", "--n", "4",
              "--seed", "1"), "precondition-violated"),
            (("types", "--op", "coverage", "--joint=-1,0;0,0", "--n", "4",
              "--seed", "1"), "precondition-violated"),
            (("types", "--op", "coverage", "--joint", "0,0;0,0", "--n", "4",
              "--seed", "1"), "precondition-violated"),
            (("simulate", "{flip}", "--scheme", "causal-sequential", "--rates", "600",
              "--n", "2", "--seed", "1"), "budget-exceeded"),
            (("simulate", "{flip}", "--scheme", "noncausal-sqrt", "--rates", "0.5,40",
              "--n", "2", "--seed", "1"), "budget-exceeded"),
            (("causal", "{flip}", "--eps", "-1"), "precondition-violated"),
            (("holevo", "{flip}", "--eps", "-0.5"), "precondition-violated"),
            (("noncausal", "{flip}", "--n", "2", "--aux-size", "20000000", "--seed", "1", "--restarts", "2"),
             "budget-exceeded"),
            (("noncausal", "{flip}", "--n", "0", "--seed", "1"), "precondition-violated"),
            (("noncausal", "{flip}", "--restarts", "-5", "--seed", "1"), "precondition-violated"),
            (("simulate", "{flip}", "--scheme", "causal-sequential", "--rates", "0.5",
              "--n", "2", "--delta", "-1", "--seed", "1"), "precondition-violated"),
            (("simulate", "{flip}", "--scheme", "noncausal-sqrt", "--rates", "-0.5",
              "--n", "4", "--trials", "2", "--seed", "1"), "precondition-violated"),
            (("simulate", "{flip}", "--scheme", "causal-sequential", "--rates", "0.5,-0.25",
              "--n", "4", "--trials", "2", "--seed", "1"), "precondition-violated"),
            (("schur", "dims", "--d", "-2", "--n", "3"), "precondition-violated"),
            (("schur", "frames", "--d", "0", "--n", "3"), "precondition-violated"),
            (("schur", "frames", "--d", "2", "--n", "-1"), "precondition-violated"),
            (("schur", "check", "--d", "2", "--n", "0"), "precondition-violated"),
            (("types", "--op", "class-size", "--p", "0.5,0.5", "--n", "1100"), "cap-exceeded"),
            (("schur", "frames", "--d", "2", "--n", "1100"), "cap-exceeded"),
            (("schur", "check", "--d", "2", "--n", "13"), "cap-exceeded"),
            (("schur", "check", "--d", "1", "--n", "13"), "cap-exceeded"),
            (("schur", "check", "--d", "2", "--n", "300000"), "cap-exceeded"),
            (("schur", "check", "--d", "100", "--n", "100"), "cap-exceeded"),
            (("simulate", "{flip}", "--scheme", "noncausal-sqrt", "--rates", "0.1",
              "--n", "13", "--seed", "1"), "cap-exceeded"),
            (("simulate", "{flip}", "--scheme", "causal-sequential", "--rates", "0.1",
              "--n", "300000", "--seed", "1"), "cap-exceeded"),
        ],
    )
    def test_bad_input_is_error_code_not_traceback(self, capsys, channel_dir, argv, error):
        argv = [a.format(flip=channel_dir / "flip.chan") for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        payload = json.loads(err.strip().split("\n")[0])
        assert payload["error"] == error
        assert "Traceback" not in err and "nan" not in payload["details"]

    @pytest.mark.parametrize("d, n", [(2, 20000), (100, 100)])
    def test_large_frame_table_is_refused_before_listing(self, capsys, d, n):
        # (2, 20000): the balanced frame's 2^(n*H) overflows; (100, 100):
        # 190,569,292 frames, past the frame cap, though n*H is only ~664 bits.
        started = time.monotonic()
        code, out, err = run_cli(capsys, "schur", "frames", "--d", str(d), "--n", str(n))
        assert time.monotonic() - started < 5.0
        assert code == 1
        assert out == ""
        assert json.loads(err.strip().split("\n")[0])["error"] == "cap-exceeded"

    @pytest.mark.parametrize("d, n, rows, limit", [(1, 300000, 1, 5.0), (3, 640, 34454, 10.0)])
    def test_large_frame_table_is_fast(self, capsys, d, n, rows, limit):
        # Closed-form dimensions: no n! and no hook list per frame.
        started = time.monotonic()
        code, out, _ = run_cli(capsys, "schur", "frames", "--d", str(d), "--n", str(n), "--json")
        assert time.monotonic() - started < limit
        assert code == 0
        assert len(json.loads(out)["rows"]) == rows

    @pytest.mark.parametrize(
        "argv, error",
        [
            (("noncausal", "{flip}", "--n", "100000", "--seed", "1"), "budget-exceeded"),
            (("noncausal", "{flip}", "--n", "1000000000000", "--seed", "1"), "budget-exceeded"),
            (("types", "--op", "coverage", "--joint", "0.3,0.2;0.2,0.3", "--n", "2000000", "--seed", "1",
              "--trials", "2"), "cap-exceeded"),
            (("types", "--op", "coverage", "--joint", "0.3,0.2;0.2,0.3", "--n", "1e19", "--seed", "1",
              "--trials", "2"), "cap-exceeded"),
            # One state: one state word, but a table row of n digits.
            (("types", "--op", "coverage", "--joint", "0.5,0.5", "--n", "1e19", "--seed", "1", "--trials", "2"),
             "cap-exceeded"),
            (("types", "--op", "coverage", "--joint", "0.5,0.5", "--n", "100000000", "--seed", "1",
              "--trials", "2"), "cap-exceeded"),
            (("types", "--op", "nearest", "--p", "0.5,0.5", "--n", "1e19"), "cap-exceeded"),
            (("types", "--op", "class-size", "--p", "0.5,0.5", "--n", "1e19"), "cap-exceeded"),
        ],
    )
    def test_huge_n_is_refused_at_once(self, capsys, channel_dir, argv, error):
        # Each size is refused before a power of n, or a count loop over n, is formed.
        argv = [a.format(flip=channel_dir / "flip.chan") for a in argv]
        started = time.monotonic()
        code, out, err = run_cli(capsys, *argv)
        assert time.monotonic() - started < 1.0
        assert code == 1 and out == ""
        payload = json.loads(err.strip().split("\n")[0])
        assert payload["error"] == error and "Traceback" not in err

    def test_aux_size_at_blocklength_one_is_refused_at_once(self, capsys, channel_dir):
        # The n = 1 solve takes every strategy, so an alphabet size is refused before any solve, however large.
        started = time.monotonic()
        code, out, err = run_cli(
            capsys, "noncausal", str(channel_dir / "purecq.chan"), "--aux-size", "1000000", "--seed", "1",
            "--restarts", "2",
        )
        assert time.monotonic() - started < 1.0
        assert code == 1 and out == ""
        payload = json.loads(err.strip().split("\n")[0])
        assert payload["error"] == "precondition-violated" and "Traceback" not in err

    def test_linear_algebra_failure_is_error_code(self, capsys, channel_dir, monkeypatch):
        def fail(args):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setitem(cli.HANDLERS, "causal", fail)
        code, out, err = run_cli(capsys, "causal", str(channel_dir / "flip.chan"))
        assert code == 1
        assert out == ""
        assert json.loads(err.strip().split("\n")[0])["error"] == "linalg"
        assert last_manifest(err)["cmdline"][:2] == ["gpcq", "causal"]

    @pytest.mark.parametrize(
        "field, value", [("inputs", None), ("states", 5), ("dim", True)]
    )
    def test_mistyped_field_is_parse_error(self, capsys, channel_dir, tmp_path, field, value):
        doc = json.loads((channel_dir / "flip.chan").read_text())
        doc[field] = value
        bad = tmp_path / "mistyped.chan"
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "validate", str(bad), "--json")
        assert code == 1
        assert out == ""
        payload = json.loads(err.strip().split("\n")[0])
        assert payload["error"] == "parse-error"
        assert field in payload["message"]
        assert "Traceback" not in err

    def test_string_and_boolean_numbers_are_parse_error(self, capsys, channel_dir, tmp_path):
        for where in ("p", "rho"):
            doc = json.loads((channel_dir / "flip.chan").read_text())
            if where == "p":
                doc["p"] = {"0": "0.5", "1": "0.5"}
            else:
                doc["rho"]["0|0"][0][0] = ["1", False]
            bad = tmp_path / f"{where}.chan"
            bad.write_text(json.dumps(doc))
            code, out, err = run_cli(capsys, "validate", str(bad), "--json")
            assert code == 1
            assert out == ""
            payload = json.loads(err.strip().split("\n")[0])
            assert payload["error"] == "parse-error"
            assert where in payload["message"]
            assert "Traceback" not in err

    def test_validate_ok(self, capsys, channel_dir):
        code, out, _ = run_cli(capsys, "validate", str(channel_dir / "flip.chan"))
        assert code == 0
        assert "ok" in out


class TestJsonSchemas:
    def test_validate_payload(self, capsys, channel_dir):
        code, out, _ = run_cli(
            capsys, "validate", str(channel_dir / "stuck.chan"), "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["dim"] == 2
        assert payload["states"] == ["ok", "stuck"]

    def test_causal_payload(self, capsys, channel_dir):
        code, out, _ = run_cli(
            capsys, "causal", str(channel_dir / "flip.chan"), "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "aux_size", "converged", "decompositions", "gap", "iterations", "q",
            "strategies_searched", "strategy", "value",
        }
        assert payload["value"] == pytest.approx(1.0, abs=1e-6)
        assert payload["converged"] is True
        # Only the two flip-inverting strategies carry weight; the two
        # constant ones are dropped from the reported support.
        assert payload["strategies_searched"] == 4
        assert payload["aux_size"] == len(payload["strategy"]) == len(payload["q"]) == 2
        assert sorted(payload["strategy"]) == [[0, 1], [1, 0]]

    def test_noncausal_payload(self, capsys, channel_dir):
        code, out, _ = run_cli(
            capsys, "noncausal", str(channel_dir / "stuck.chan"),
            "--seed", "7", "--restarts", "8", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "ascent_steps", "ascents_capped", "aux_size", "certified_optimal", "decompositions", "holevo",
            "leak", "leak_per_symbol", "n", "objective_evals", "q_given_s", "restart_capped", "restart_index",
            "restart_rounds", "restart_values", "restarts", "rounds", "strategy", "upper", "upper_gap", "value",
        }
        assert payload["value"] == pytest.approx(0.7, abs=1e-9)
        assert payload["n"] == 1
        # At n = 1 the starts are the causal witness and, as it leaves the bracket
        # open on stuck, the concave ascent, which closes it.
        threshold = payload["upper"] + payload["upper_gap"] - ALT_EPS
        assert payload["certified_optimal"] is True
        assert len(payload["restart_values"]) == payload["restarts"] == 2
        assert payload["restart_values"][0] < threshold <= payload["restart_values"][1]
        assert payload["restart_values"][payload["restart_index"]] == payload["value"]
        assert payload["objective_evals"] > payload["ascent_steps"] > 0
        assert payload["restart_rounds"] == [0, 1] and payload["rounds"] == 1
        assert payload["leak_per_symbol"] == payload["leak"]
        # purecq's bracket stays open: the solve runs, and ties go to the causal witness.
        code, out, _ = run_cli(
            capsys, "noncausal", str(channel_dir / "purecq.chan"),
            "--seed", "7", "--restarts", "4", "--json",
        )
        payload = json.loads(out)
        assert code == 0 and payload["certified_optimal"] is False
        assert len(payload["restart_values"]) == payload["restarts"] == 2
        assert max(payload["restart_values"]) < payload["upper"] + payload["upper_gap"] - ALT_EPS
        assert len(payload["restart_rounds"]) == len(payload["restart_capped"]) == 2
        assert sum(payload["restart_rounds"]) == payload["rounds"]

    def test_noncausal_table_counts_capped_starts(self, capsys, channel_dir):
        argv = ("noncausal", str(channel_dir / "purecq.chan"), "--n", "2", "--seed", "3", "--restarts", "3")
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0
        capped = sum(json.loads(out)["restart_capped"])
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.splitlines()[-1].split() == ["capped_starts", str(capped)]

    @pytest.mark.parametrize(
        "argv, result",
        [
            (("causal",), CausalSolution),
            (("noncausal", "--seed", "3", "--restarts", "2"), GPWitness),
            (("holevo",), InnerSolution),
        ],
    )
    def test_payload_keys_are_the_result_fields(self, capsys, channel_dir, argv, result):
        # Every field of the result is reported, so a new field needs no CLI edit.
        code, out, _ = run_cli(capsys, argv[0], str(channel_dir / "purecq.chan"), *argv[1:], "--json")
        assert code == 0
        assert sorted(json.loads(out)) == sorted(field.name for field in dataclasses.fields(result))

    def test_colon_labels_solve_at_blocklength_two(self, capsys, tmp_path, flip):
        # State labels containing the product-label separator ":" solve, and
        # print what the same channel with plain labels prints.
        outs = []
        for labels in (["a", "a:b", "c", "b:c"], ["s0", "s1", "s2", "s3"]):
            states = {
                (labels[2 * a + b], x): flip.tensor[a, int(x)] for a in range(2) for b in range(2) for x in "01"
            }
            path = tmp_path / f"{labels[1]}.chan"
            path.write_text(serialize_channel(build_channel(labels, "01", 2, states, [0.25] * 4)))
            code, out, _ = run_cli(
                capsys, "noncausal", str(path), "--n", "2", "--seed", "1", "--restarts", "1", "--json"
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["value"] == pytest.approx(1.0, abs=1e-9)

    def test_holevo_payload_frozen_value(self, capsys, channel_dir):
        # State-averaged skew channel: binary symmetric with crossover 0.22.
        code, out, _ = run_cli(
            capsys, "holevo", str(channel_dir / "skew.chan"), "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"converged", "decompositions", "gap", "iterations", "q", "value"}
        assert payload["converged"] is True
        assert payload["value"] == pytest.approx(0.23983249703803433, abs=5e-6)

    def test_types_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "types", "--op", "class-size", "--p", "0.5,0.5",
            "--n", "2,4", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["op"] == "class-size"
        assert [row["value"] for row in payload["rows"]] == [2, 6]
        assert set(payload["rows"][0]) == {"lower_bound", "n", "upper_bound", "value"}

    def test_schur_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "schur", "frames", "--d", "2", "--n", "3", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "frames"
        assert [row["frame"] for row in payload["rows"]] == ["3", "2+1"]
        assert set(payload["rows"][0]) == {"dim", "entropy", "frame", "lower", "upper"}
        assert "-0" not in out  # entropies are normalized, never negative zero


class TestCsvOutputs:
    def test_types_class_size_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "types", "--op", "class-size", "--p", "0.5,0.5", "--n", "2,4"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,value,lower_bound,upper_bound"
        assert lines[1].startswith("2,2,")
        assert lines[2].startswith("4,6,")

    def test_types_typical_mass_shows_failed_guarantee(self, capsys):
        code, out, _ = run_cli(
            capsys, "types", "--op", "typical-mass", "--p", "0.5,0.5",
            "--delta", "0.2", "--n", "20", "--json",
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["value"] == pytest.approx(0.7368240356445332, abs=1e-12)
        # The advertised guarantee exceeds the true mass at this blocklength.
        assert row["lower_bound"] == pytest.approx(0.75, abs=1e-12)
        assert row["lower_bound"] > row["value"]

    def test_types_nearest_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "types", "--op", "nearest", "--p", "0.4,0.6", "--n", "7"
        )
        assert code == 0
        n, value, lower, upper = out.strip().split("\n")[1].split(",")
        assert float(value) == pytest.approx(2 / 35, abs=1e-12)
        assert float(upper) == pytest.approx(4 / 7, abs=1e-12)

    def test_types_nearest_reports_the_closest_type(self, capsys):
        # Counts (5, 2, 3) are at L1 distance 0.1; (6, 2, 2) would be at 0.2.
        code, out, _ = run_cli(
            capsys, "types", "--op", "nearest", "--p", "0.5,0.25,0.25", "--n", "10", "--json"
        )
        assert code == 0
        assert json.loads(out)["rows"][0]["value"] == pytest.approx(0.1, abs=1e-12)

    def test_types_class_size_uses_the_closest_type(self, capsys):
        code, out, _ = run_cli(
            capsys, "types", "--op", "class-size", "--p", "0.5,0.25,0.25", "--n", "10", "--json"
        )
        assert code == 0
        assert json.loads(out)["rows"][0]["value"] == 2520  # 10! / (5! 2! 3!)

    def test_schur_dims_count_multiplicities(self, capsys):
        code, out, _ = run_cli(capsys, "schur", "dims", "--d", "2", "--n", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "frame,dim,entropy,lower,upper"
        assert lines[1].startswith("2,3,")  # symmetric block counts 3 states
        assert lines[2].startswith("1+1,1,")

    def test_schur_check_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "schur", "check", "--d", "2", "--n", "4", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["frames"] == 3
        assert payload["closure_defect"] < 1e-8

    def test_schur_check_catches_swapped_frames(self, capsys, monkeypatch):
        # Swapped labels keep every block a projector, so only the per-frame
        # traces can tell: on (d, n) = (2, 3) the frame (3) would count 6 states.
        monkeypatch.setattr(schur_weyl, "_PARTITIONS", {})
        part = schur_weyl.class_partition(2, 3)
        swapped = tuple(dict(zip(bases, reversed(bases.values()))) for bases in part.bases)
        monkeypatch.setitem(vars(part), "bases", swapped)
        code, out, err = run_cli(capsys, "schur", "check", "--d", "2", "--n", "3")
        assert code == 1
        assert out == ""
        assert json.loads(err.strip().split("\n")[0])["error"] == "error"

    def test_simulate_csv_and_out_file(self, capsys, channel_dir, tmp_path):
        args = (
            "simulate", str(channel_dir / "flip.chan"),
            "--scheme", "causal-sequential", "--rates", "0.5", "--n", "2",
            "--trials", "2", "--seed", "5", "--delta", "1.2",
        )
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert out.startswith("scheme,n,rate,K,M,err,ci_low,ci_high,declares\n")

        target = tmp_path / "rows.csv"
        code2, out2, _ = run_cli(capsys, *args, "--out", str(target))
        assert code2 == 0
        assert out2 == ""
        assert target.read_text() == out


    def test_simulate_csv_columns_are_the_row_fields(self, capsys, channel_dir, monkeypatch):
        # The header is SimRow's fields in order, and every cell follows the
        # tables' rule: floats to 12 significant digits.
        rows = [
            SimRow("noncausal-sqrt", 4, 0.5, 2, 4, 0.25, 0.2, 0.3, 0.125),
            SimRow("causal-sequential", 6, 1.2, 1, 148, 2 / 3, 0.1 + 0.2, 1 / 7, 0.0),
        ]
        monkeypatch.setattr(cli, "simulate_rate_error_curve", lambda *args, **kwargs: rows)
        code, out, _ = run_cli(
            capsys, "simulate", str(channel_dir / "flip.chan"), "--scheme", "causal-sequential",
            "--rates", "0.5", "--n", "4", "--seed", "1",
        )
        assert code == 0
        assert out.split("\n") == [
            ",".join(field.name for field in dataclasses.fields(SimRow)),
            "noncausal-sqrt,4,0.5,2,4,0.25,0.2,0.3,0.125",
            "causal-sequential,6,1.2,1,148,0.666666666667,0.3,0.142857142857,0",
            "",
        ]


class TestTextOutputs:
    def test_causal_table(self, capsys, channel_dir):
        code, out, _ = run_cli(capsys, "causal", str(channel_dir / "flip.chan"))
        assert code == 0
        lines = out.split("\n")
        assert lines[0] == "value                1"
        assert "strategy             0,1; 1,0" in lines
        assert lines[-3:] == ["converged            true", "decompositions       9", ""]

    @pytest.mark.parametrize(
        "argv",
        [
            ("types", "--op", "nearest", "--p", "0.5,0.25,0.25", "--n", "3,10", "--json"),
            ("simulate", "{flip}", "--scheme", "causal-sequential", "--rates", "0.5",
             "--n", "2", "--trials", "2", "--seed", "5", "--json"),
            ("schur", "check", "--d", "2", "--n", "3"),
            ("schur", "frames", "--d", "2", "--n", "3", "--json"),
        ],
    )
    def test_out_file_holds_what_stdout_would(self, capsys, channel_dir, tmp_path, argv):
        argv = [a.format(flip=channel_dir / "flip.chan") for a in argv]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        target = tmp_path / "result"
        code, out2, _ = run_cli(capsys, *argv, "--out", str(target))
        assert code == 0
        assert out2 == ""
        assert out and target.read_text() == out


class TestReproducibility:
    def test_reruns_are_byte_identical(self, capsys, channel_dir):
        args = (
            "noncausal", str(channel_dir / "flip.chan"),
            "--seed", "7", "--restarts", "6", "--json",
        )
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert {"restart_values", "ascent_steps", "objective_evals"} <= set(json.loads(out1))

    def test_manifest_on_stderr(self, capsys, channel_dir):
        path = str(channel_dir / "purecq.chan")
        code, _, err = run_cli(capsys, "causal", path)
        assert code == 0
        manifest = last_manifest(err)
        assert manifest["cmdline"][:2] == ["gpcq", "causal"]
        assert manifest["seed"] is None
        assert isinstance(manifest["wall_time_s"], float)
        assert set(manifest["tolerances"]) >= {"hermitian", "trace", "projector"}
        import hashlib

        digest = hashlib.sha256((channel_dir / "purecq.chan").read_bytes()).hexdigest()
        assert manifest["channel_sha256"] == digest

    @pytest.mark.parametrize("command", ["causal", "holevo"])
    def test_manifest_reports_the_eps_the_run_used(self, capsys, channel_dir, command):
        path = str(channel_dir / "stuck.chan")
        code, out, err = run_cli(capsys, command, path, "--eps", "0.01", "--json")
        assert code == 0
        assert last_manifest(err)["tolerances"]["inner_eps"] == 0.01
        code, _, err = run_cli(capsys, command, path, "--json")
        assert code == 0
        assert last_manifest(err)["tolerances"]["inner_eps"] == cli.INNER_EPS != 0.01

    def test_manifest_echoes_seed(self, capsys, channel_dir):
        code, _, err = run_cli(
            capsys, "noncausal", str(channel_dir / "flip.chan"),
            "--seed", "123", "--restarts", "2",
        )
        assert code == 0
        assert last_manifest(err)["seed"] == 123

    def test_manifest_present_on_failure(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "causal", str(tmp_path / "ghost.chan"))
        assert code == 1
        manifest = last_manifest(err)
        assert manifest["channel_sha256"] is None


@pytest.mark.skipif(
    shutil.which("gpcq") is None,
    reason="gpcq console script not on PATH; install the package to run this test",
)
def test_installed_entry_point(channel_dir):
    out = subprocess.run(
        ["gpcq", "validate", str(channel_dir / "flip.chan"), "--json"],
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["ok"] is True


def test_declared_entry_point(channel_dir):
    # Runs the target that [project.scripts] declares for `gpcq`, the way the
    # installed console script would, against the source tree.
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["gpcq"]
    module, func = target.split(":")
    launcher = (
        "import importlib, sys; sys.argv[0] = 'gpcq'; "
        f"importlib.import_module({module!r}).{func}()"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", launcher, "validate", str(channel_dir / "flip.chan"), "--json"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["ok"] is True
